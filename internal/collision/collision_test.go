package collision

import (
	"math"
	"testing"

	"repro/internal/lattice"
)

// randomish deterministic cell state: a perturbed equilibrium.
func testPopulations(m *lattice.Model) []float64 {
	f := make([]float64, m.Q)
	m.Equilibrium(1.02, 0.03, -0.02, 0.01, f)
	for i := range f {
		f[i] += 1e-3 * math.Sin(float64(3*i+1))
	}
	return f
}

func moments(m *lattice.Model, f []float64) (rho, jx, jy, jz float64) {
	return m.Moments(f)
}

func TestParseKind(t *testing.T) {
	for in, want := range map[string]Kind{"bgk": BGK, "BGK": BGK, "srt": BGK, "trt": TRT, "MRT": MRT} {
		got, err := ParseKind(in)
		if err != nil || got != want {
			t.Errorf("ParseKind(%q) = %v, %v; want %v", in, got, err, want)
		}
	}
	if _, err := ParseKind("cumulant"); err == nil {
		t.Error("unknown kind accepted")
	}
}

func TestParseRates(t *testing.T) {
	got, err := ParseRates(" 1.1, 1.4 ")
	if err != nil || len(got) != 2 || got[0] != 1.1 || got[1] != 1.4 {
		t.Errorf("ParseRates = %v, %v", got, err)
	}
	if got, err := ParseRates(""); err != nil || got != nil {
		t.Errorf("empty rates = %v, %v", got, err)
	}
	if _, err := ParseRates("1.0,x"); err == nil {
		t.Error("bad rate accepted")
	}
}

func TestSpecValidate(t *testing.T) {
	bad := []Spec{
		{Kind: Kind(9)},
		{Kind: TRT, Magic: -1},
		{Kind: BGK, Magic: 0.25},
		{Kind: TRT, GhostRates: []float64{1}},
		{Kind: MRT, GhostRates: []float64{2.5}},
		{Kind: MRT, GhostRates: []float64{0}},
		{Kind: MRT, GhostRates: []float64{math.NaN()}},
		{Kind: MRT, GhostRates: []float64{1.2, math.Inf(1)}},
		{Kind: TRT, Magic: math.NaN()},
		{Kind: TRT, Magic: math.Inf(1)},
	}
	for _, s := range bad {
		if err := s.Validate(); err == nil {
			t.Errorf("spec %+v validated", s)
		}
	}
	good := []Spec{{}, {Kind: TRT}, {Kind: TRT, Magic: 3.0 / 16}, {Kind: MRT}, {Kind: MRT, GhostRates: []float64{1.2, 1.1}}}
	for _, s := range good {
		if err := s.Validate(); err != nil {
			t.Errorf("spec %+v rejected: %v", s, err)
		}
	}
}

func TestSpecString(t *testing.T) {
	for spec, want := range map[string]string{
		Spec{}.String():          "bgk",
		Spec{Kind: TRT}.String(): "trt(magic=0.25)",
		Spec{Kind: MRT}.String(): "mrt(ghost=auto)",
		Spec{Kind: MRT, GhostRates: []float64{1.2}}.String(): "mrt(ghost=1.2)",
		Spec{Kind: TRT, Magic: 0.1875}.String():              "trt(magic=0.1875)",
	} {
		if spec != want {
			t.Errorf("String = %q, want %q", spec, want)
		}
	}
}

// TestRawMomentBasisD3Q19 pins the selected basis to the standard raw
// moments of the D3Q19 MRT literature: the graded monomials with xyz
// (which vanishes identically on D3Q19) skipped.
func TestRawMomentBasisD3Q19(t *testing.T) {
	basis, err := RawMomentBasis(lattice.D3Q19())
	if err != nil {
		t.Fatal(err)
	}
	want := [][3]int{
		{0, 0, 0},
		{0, 0, 1}, {0, 1, 0}, {1, 0, 0},
		{0, 0, 2}, {0, 1, 1}, {0, 2, 0}, {1, 0, 1}, {1, 1, 0}, {2, 0, 0},
		{0, 1, 2}, {0, 2, 1}, {1, 0, 2}, {1, 2, 0}, {2, 0, 1}, {2, 1, 0},
		{0, 2, 2}, {2, 0, 2}, {2, 2, 0},
	}
	if len(basis) != len(want) {
		t.Fatalf("basis has %d moments, want %d", len(basis), len(want))
	}
	for i, mom := range basis {
		if [3]int{mom.A, mom.B, mom.C} != want[i] {
			t.Errorf("moment %d = (%d,%d,%d), want %v", i, mom.A, mom.B, mom.C, want[i])
		}
		if mom.Order != mom.A+mom.B+mom.C {
			t.Errorf("moment %d order %d != %d", i, mom.Order, mom.A+mom.B+mom.C)
		}
	}
}

// TestRawMomentBasisComplete: every lattice gets a full-rank basis whose
// moment matrix round-trips through the solver (M·M⁻¹SM with S=I equals M,
// i.e. the inversion is accurate).
func TestRawMomentBasisComplete(t *testing.T) {
	for _, m := range []*lattice.Model{lattice.D3Q19(), lattice.D3Q27(), lattice.D3Q39()} {
		basis, err := RawMomentBasis(m)
		if err != nil {
			t.Fatal(err)
		}
		if len(basis) != m.Q {
			t.Errorf("%s: basis has %d moments, want %d", m.Name, len(basis), m.Q)
		}
		// With every rate = 1, C must be the identity.
		op, err := NewMRT(m, 1.0, []float64{1})
		if err != nil {
			t.Fatal(err)
		}
		c := op.(*mrtOp).CollisionMatrix()
		for i := 0; i < m.Q; i++ {
			for j := 0; j < m.Q; j++ {
				want := 0.0
				if i == j {
					want = 1
				}
				if d := math.Abs(c[i*m.Q+j] - want); d > 1e-9 {
					t.Fatalf("%s: C[%d,%d] = %g, want %g (inversion residual %g)", m.Name, i, j, c[i*m.Q+j], want, d)
				}
			}
		}
	}
}

// TestMRTAllRatesOmegaIsBGK: when the ghost rates equal the shear rate,
// C = ω·I and the operator degenerates to BGK.
func TestMRTAllRatesOmegaIsBGK(t *testing.T) {
	for _, m := range []*lattice.Model{lattice.D3Q19(), lattice.D3Q39()} {
		tau := 0.8
		mrt, err := NewMRT(m, tau, []float64{1 / tau})
		if err != nil {
			t.Fatal(err)
		}
		bgk := NewBGK(m, tau)
		fa, fb := testPopulations(m), testPopulations(m)
		rho, jx, jy, jz := moments(m, fa)
		mrt.Relax(fa, rho, jx/rho, jy/rho, jz/rho)
		bgk.Relax(fb, rho, jx/rho, jy/rho, jz/rho)
		for i := range fa {
			if d := math.Abs(fa[i] - fb[i]); d > 1e-12 {
				t.Fatalf("%s: MRT(ω,...,ω) differs from BGK at %d by %g", m.Name, i, d)
			}
		}
	}
}

// TestTRTEqualRatesIsBGK: with Λ = (τ−½)² the odd rate equals the even
// rate and TRT degenerates to BGK.
func TestTRTEqualRatesIsBGK(t *testing.T) {
	for _, m := range []*lattice.Model{lattice.D3Q19(), lattice.D3Q39()} {
		tau := 0.8
		magic := (tau - 0.5) * (tau - 0.5)
		trt := NewTRT(m, tau, magic)
		bgk := NewBGK(m, tau)
		fa, fb := testPopulations(m), testPopulations(m)
		rho, jx, jy, jz := moments(m, fa)
		trt.Relax(fa, rho, jx/rho, jy/rho, jz/rho)
		bgk.Relax(fb, rho, jx/rho, jy/rho, jz/rho)
		for i := range fa {
			if d := math.Abs(fa[i] - fb[i]); d > 1e-14 {
				t.Fatalf("%s: TRT(Λ=(τ-½)²) differs from BGK at %d by %g", m.Name, i, d)
			}
		}
	}
}

// TestConservation: every operator conserves the cell's mass and momentum
// when relaxing toward the equilibrium at the cell's own velocity.
func TestConservation(t *testing.T) {
	for _, m := range []*lattice.Model{lattice.D3Q19(), lattice.D3Q27(), lattice.D3Q39()} {
		for _, spec := range []Spec{{}, {Kind: TRT}, {Kind: MRT}, {Kind: MRT, GhostRates: []float64{1.3, 1.1}}} {
			op, err := spec.New(m, 0.7)
			if err != nil {
				t.Fatal(err)
			}
			f := testPopulations(m)
			rho0, jx0, jy0, jz0 := moments(m, f)
			op.Relax(f, rho0, jx0/rho0, jy0/rho0, jz0/rho0)
			rho1, jx1, jy1, jz1 := moments(m, f)
			for name, d := range map[string]float64{
				"mass": rho1 - rho0, "jx": jx1 - jx0, "jy": jy1 - jy0, "jz": jz1 - jz0,
			} {
				if math.Abs(d) > 1e-12 {
					t.Errorf("%s %s: %s drifts by %g", m.Name, op.Name(), name, d)
				}
			}
		}
	}
}

// TestEquilibriumFixedPoint: relaxing an exact equilibrium is a no-op for
// every operator.
func TestEquilibriumFixedPoint(t *testing.T) {
	m := lattice.D3Q19()
	for _, spec := range []Spec{{}, {Kind: TRT}, {Kind: MRT}} {
		op, err := spec.New(m, 0.6)
		if err != nil {
			t.Fatal(err)
		}
		f := make([]float64, m.Q)
		m.Equilibrium(1.1, 0.02, 0.01, -0.03, f)
		want := append([]float64(nil), f...)
		op.Relax(f, 1.1, 0.02, 0.01, -0.03)
		for i := range f {
			if d := math.Abs(f[i] - want[i]); d > 1e-13 {
				t.Errorf("%s: equilibrium moved at %d by %g", op.Name(), i, d)
			}
		}
	}
}

// TestCloneIsConcurrencySafe: clones share no scratch (relaxing through a
// clone leaves the original's buffers untouched).
func TestCloneIsConcurrencySafe(t *testing.T) {
	m := lattice.D3Q19()
	for _, spec := range []Spec{{}, {Kind: TRT}, {Kind: MRT}} {
		op, err := spec.New(m, 0.8)
		if err != nil {
			t.Fatal(err)
		}
		cl := op.Clone()
		fa, fb := testPopulations(m), testPopulations(m)
		rho, jx, jy, jz := moments(m, fa)
		done := make(chan struct{})
		go func() {
			defer close(done)
			for k := 0; k < 200; k++ {
				f := append([]float64(nil), fb...)
				cl.Relax(f, rho, jx/rho, jy/rho, jz/rho)
			}
		}()
		for k := 0; k < 200; k++ {
			f := append([]float64(nil), fa...)
			op.Relax(f, rho, jx/rho, jy/rho, jz/rho)
		}
		<-done
	}
}

// TestTRTOmegaMinusFromMagic: the magic relation Λ = (τ⁺−½)(τ⁻−½) holds.
func TestTRTOmegaMinusFromMagic(t *testing.T) {
	m := lattice.D3Q19()
	tau := 0.51
	trt := NewTRT(m, tau, DefaultMagic).(*trtOp)
	tauM := 1 / trt.OmegaMinus()
	if d := math.Abs((tau-0.5)*(tauM-0.5) - DefaultMagic); d > 1e-14 {
		t.Errorf("magic relation violated by %g", d)
	}
}

func TestSpecNewRejectsBadTau(t *testing.T) {
	if _, err := (Spec{Kind: TRT}).New(lattice.D3Q19(), 0.5); err == nil {
		t.Error("tau = 0.5 accepted")
	}
}
