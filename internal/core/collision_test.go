package core

// Regression guards for the collision-operator subsystem.
//
// The paper-reproduction perf path is the BGK fast path: a Config whose
// Collision spec is (the zero-value) BGK must relax through the ladder's
// own BGK row kernels at every optimization level and every
// decomposition, never through a collision.Operator.
// TestBGKKeepsLegacyKernels asserts that, white-box: BGK configs build
// steppers with no operator attached (op == nil is the condition for the
// ladder's BGK row kernels).

import (
	"testing"

	"repro/internal/collision"
	"repro/internal/comm"
	"repro/internal/grid"
	"repro/internal/lattice"
)

// buildStepper constructs the stepper of a one-rank config white-box; it
// is closed when the test ends.
func buildStepper(t testing.TB, cfg Config) *cartStepper {
	t.Helper()
	dec, err := cfg.init()
	if err != nil {
		t.Fatal(err)
	}
	var cs *cartStepper
	if err := comm.NewFabric(1).Run(func(r *comm.Rank) error {
		cs, err = newCartStepper(&cfg, dec, r)
		return err
	}); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(cs.close)
	return cs
}

// TestBGKKeepsLegacyKernels: the zero-value (and explicit) BGK spec never
// attaches an operator, at every opt level, in both ghost geometries — the
// dispatch condition that keeps the paper's kernels bit-for-bit.
func TestBGKKeepsLegacyKernels(t *testing.T) {
	n := grid.Dims{NX: 12, NY: 6, NZ: 6}
	for _, opt := range Levels() {
		cfg := Config{
			Model: lattice.D3Q19(), N: n, Tau: 0.8, Steps: 1,
			Opt: opt, Ranks: 1, Threads: 1, GhostDepth: 1,
			Collision: collision.Spec{Kind: collision.BGK},
		}
		if cs := buildStepper(t, cfg); cs.op != nil {
			t.Errorf("%s: BGK periodic stepper carries operator %s", opt, cs.op.Name())
		}
	}
	cav := Config{
		Model: lattice.D3Q19(), N: n, Tau: 0.8, Steps: 1,
		Opt: OptSIMD, Ranks: 1, Threads: 1, GhostDepth: 1,
		Boundary: CavitySpec(0.05),
	}
	if cs := buildStepper(t, cav); cs.op != nil {
		t.Errorf("BGK cavity stepper carries operator %s", cs.op.Name())
	}
	trt := cav
	trt.Collision = collision.Spec{Kind: collision.TRT}
	if cs := buildStepper(t, trt); cs.op == nil {
		t.Error("TRT cavity stepper has no operator")
	}
}

// runField executes cfg and returns the gathered field.
func runField(t *testing.T, cfg Config) *grid.Field {
	t.Helper()
	cfg.KeepField = true
	if cfg.Init == nil {
		cfg.Init = waveInit(cfg.N)
	}
	res, err := Run(cfg)
	if err != nil {
		t.Fatalf("%s ranks=%d decomp=%v: %v", cfg.Opt, cfg.Ranks, cfg.Decomp, err)
	}
	return res.Field
}

// TestTRTDegeneratesToBGK: with Λ = (τ−½)² both TRT rates equal 1/τ and a
// TRT run must match the BGK fast path within reassociation tolerance —
// the end-to-end version of the operator-level identity.
func TestTRTDegeneratesToBGK(t *testing.T) {
	n := grid.Dims{NX: 12, NY: 6, NZ: 6}
	tau := 0.8
	magic := (tau - 0.5) * (tau - 0.5)
	base := Config{Model: lattice.D3Q19(), N: n, Tau: tau, Steps: 5, Opt: OptSIMD, Ranks: 2, Threads: 1, GhostDepth: 1}
	bgk := runField(t, base)
	trtCfg := base
	trtCfg.Collision = collision.Spec{Kind: collision.TRT, Magic: magic}
	trt := runField(t, trtCfg)
	if d := grid.MaxAbsDiff(bgk, trt); d > eqTol {
		t.Errorf("TRT(Λ=(τ-½)²) vs BGK: max |Δf| = %g (tol %g)", d, eqTol)
	}
}

// TestMRTDegeneratesToBGK: ghost rates pinned to 1/τ collapse the MRT
// collision matrix to ω·I; a run must match BGK within the (slightly
// looser) tolerance of the Q×Q matrix arithmetic.
func TestMRTDegeneratesToBGK(t *testing.T) {
	n := grid.Dims{NX: 12, NY: 6, NZ: 6}
	tau := 0.8
	base := Config{Model: lattice.D3Q19(), N: n, Tau: tau, Steps: 5, Opt: OptSIMD, Ranks: 1, Threads: 1, GhostDepth: 1}
	bgk := runField(t, base)
	mrtCfg := base
	mrtCfg.Collision = collision.Spec{Kind: collision.MRT, GhostRates: []float64{1 / tau}}
	mrt := runField(t, mrtCfg)
	if d := grid.MaxAbsDiff(bgk, mrt); d > 1e-10 {
		t.Errorf("MRT(ω,...,ω) vs BGK: max |Δf| = %g (tol 1e-10)", d)
	}
}

// TestCollisionCrossDecomposition: TRT and MRT runs are decomposition-
// invariant like BGK — slab, multi-rank slab and 2-D/3-D box runs agree
// within reassociation tolerance, periodic and bounded.
func TestCollisionCrossDecomposition(t *testing.T) {
	n := grid.Dims{NX: 12, NY: 6, NZ: 6}
	specs := []collision.Spec{
		{Kind: collision.TRT},
		{Kind: collision.MRT},
		{Kind: collision.MRT, GhostRates: []float64{1.3, 1.1}},
	}
	for _, spec := range specs {
		for _, boundary := range []*BoundarySpec{nil, CavitySpec(0.05)} {
			base := Config{
				Model: lattice.D3Q19(), N: n, Tau: 0.6, Steps: 6,
				Opt: OptSIMD, Ranks: 1, Threads: 1, GhostDepth: 1,
				Collision: spec, Boundary: boundary,
			}
			ref := runField(t, base)
			variants := []Config{base, base, base}
			variants[0].Ranks, variants[0].Decomp = 2, [3]int{2, 1, 1}
			variants[0].Threads = 2
			variants[1].Ranks, variants[1].Decomp = 4, [3]int{2, 2, 1}
			variants[2].Ranks, variants[2].Decomp = 8, [3]int{2, 2, 2}
			for _, cfg := range variants {
				got := runField(t, cfg)
				if d := grid.MaxAbsDiff(ref, got); d > eqTol {
					t.Errorf("%s decomp=%v bounded=%v: max |Δf| = %g (tol %g)",
						spec, cfg.Decomp, boundary != nil, d, eqTol)
				}
			}
		}
	}
}

// TestCollisionDeepHaloAndLadder: the operator path is exact under the
// deep-halo schedule and identical at every ladder level (streaming and
// exchange protocols change; the operator collide does not).
func TestCollisionDeepHaloAndLadder(t *testing.T) {
	n := grid.Dims{NX: 16, NY: 6, NZ: 6}
	base := Config{
		Model: lattice.D3Q19(), N: n, Tau: 0.7, Steps: 6,
		Opt: OptGC, Ranks: 2, Threads: 1, GhostDepth: 1,
		Collision: collision.Spec{Kind: collision.TRT},
	}
	ref := runField(t, base)
	for _, opt := range []OptLevel{OptDH, OptLoBr, OptNBC, OptGCC, OptSIMD} {
		for _, depth := range []int{1, 2} {
			cfg := base
			cfg.Opt, cfg.GhostDepth = opt, depth
			got := runField(t, cfg)
			if d := grid.MaxAbsDiff(ref, got); d > eqTol {
				t.Errorf("TRT %s depth=%d: max |Δf| = %g (tol %g)", opt, depth, d, eqTol)
			}
		}
	}
}

// relaxOpCell is the per-cell reference for the operator row kernels:
// gather, Moments, one Operator.Relax on the worker's clone, scatter — a
// row kernel's signature over the operator's own per-cell arithmetic.
func (c *collider) relaxOpCell(sc *workerScratch, in, out [][]float64, zn int) {
	m := c.model
	fc := sc.fc
	for z := 0; z < zn; z++ {
		for v := range fc {
			fc[v] = in[v][z]
		}
		rho, jx, jy, jz := m.Moments(fc)
		sc.op.Relax(fc, rho, jx/rho+c.shiftX, jy/rho+c.shiftY, jz/rho+c.shiftZ)
		for v := range fc {
			out[v][z] = fc[v]
		}
	}
}

// TestOperatorRowKernelMatchesPerCell: the operator row kernel
// (relaxOpRows, the RowRelaxer fast path) must agree with the per-cell
// reference (relaxOpCell) to reassociation level — same moments, same
// relaxation, different loop order and equilibrium inlining.
func TestOperatorRowKernelMatchesPerCell(t *testing.T) {
	for _, m := range []*lattice.Model{lattice.D3Q19(), lattice.D3Q39()} {
		for _, spec := range []collision.Spec{
			{Kind: collision.TRT},
			{Kind: collision.MRT},
			{Kind: collision.MRT, GhostRates: []float64{1.4, 1.1}},
		} {
			n := grid.Dims{NX: 7, NY: 6, NZ: 9}
			src := grid.NewField(m.Q, n, grid.SoA)
			init := waveInit(n)
			feq := make([]float64, m.Q)
			for ix := 0; ix < n.NX; ix++ {
				for iy := 0; iy < n.NY; iy++ {
					for iz := 0; iz < n.NZ; iz++ {
						rho, ux, uy, uz := init(ix, iy, iz)
						m.Equilibrium(rho, ux, uy, uz, feq)
						// Perturb off equilibrium so the ghost rates matter.
						for v := range feq {
							feq[v] *= 1 + 0.05*float64(v%5)
						}
						src.SetCell(ix, iy, iz, feq)
					}
				}
			}
			var c collider
			if err := c.init(&Config{Model: m, Tau: 0.6, Collision: spec, Opt: OptSIMD}); err != nil {
				t.Fatal(err)
			}
			if _, ok := c.op.(collision.RowRelaxer); !ok {
				t.Fatalf("%s %s: operator does not implement RowRelaxer", m.Name, spec)
			}
			c.shiftX = 1e-4
			perCell := grid.NewField(m.Q, n, grid.SoA)
			rows := grid.NewField(m.Q, n, grid.SoA)
			sc := newScratches(1, m.Q, n.NZ, c.op)[0]
			for base := 0; base < n.Cells(); base += n.NZ {
				in := rowViews(sc.sv, src, base, n.NZ)
				c.relaxOpCell(sc, in, rowViews(sc.dv, perCell, base, n.NZ), n.NZ)
				c.relaxOpRows(sc, in, rowViews(sc.dv, rows, base, n.NZ), n.NZ)
			}
			if d := grid.MaxAbsDiff(perCell, rows); d > 1e-13 {
				t.Errorf("%s %s: row kernel vs per-cell kernel max |Δf| = %g", m.Name, spec, d)
			}
		}
	}
}

// TestCollisionOverlapAndPerAxisDepth: TRT and MRT on the overlapped box
// schedule (GC-C pencils/blocks, the path the blocked kernel unlocks) and
// under per-axis ghost depths, against the single-rank reference.
func TestCollisionOverlapAndPerAxisDepth(t *testing.T) {
	n := grid.Dims{NX: 12, NY: 8, NZ: 6}
	for _, spec := range []collision.Spec{{Kind: collision.TRT}, {Kind: collision.MRT}} {
		base := Config{
			Model: lattice.D3Q19(), N: n, Tau: 0.6, Steps: 6,
			Opt: OptGCC, Ranks: 1, Threads: 1, GhostDepth: 1,
			Collision: spec,
		}
		ref := runField(t, base)
		variants := []Config{base, base, base}
		variants[0].Ranks, variants[0].Decomp = 4, [3]int{2, 2, 1}
		variants[1].Ranks, variants[1].Decomp, variants[1].GhostDepth = 8, [3]int{2, 2, 2}, 2
		variants[2].Ranks, variants[2].Decomp = 4, [3]int{2, 2, 1}
		variants[2].GhostDepthAxes = [3]int{2, 1, 2}
		for _, cfg := range variants {
			got := runField(t, cfg)
			if d := grid.MaxAbsDiff(ref, got); d > eqTol {
				t.Errorf("%s decomp=%v depth=%d axes=%v: max |Δf| = %g (tol %g)",
					spec, cfg.Decomp, cfg.GhostDepth, cfg.GhostDepthAxes, d, eqTol)
			}
		}
	}
}

// TestCollisionValidation: spec errors surface as config errors.
func TestCollisionValidation(t *testing.T) {
	n := grid.Dims{NX: 12, NY: 6, NZ: 6}
	base := Config{Model: lattice.D3Q19(), N: n, Tau: 0.8, Steps: 1, Opt: OptSIMD, Ranks: 1, GhostDepth: 1}
	bad := []func(*Config){
		func(c *Config) { c.Collision = collision.Spec{Kind: collision.MRT, GhostRates: []float64{3}} },
		func(c *Config) { c.Collision = collision.Spec{Kind: collision.BGK, Magic: 0.25} },
	}
	for i, mod := range bad {
		cfg := base
		mod(&cfg)
		if _, err := Run(cfg); err == nil {
			t.Errorf("bad collision config %d accepted", i)
		}
	}
	// Fused is legal with every operator.
	for _, kind := range []collision.Kind{collision.BGK, collision.TRT, collision.MRT} {
		cfg := base
		cfg.Fused, cfg.Collision = true, collision.Spec{Kind: kind}
		if _, err := Run(cfg); err != nil {
			t.Errorf("%s fused run rejected: %v", cfg.Collision, err)
		}
	}
}
