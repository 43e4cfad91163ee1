package core

import (
	"math"
	"testing"

	"repro/internal/geom"
	"repro/internal/grid"
	"repro/internal/lattice"
)

// maskAtFn adapts a voxel mask to the closure form the oracles take.
func maskAtFn(m *geom.Mask) func(ix, iy, iz int) bool {
	if m == nil {
		return nil
	}
	return m.At
}

// maxDiffFluid compares two fields over fluid cells only (solid cells are
// implementation-defined scratch).
func maxDiffFluid(a, b *grid.Field, solid func(ix, iy, iz int) bool) float64 {
	var worst float64
	n := a.D
	for v := 0; v < a.Q; v++ {
		for ix := 0; ix < n.NX; ix++ {
			for iy := 0; iy < n.NY; iy++ {
				for iz := 0; iz < n.NZ; iz++ {
					if solid != nil && solid(ix, iy, iz) {
						continue
					}
					d := math.Abs(a.At(v, ix, iy, iz) - b.At(v, ix, iy, iz))
					if d > worst {
						worst = d
					}
				}
			}
		}
	}
	return worst
}

// plateMask is a small solid plate in the domain interior.
func plateMask(n grid.Dims) func(ix, iy, iz int) bool {
	return func(ix, iy, iz int) bool {
		return ix == n.NX/2 && iy >= n.NY/4 && iy < 3*n.NY/4
	}
}

// TestBounceBackEquivalence: with a solid plate, every non-fused level must
// match the masked oracle across rank counts.
func TestBounceBackEquivalence(t *testing.T) {
	n := grid.Dims{NX: 16, NY: 8, NZ: 5}
	solid := plateMask(n)
	init := waveInit(n)
	for _, opt := range Levels() {
		for _, ranks := range []int{1, 2, 4} {
			cfg := Config{
				Model: lattice.D3Q19(), N: n, Tau: 0.8, Steps: 6,
				Opt: opt, Ranks: ranks, Threads: 1, GhostDepth: depthFor(opt, 1),
				Init: init, Solid: geom.FromFunc(n, solid), KeepField: true,
			}
			res, err := Run(cfg)
			if err != nil {
				t.Fatalf("%s ranks=%d: %v", opt, ranks, err)
			}
			want := refSolverBounded(cfg.Model, n, cfg.Tau, cfg.Steps, init, nil, cfg.Solid, [3]float64{})
			if d := maxDiffFluid(res.Field, want, solid); d > eqTol {
				t.Errorf("%s ranks=%d: max fluid |Δf| = %g", opt, ranks, d)
			}
		}
	}
}

// TestBounceBackDeepHaloAndThreads covers the mask under the deep-halo
// schedule, the overlapped GC-C path and threading.
func TestBounceBackDeepHaloAndThreads(t *testing.T) {
	n := grid.Dims{NX: 24, NY: 8, NZ: 5}
	solid := plateMask(n)
	init := waveInit(n)
	for _, cfg := range []Config{
		{Opt: OptGC, Ranks: 2, Threads: 2, GhostDepth: 2},
		{Opt: OptGCC, Ranks: 3, Threads: 1, GhostDepth: 2},
		{Opt: OptSIMD, Ranks: 2, Threads: 2, GhostDepth: 3},
	} {
		cfg.Model = lattice.D3Q19()
		cfg.N = n
		cfg.Tau = 0.8
		cfg.Steps = 6
		cfg.Init = init
		cfg.Solid = geom.FromFunc(n, solid)
		cfg.KeepField = true
		res, err := Run(cfg)
		if err != nil {
			t.Fatalf("%s depth=%d: %v", cfg.Opt, cfg.GhostDepth, err)
		}
		want := refSolverBounded(cfg.Model, n, cfg.Tau, cfg.Steps, init, nil, cfg.Solid, [3]float64{})
		if d := maxDiffFluid(res.Field, want, solid); d > eqTol {
			t.Errorf("%s ranks=%d depth=%d threads=%d: max fluid |Δf| = %g",
				cfg.Opt, cfg.Ranks, cfg.GhostDepth, cfg.Threads, d)
		}
	}
}

// TestBounceBackMassConservation: halfway bounce-back conserves fluid mass
// exactly.
func TestBounceBackMassConservation(t *testing.T) {
	n := grid.Dims{NX: 16, NY: 8, NZ: 6}
	solid := plateMask(n)
	init := waveInit(n)
	var mass0 float64
	for ix := 0; ix < n.NX; ix++ {
		for iy := 0; iy < n.NY; iy++ {
			for iz := 0; iz < n.NZ; iz++ {
				if solid(ix, iy, iz) {
					continue
				}
				rho, _, _, _ := init(ix, iy, iz)
				mass0 += rho
			}
		}
	}
	for _, m := range []*lattice.Model{lattice.D3Q19(), lattice.D3Q39()} {
		res, err := Run(Config{
			Model: m, N: n, Tau: 0.8, Steps: 25,
			Opt: OptNBC, Ranks: 2, Threads: 1, GhostDepth: 1,
			Init: init, Solid: geom.FromFunc(n, solid),
		})
		if err != nil {
			t.Fatalf("%s: %v", m.Name, err)
		}
		if math.Abs(res.Mass-mass0) > 1e-9*mass0 {
			t.Errorf("%s: fluid mass %0.12f, want %0.12f", m.Name, res.Mass, mass0)
		}
	}
}

// TestForcingEquivalence: the velocity-shift forcing must match the oracle
// at every level, fused included.
func TestForcingEquivalence(t *testing.T) {
	n := grid.Dims{NX: 12, NY: 6, NZ: 6}
	accel := [3]float64{1e-5, -5e-6, 2e-6}
	init := waveInit(n)
	for _, opt := range []OptLevel{OptOrig, OptGC, OptDH, OptCF, OptNBC, OptSIMD} {
		for _, fused := range []bool{false, true} {
			if fused && opt == OptOrig {
				continue
			}
			cfg := Config{
				Model: lattice.D3Q19(), N: n, Tau: 0.8, Steps: 5,
				Opt: opt, Ranks: 2, Threads: 1, GhostDepth: 1,
				Init: init, Accel: accel, Fused: fused, KeepField: true,
			}
			res, err := Run(cfg)
			if err != nil {
				t.Fatalf("%s fused=%v: %v", opt, fused, err)
			}
			want := refSolverBounded(cfg.Model, n, cfg.Tau, cfg.Steps, init, nil, nil, accel)
			if d := grid.MaxAbsDiff(res.Field, want); d > eqTol {
				t.Errorf("%s fused=%v: max |Δf| = %g", opt, fused, d)
			}
		}
	}
}

// TestPoiseuilleProfile: a body-force-driven channel between two solid
// walls must converge to the parabolic Poiseuille profile with the correct
// peak velocity u(z) = a/(2ν)·(z−z0)(z1−z), walls half a link outside the
// fluid.
func TestPoiseuilleProfile(t *testing.T) {
	if testing.Short() {
		t.Skip("long relaxation in -short mode")
	}
	m := lattice.D3Q19()
	n := grid.Dims{NX: 4, NY: 4, NZ: 19}
	tau := 1.2 // high viscosity: fast convergence
	a := 1e-6
	solid := func(ix, iy, iz int) bool { return iz == 0 || iz == n.NZ-1 }
	res, err := Run(Config{
		Model: m, N: n, Tau: tau, Steps: 6000,
		Opt: OptSIMD, Ranks: 2, Threads: 1, GhostDepth: 1,
		Solid: geom.FromFunc(n, solid), Accel: [3]float64{a, 0, 0}, KeepField: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	nu := m.Viscosity(tau)
	z0, z1 := 0.5, float64(n.NZ-1)-0.5 // halfway wall positions
	fc := make([]float64, m.Q)
	var worst float64
	umax := a / (2 * nu) * (z1 - z0) * (z1 - z0) / 4
	for iz := 1; iz < n.NZ-1; iz++ {
		res.Field.Cell(1, 1, iz, fc)
		rho, jx, _, _ := m.Moments(fc)
		// Physical velocity of the forced scheme: u = j/ρ + a/2.
		got := jx/rho + a/2
		want := a / (2 * nu) * (float64(iz) - z0) * (z1 - float64(iz))
		if d := math.Abs(got - want); d > worst {
			worst = d
		}
	}
	if worst > 0.02*umax {
		t.Errorf("Poiseuille profile deviates by %.3g (%.1f%% of umax %.3g)", worst, 100*worst/umax, umax)
	}
}

// TestNoSlipWall: flow past a plate must be slower next to the wall than in
// the free stream.
func TestNoSlipWall(t *testing.T) {
	m := lattice.D3Q19()
	n := grid.Dims{NX: 12, NY: 12, NZ: 6}
	solid := func(ix, iy, iz int) bool { return iy == 0 }
	res, err := Run(Config{
		Model: m, N: n, Tau: 0.9, Steps: 150,
		Opt: OptSIMD, Ranks: 1, Threads: 1, GhostDepth: 1,
		Init: func(ix, iy, iz int) (rho, ux, uy, uz float64) {
			return 1, 0.02, 0, 0
		},
		Solid: geom.FromFunc(n, solid), KeepField: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	fc := make([]float64, m.Q)
	ux := func(iy int) float64 {
		res.Field.Cell(6, iy, 3, fc)
		rho, jx, _, _ := m.Moments(fc)
		return jx / rho
	}
	nearWall, freeStream := ux(1), ux(n.NY/2)
	if nearWall >= freeStream*0.8 {
		t.Errorf("no-slip violated: u(wall+1)=%.5f vs u(mid)=%.5f", nearWall, freeStream)
	}
}

// TestSolidValidation checks the fluid cell accounting.
func TestSolidValidation(t *testing.T) {
	n := grid.Dims{NX: 8, NY: 4, NZ: 4}
	solid := func(ix, iy, iz int) bool { return ix == 2 }
	res, err := Run(Config{
		Model: lattice.D3Q19(), N: n, Tau: 0.8, Steps: 2,
		Opt: OptGC, Solid: geom.FromFunc(n, solid),
	})
	if err != nil {
		t.Fatal(err)
	}
	wantFluid := n.Cells() - 16 // one plane of 4×4 solid
	if got := FluidCells(n, geom.FromFunc(n, solid)); got != wantFluid {
		t.Errorf("FluidCells = %d, want %d", got, wantFluid)
	}
	if res.InteriorUpdates != int64(2*wantFluid) {
		t.Errorf("InteriorUpdates = %d, want %d (N_fl excludes solids, Eq. 4)", res.InteriorUpdates, 2*wantFluid)
	}
}
