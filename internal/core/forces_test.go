package core

import (
	"math"
	"testing"

	"repro/internal/geom"
	"repro/internal/grid"
	"repro/internal/lattice"
)

// TestForcesCrossDecomposition: the momentum-exchange force series on a
// cylinder in an inlet-driven channel must agree step for step across
// 1-D, 2-D and 3-D decompositions, deep halos, the overlapped schedule
// and the fused sweep — the per-rank owned-link partial sums reduce to
// totals that differ only by float summation order (1e-12).
func TestForcesCrossDecomposition(t *testing.T) {
	n := grid.Dims{NX: 24, NY: 16, NZ: 4}
	cyl := geom.CylinderZ(n, 8, 8.3, 2.5)
	base := Config{
		Model: lattice.D3Q19(), N: n, Tau: 0.7, Steps: 25,
		Opt: OptSIMD, Threads: 1, GhostDepth: 1,
		Boundary: InletChannelSpec(0.05, nil), Solid: cyl,
		MeasureForces: true,
	}
	ref := base
	ref.Ranks, ref.Decomp = 1, [3]int{1, 1, 1}
	want, err := Run(ref)
	if err != nil {
		t.Fatal(err)
	}
	if len(want.ObstacleForce) != base.Steps || len(want.FaceForce) != base.Steps {
		t.Fatalf("force series length %d/%d, want %d", len(want.ObstacleForce), len(want.FaceForce), base.Steps)
	}
	// The developing flow must push the cylinder downstream.
	if fx := want.ObstacleForce[base.Steps-1][0]; fx <= 0 {
		t.Errorf("cylinder drag %g, want > 0 (flow along +x)", fx)
	}
	cases := []struct {
		name      string
		decomp    [3]int
		opt       OptLevel
		depth     int
		depthAxes [3]int
		fused     bool
	}{
		{"slab-shape", [3]int{4, 1, 1}, OptSIMD, 1, [3]int{}, false},
		{"pencil", [3]int{2, 2, 1}, OptSIMD, 1, [3]int{}, false},
		{"pencil-gcc-deep", [3]int{2, 2, 1}, OptGCC, 2, [3]int{}, false},
		{"block", [3]int{2, 2, 2}, OptNBC, 1, [3]int{}, false},
		{"pencil-axis-depth", [3]int{2, 2, 1}, OptGCC, 0, [3]int{2, 1, 1}, false},
		{"single-fused", [3]int{1, 1, 1}, OptSIMD, 1, [3]int{}, true},
		{"pencil-gcc-deep-fused", [3]int{2, 2, 1}, OptGCC, 2, [3]int{}, true},
		{"block-fused", [3]int{2, 2, 2}, OptNBC, 1, [3]int{}, true},
	}
	for _, tc := range cases {
		cfg := base
		cfg.Decomp = tc.decomp
		cfg.Ranks = tc.decomp[0] * tc.decomp[1] * tc.decomp[2]
		cfg.Opt = tc.opt
		cfg.GhostDepth = tc.depth
		cfg.GhostDepthAxes = tc.depthAxes
		cfg.Fused = tc.fused
		got, err := Run(cfg)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		var worst float64
		for s := 0; s < base.Steps; s++ {
			for a := 0; a < 3; a++ {
				if d := math.Abs(got.ObstacleForce[s][a] - want.ObstacleForce[s][a]); d > worst {
					worst = d
				}
				if d := math.Abs(got.FaceForce[s][a] - want.FaceForce[s][a]); d > worst {
					worst = d
				}
			}
		}
		if worst > 1e-12 {
			t.Errorf("%s: force series deviates from the 1-rank run by %g", tc.name, worst)
		}
	}
}

// TestForcesSlabVsBox: the slab stepper (periodic 1-D path) and the box
// stepper must measure identical obstacle forces on a periodic
// sphere-in-crossflow problem.
func TestForcesSlabVsBox(t *testing.T) {
	n := grid.Dims{NX: 16, NY: 12, NZ: 10}
	sphere := geom.SphereAt(n, 8, 6, 5, 2.8)
	base := Config{
		Model: lattice.D3Q19(), N: n, Tau: 0.8, Steps: 20,
		Opt: OptSIMD, Threads: 2, GhostDepth: 1,
		Solid: sphere, Accel: [3]float64{2e-5, 0, 0},
		Init: func(ix, iy, iz int) (rho, ux, uy, uz float64) {
			return 1, 0.03, 0, 0 // uniform crossflow: drag settles along +x
		},
		MeasureForces: true,
	}
	slab := base
	slab.Ranks, slab.Decomp = 2, [3]int{2, 1, 1} // periodic slab stepper
	want, err := Run(slab)
	if err != nil {
		t.Fatal(err)
	}
	boxCfg := base
	boxCfg.Ranks, boxCfg.Decomp = 4, [3]int{2, 2, 1} // box stepper
	got, err := Run(boxCfg)
	if err != nil {
		t.Fatal(err)
	}
	var worst float64
	for s := 0; s < base.Steps; s++ {
		for a := 0; a < 3; a++ {
			if d := math.Abs(got.ObstacleForce[s][a] - want.ObstacleForce[s][a]); d > worst {
				worst = d
			}
		}
	}
	if worst > 1e-12 {
		t.Errorf("slab vs box obstacle force series deviate by %g", worst)
	}
	if fx := want.ObstacleForce[base.Steps-1][0]; fx <= 0 {
		t.Errorf("sphere drag %g, want > 0 (forced flow along +x)", fx)
	}
}

// TestForceWallBalancePoiseuille: in the steady body-forced Poiseuille
// channel the walls must absorb exactly the momentum the forcing injects:
// F_wall·x = a·M_fluid per step (the discrete momentum balance of the
// bounce-back links) — a quantitative check of the momentum-exchange
// formula against an analytic invariant.
func TestForceWallBalancePoiseuille(t *testing.T) {
	if testing.Short() {
		t.Skip("steady-state transient in -short mode")
	}
	n := grid.Dims{NX: 6, NY: 10, NZ: 4}
	a := 1e-5
	steps := 1500 // ≳ 2 momentum diffusion times at tau = 1
	res, err := Run(Config{
		Model: lattice.D3Q19(), N: n, Tau: 1.0, Steps: steps,
		Opt: OptSIMD, Ranks: 2, Decomp: [3]int{2, 1, 1}, Threads: 1, GhostDepth: 1,
		Boundary: ChannelSpec(), Accel: [3]float64{a, 0, 0},
		MeasureForces: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	want := a * res.Mass
	got := res.FaceForce[steps-1][0]
	if d := math.Abs(got-want) / want; d > 0.01 {
		t.Errorf("steady wall drag %g, want a·M = %g (rel err %.4f)", got, want, d)
	}
	// Transverse components vanish by symmetry.
	if math.Abs(res.FaceForce[steps-1][1]) > 1e-12 || math.Abs(res.FaceForce[steps-1][2]) > 1e-12 {
		t.Errorf("spurious transverse wall force %v", res.FaceForce[steps-1])
	}
	// No obstacle: the mask body reports zero.
	if res.ObstacleForce[steps-1] != ([3]float64{}) {
		t.Errorf("obstacle force %v without a mask", res.ObstacleForce[steps-1])
	}
}
