package core

import (
	"testing"

	"repro/internal/comm"
	"repro/internal/decomp"
	"repro/internal/geom"
	"repro/internal/grid"
	"repro/internal/lattice"
	"repro/internal/metrics"
)

// noiseMask returns a boundary-heavy pseudorandom voxel mask (the
// arterial-mask stand-in: ~20% solid, links everywhere).
func noiseMask(n grid.Dims, seed uint64) *geom.Mask {
	rng := metrics.NewRNG(seed*0x9e3779b9 + 5)
	return geom.FromFunc(n, func(ix, iy, iz int) bool {
		return rng.Float64() < 0.2
	})
}

// TestFixupIndexMatchesOracle: the per-box fixup index must reproduce the
// link-by-link bounce-back of the independent oracle to 1e-12 on every
// stepper and schedule: the periodic slab, multi-axis boxes at 1-D/2-D/3-D
// shapes, bounded domains, the phased GC-C overlap whose rims apply
// exactly their own links, and per-axis ghost depths.
func TestFixupIndexMatchesOracle(t *testing.T) {
	n := grid.Dims{NX: 16, NY: 12, NZ: 8}
	mask := noiseMask(n, 1)
	cavity := CavitySpec(0.05)
	cases := []struct {
		name      string
		decomp    [3]int
		opt       OptLevel
		depth     int
		depthAxes [3]int
		boundary  *BoundarySpec
	}{
		{"slab-periodic", [3]int{2, 1, 1}, OptSIMD, 1, [3]int{}, nil},
		{"slab-periodic-deep", [3]int{2, 1, 1}, OptGCC, 2, [3]int{}, nil},
		{"pencil-periodic", [3]int{2, 2, 1}, OptSIMD, 2, [3]int{}, nil},
		{"pencil-bounded-gcc", [3]int{2, 2, 1}, OptGCC, 2, [3]int{}, cavity},
		{"block-bounded", [3]int{2, 2, 2}, OptNBC, 1, [3]int{}, cavity},
		{"pencil-axis-depth", [3]int{2, 2, 1}, OptGCC, 0, [3]int{2, 1, 1}, cavity},
	}
	const tau, steps = 0.8, 7
	init := waveInit(n)
	want := map[*BoundarySpec]*grid.Field{
		nil:    refSolverBounded(lattice.D3Q19(), n, tau, steps, init, nil, mask, [3]float64{}),
		cavity: refSolverBounded(lattice.D3Q19(), n, tau, steps, init, cavity, mask, [3]float64{}),
	}
	for _, tc := range cases {
		got, err := Run(Config{
			Model: lattice.D3Q19(), N: n, Tau: tau, Steps: steps,
			Opt: tc.opt, Ranks: tc.decomp[0] * tc.decomp[1] * tc.decomp[2],
			Decomp: tc.decomp, Threads: 2,
			GhostDepth: tc.depth, GhostDepthAxes: tc.depthAxes,
			Init: init, Solid: mask, Boundary: tc.boundary,
			KeepField: true,
		})
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if d := maxDiffFluid(got.Field, want[tc.boundary], mask.At); d > eqTol {
			t.Errorf("%s: per-box index deviates from the oracle by %g", tc.name, d)
		}
	}
}

// TestMaskRankLocalSlicing: every rank's local mask window must agree
// with the global voxel mask at the corresponding global coordinates —
// owned cells exactly, ghost cells under the periodic wrap — for 1-D,
// 2-D and 3-D decompositions.
func TestMaskRankLocalSlicing(t *testing.T) {
	n := grid.Dims{NX: 12, NY: 10, NZ: 8}
	mask := noiseMask(n, 3)
	g := [3]int{n.NX, n.NY, n.NZ}
	for _, shape := range [][3]int{{4, 1, 1}, {2, 2, 1}, {2, 2, 2}} {
		cfg := Config{
			Model: lattice.D3Q19(), N: n, Tau: 0.8, Steps: 0,
			Opt: OptSIMD, Ranks: shape[0] * shape[1] * shape[2], Decomp: shape,
			GhostDepth: 2, Solid: mask,
		}
		if _, err := cfg.init(); err != nil {
			t.Fatalf("%v: %v", shape, err)
		}
		dec, err := decomp.NewCartesianBounded(g, shape, [3]bool{})
		if err != nil {
			t.Fatal(err)
		}
		fab := comm.NewFabric(cfg.Ranks)
		err = fab.Run(func(r *comm.Rank) error {
			cs, err := newCartStepper(&cfg, dec, r)
			if err != nil {
				return err
			}
			for ix := 0; ix < cs.d.NX; ix++ {
				gx := ((cs.start[0]+ix-cs.w[0])%n.NX + n.NX) % n.NX
				for iy := 0; iy < cs.d.NY; iy++ {
					gy := ((cs.start[1]+iy-cs.w[1])%n.NY + n.NY) % n.NY
					for iz := 0; iz < cs.d.NZ; iz++ {
						gz := ((cs.start[2]+iz-cs.w[2])%n.NZ + n.NZ) % n.NZ
						if cs.mask[cs.d.Index(ix, iy, iz)] != mask.At(gx, gy, gz) {
							t.Errorf("shape %v rank %d: local (%d,%d,%d) != global (%d,%d,%d)",
								shape, r.ID, ix, iy, iz, gx, gy, gz)
							return nil
						}
					}
				}
			}
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
	}
}

// TestFixupValidation pins the geometry-layer configuration errors.
func TestFixupValidation(t *testing.T) {
	n := grid.Dims{NX: 8, NY: 6, NZ: 6}
	mask := geom.NewMask(grid.Dims{NX: 4, NY: 6, NZ: 6})
	if _, err := Run(Config{
		Model: lattice.D3Q19(), N: n, Tau: 0.8, Steps: 1,
		Opt: OptSIMD, Solid: mask,
	}); err == nil {
		t.Error("mismatched mask dims accepted")
	}
}
