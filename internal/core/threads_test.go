package core

import (
	"testing"

	"repro/internal/collision"
	"repro/internal/geom"
	"repro/internal/grid"
	"repro/internal/lattice"
)

// TestThreadCountInvariance: the in-rank worker pool must be bit-exact —
// every parallel kernel computes each (x, y) row independently, so
// chunking only repartitions rows across workers. A run at 8 threads must
// reproduce the 1-thread field to the last bit on every stepper path:
// slab and box, split and fused, BGK and the operator kernels, periodic,
// bounded and masked domains, with the thin GC-C rim slabs drained from
// the shared chunk queue.
func TestThreadCountInvariance(t *testing.T) {
	for _, tc := range stepperPathCases() {
		t.Run(tc.name, func(t *testing.T) {
			ref := tc.cfg
			ref.Threads = 1
			thr := tc.cfg
			thr.Threads = 8
			a := runField(t, ref)
			b := runField(t, thr)
			if d := grid.MaxAbsDiff(a, b); d != 0 {
				t.Errorf("threads=8 differs from threads=1: max |Δf| = %g, want bit-exact", d)
			}
		})
	}
}

// stepperPathCases is the nine-path matrix exercising every stepper
// implementation: slab and box, split and fused, BGK and the operator
// kernels, periodic, bounded and masked domains, plus the Fig. 2 naive
// protocol. Shared by the thread-invariance and observe-identity tests.
func stepperPathCases() []struct {
	name string
	cfg  Config
} {
	n := grid.Dims{NX: 24, NY: 16, NZ: 16}
	profile := func(gx, gy, gz int) [3]float64 {
		return [3]float64{0.02 * float64(gy%5) / 4, 0, 0}
	}
	solid := func(ix, iy, iz int) bool {
		dx, dy := float64(ix)-9, float64(iy)-8.3
		return dx*dx+dy*dy < 6.5
	}
	return []struct {
		name string
		cfg  Config
	}{
		{"slab-bgk-simd", Config{
			Model: lattice.D3Q19(), N: n, Tau: 0.8, Steps: 5,
			Opt: OptSIMD, Ranks: 1, GhostDepth: 1,
		}},
		{"slab-gcc-fused-2r", Config{
			Model: lattice.D3Q19(), N: n, Tau: 0.8, Steps: 5,
			Opt: OptGCC, Ranks: 2, GhostDepth: 1, Fused: true,
		}},
		{"slab-trt-gcc", Config{
			Model: lattice.D3Q19(), N: n, Tau: 0.7, Steps: 5,
			Opt: OptGCC, Ranks: 2, GhostDepth: 1,
			Collision: collision.Spec{Kind: collision.TRT},
		}},
		{"pencil-cavity-trt-deep", Config{
			Model: lattice.D3Q19(), N: n, Tau: 0.7, Steps: 5,
			Opt: OptGCC, Ranks: 4, Decomp: [3]int{2, 2, 1}, GhostDepth: 2,
			Collision: collision.Spec{Kind: collision.TRT},
			Boundary:  CavitySpec(0.05),
		}},
		{"block-masked-mrt-gcc", Config{
			Model: lattice.D3Q19(), N: n, Tau: 0.7, Steps: 5,
			Opt: OptGCC, Ranks: 8, Decomp: [3]int{2, 2, 2}, GhostDepth: 1,
			Collision: collision.Spec{Kind: collision.MRT},
			Solid:     geom.FromFunc(n, solid),
		}},
		{"pencil-inlet-profile-bgk", Config{
			Model: lattice.D3Q19(), N: n, Tau: 0.8, Steps: 5,
			Opt: OptGCC, Ranks: 4, Decomp: [3]int{2, 2, 1}, GhostDepth: 1,
			Boundary: InletChannelSpec(0.02, profile),
		}},
		{"block-fused-periodic", Config{
			Model: lattice.D3Q39(), N: grid.Dims{NX: 24, NY: 16, NZ: 16}, Tau: 0.8, Steps: 4,
			Opt: OptSIMD, Ranks: 8, Decomp: [3]int{2, 2, 2}, GhostDepth: 1, Fused: true,
		}},
		{"slab-aos-gc-2r", Config{
			Model: lattice.D3Q19(), N: n, Tau: 0.8, Steps: 5,
			Opt: OptGC, Ranks: 2, GhostDepth: 1, Layout: grid.AoS,
		}},
		{"slab-orig", Config{
			Model: lattice.D3Q19(), N: n, Tau: 0.8, Steps: 5,
			Opt: OptOrig, Ranks: 2, GhostDepth: 1,
		}},
	}
}

// TestThreadCountForceInvariance: momentum-exchange force accumulation
// stays serial inside each rank (one float summation order), so the
// per-step force series must match exactly across thread counts — on the
// split path and on the fused sweep.
func TestThreadCountForceInvariance(t *testing.T) {
	n := grid.Dims{NX: 24, NY: 16, NZ: 4}
	cyl := geom.CylinderZ(n, 8, 8.3, 2.5)
	base := Config{
		Model: lattice.D3Q19(), N: n, Tau: 0.7, Steps: 10,
		Opt: OptGCC, Ranks: 4, Decomp: [3]int{2, 2, 1}, GhostDepth: 1,
		Boundary: InletChannelSpec(0.05, nil), Solid: cyl,
		MeasureForces: true, Init: waveInit(n),
	}
	for _, fused := range []bool{false, true} {
		ref := base
		ref.Threads, ref.Fused = 1, fused
		thr := base
		thr.Threads, thr.Fused = 8, fused
		want, err := Run(ref)
		if err != nil {
			t.Fatal(err)
		}
		got, err := Run(thr)
		if err != nil {
			t.Fatal(err)
		}
		if len(got.ObstacleForce) != len(want.ObstacleForce) {
			t.Fatalf("fused=%v: force series length %d, want %d", fused, len(got.ObstacleForce), len(want.ObstacleForce))
		}
		for s := range want.ObstacleForce {
			if got.ObstacleForce[s] != want.ObstacleForce[s] {
				t.Errorf("fused=%v step %d: obstacle force %v != %v", fused, s, got.ObstacleForce[s], want.ObstacleForce[s])
			}
			if got.FaceForce[s] != want.FaceForce[s] {
				t.Errorf("fused=%v step %d: face force %v != %v", fused, s, got.FaceForce[s], want.FaceForce[s])
			}
		}
	}
}
