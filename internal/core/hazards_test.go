package core

import (
	"math"
	"testing"

	"repro/internal/collision"
	"repro/internal/geom"
	"repro/internal/grid"
	"repro/internal/lattice"
)

// TestGhostPoisonInvariance floods every ghost cell with NaN at init and
// demands the gathered result stay bit-identical to the clean run. Any
// latent schedule hazard — a kernel box extending one layer past the
// refreshed halo extent, a refresh skipping an axis, an open-face fill
// missing a layer the next step consumes, an AA pair reading a slot the
// pair-start exchange didn't cover — pulls NaN into an owned cell, and
// NaN survives every downstream collision. The slab-* cases run with
// ghosts on x only (the kernels wrap y and z), pencil-inlet-masked with
// ghosts on x and y (its periodic uncut z wraps), the rest — cut or
// walled on every axis, sparse, or AA — with ghosts on every axis. The
// clean/poisoned comparison is immune to the usual NaN-comparison trap
// (NaN > x is false) because the poisoned field is scanned for NaN
// explicitly first.
func TestGhostPoisonInvariance(t *testing.T) {
	n := grid.Dims{NX: 24, NY: 16, NZ: 16}
	solid := geom.CylinderZ(n, 8, 8.3, 2.5)
	cases := []struct {
		name string
		cfg  Config
	}{
		{"slab-gc", Config{
			Model: lattice.D3Q19(), N: n, Tau: 0.8, Steps: 5,
			Opt: OptGC, Ranks: 2, Threads: 2, GhostDepth: 1,
		}},
		{"slab-gcc-fused-deep", Config{
			Model: lattice.D3Q19(), N: n, Tau: 0.8, Steps: 5,
			Opt: OptGCC, Ranks: 2, Threads: 2, GhostDepth: 2, Fused: true,
		}},
		// Ghosts on x only, bounce-back links folded across the y/z seam.
		{"slab-gcc-masked-seam-q39-deep", Config{
			Model: lattice.D3Q39(), N: n, Tau: 0.8, Steps: 5,
			Opt: OptGCC, Ranks: 2, Threads: 2, GhostDepth: 2,
			Solid: geom.FromFunc(n, func(ix, iy, iz int) bool { return iy == 0 || iz == n.NZ-1 }),
		}},
		{"slab-orig", Config{
			Model: lattice.D3Q19(), N: n, Tau: 0.8, Steps: 5,
			Opt: OptOrig, Ranks: 2, Threads: 2, GhostDepth: 1,
		}},
		{"block-deep-trt", Config{
			Model: lattice.D3Q19(), N: n, Tau: 0.7, Steps: 5,
			Opt: OptGCC, Ranks: 8, Threads: 2, Decomp: [3]int{2, 2, 2}, GhostDepth: 2,
			Collision: collision.Spec{Kind: collision.TRT},
		}},
		{"pencil-inlet-masked", Config{
			Model: lattice.D3Q19(), N: n, Tau: 0.7, Steps: 5,
			Opt: OptGCC, Ranks: 4, Threads: 2, Decomp: [3]int{2, 2, 1}, GhostDepth: 1,
			Boundary: InletChannelSpec(0.05, nil), Solid: solid,
		}},
		// The same channel cut on z: two-grid, bounded, z ghosts stale.
		{"pencil-zcut-inlet-masked-deep", Config{
			Model: lattice.D3Q19(), N: n, Tau: 0.7, Steps: 5,
			Opt: OptGCC, Ranks: 4, Threads: 2, Decomp: [3]int{2, 1, 2}, GhostDepth: 2,
			Boundary: InletChannelSpec(0.05, nil), Solid: solid,
		}},
		{"sparse-slab-gcc-masked-deep", Config{
			Model: lattice.D3Q19(), N: n, Tau: 0.8, Steps: 5,
			Opt: OptGCC, Ranks: 2, Threads: 2, GhostDepth: 2,
			Solid: solid, Sparse: true,
		}},
		{"aa-block-periodic", Config{
			Model: lattice.D3Q19(), N: n, Tau: 0.8, Steps: 5,
			Opt: OptSIMD, Ranks: 8, Threads: 2, Decomp: [3]int{2, 2, 2}, GhostDepth: 1,
			Stream: StreamAA,
		}},
		{"aa-pencil-inlet-masked-deep", Config{
			Model: lattice.D3Q19(), N: n, Tau: 0.7, Steps: 5,
			Opt: OptGCC, Ranks: 4, Threads: 2, Decomp: [3]int{2, 2, 1}, GhostDepth: 2,
			Boundary: InletChannelSpec(0.05, nil), Solid: solid,
			Stream: StreamAA,
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			clean := runField(t, tc.cfg)
			testPoisonGhosts = true
			defer func() { testPoisonGhosts = false }()
			poisoned := runField(t, tc.cfg)
			testPoisonGhosts = false
			bad := 0
			for _, v := range poisoned.Data {
				if math.IsNaN(v) {
					bad++
				}
			}
			if bad > 0 {
				t.Fatalf("%d NaN values leaked into the gathered field: a kernel consumed a ghost before its exchange/fill", bad)
			}
			if d := grid.MaxAbsDiff(clean, poisoned); d != 0 {
				t.Errorf("poisoned ghosts changed the result: max |Δf| = %g, want bit-exact", d)
			}
		})
	}
}
