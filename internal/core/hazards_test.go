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
		// Depth 1: a ghost face carries only the populations pulled out of
		// it (DirectedFaces) and every other slot of its ghost cells stays
		// poison, in both fields. Reach-3 pulls out of edge and corner ghosts
		// are what the ride-along must still deliver.
		{"pencil-gcc-q39-directed", Config{
			Model: lattice.D3Q39(), N: n, Tau: 0.8, Steps: 5,
			Opt: OptGCC, Ranks: 4, Threads: 2, Decomp: [3]int{2, 2, 1}, GhostDepth: 1,
		}},
		{"block-gcc-q39-directed", Config{
			Model: lattice.D3Q39(), N: n, Tau: 0.8, Steps: 5,
			Opt: OptGCC, Ranks: 8, Threads: 2, Decomp: [3]int{2, 2, 2}, GhostDepth: 1,
		}},
		// The same pencil on the blocking refresh: per-plane lists, the
		// ride-along corners carried by the second axis's planes.
		{"pencil-simd-q39-directed", Config{
			Model: lattice.D3Q39(), N: n, Tau: 0.8, Steps: 5,
			Opt: OptSIMD, Ranks: 4, Threads: 2, Decomp: [3]int{2, 2, 1}, GhostDepth: 1,
		}},
		// Walls written into each field once, on its first refresh: the
		// poison in the other field survives until that field's own first
		// refresh, and a cut axis's exchange carries wall corners across.
		{"cavity-2rank-walls-once", Config{
			Model: lattice.D3Q19(), N: n, Tau: 0.7, Steps: 5,
			Opt: OptGCC, Ranks: 2, Threads: 2, GhostDepth: 1,
			Collision: collision.Spec{Kind: collision.TRT},
			Boundary:  CavitySpec(0.05),
		}},
		{"cavity-2rank-q39-walls-once", Config{
			Model: lattice.D3Q39(), N: n, Tau: 0.8, Steps: 5,
			Opt: OptSIMD, Ranks: 2, Threads: 2, GhostDepth: 1,
			Boundary: CavitySpec(0.05),
		}},
		// An outflow face on a cut axis copies its source layer slot by slot,
		// the other axes' ghost cells included: directed faces suffice.
		{"block-outflow-directed", Config{
			Model: lattice.D3Q19(), N: n, Tau: 0.7, Steps: 5,
			Opt: OptGCC, Ranks: 8, Threads: 2, Decomp: [3]int{2, 2, 2}, GhostDepth: 1,
			Boundary: outflowChannelSpec(0.05), Solid: solid,
		}},
		// pencil-inlet-masked above is the pressure-outlet case: its fill
		// re-anchors whole cells, so the run's faces carry all Q
		// (TestDirectedFacesRule).
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

// outflowChannelSpec is InletChannelSpec with a plain zero-gradient outflow
// on the high-x face instead of the pressure outlet.
func outflowChannelSpec(u float64) *BoundarySpec {
	b := InletChannelSpec(u, nil)
	b.Faces[0][1] = Face{Kind: BCOutflow}
	return b
}

// TestDirectedFacesRule pins what the stepper hands its exchanger: at
// depth 1 each ghost plane lists the populations that cross it into the
// owned region — on the plane d cells out of the low ghost those with
// c_a ≥ d, of the high ghost c_a ≤ −d: perfsim.DefaultCross of them, D3Q19 5 of
// 19 on its one plane, D3Q39 11, 6 and 1 of 39 on its three — and all Q
// (nil) in the two whole-cell cases: a deep halo and a pressure outlet
// anywhere in the run.
func TestDirectedFacesRule(t *testing.T) {
	for _, m := range []*lattice.Model{lattice.D3Q19(), lattice.D3Q39()} {
		k := m.MaxSpeed
		cfg := Config{Model: m}
		vels := cfg.faceVelocities([3]int{k, k, 0})
		want := map[int][]int{19: {5}, 39: {11, 6, 1}}[m.Q]
		for a, comp := range [3][]int{m.Cx, m.Cy, m.Cz} {
			for side, planes := range vels[a] {
				if a == 2 {
					if planes != nil {
						t.Errorf("%s: a wrap axis has faces: %v", m.Name, planes)
					}
					continue
				}
				if len(planes) != k {
					t.Fatalf("%s axis %d side %d: %d plane lists, want %d", m.Name, a, side, len(planes), k)
				}
				for d, list := range planes {
					if len(list) != want[d] {
						t.Errorf("%s axis %d side %d plane %d: %d populations, want %d", m.Name, a, side, d+1, len(list), want[d])
					}
					for _, v := range list {
						if c := comp[v]; (side == 0 && c < d+1) || (side == 1 && c > -(d+1)) {
							t.Errorf("%s axis %d side %d plane %d: velocity %d has component %d, does not cross the plane into the owned region", m.Name, a, side, d+1, v, c)
						}
					}
				}
			}
		}
		// Per axis: the deep axis carries all Q, the depth-1 axis its lists.
		if v := cfg.faceVelocities([3]int{2 * k, k, k}); v[0][0] != nil || v[0][1] != nil || len(v[1][0][0]) != want[0] || len(v[2][1][0]) != want[0] {
			t.Errorf("%s widths {2k,k,k}: lists %v", m.Name, v)
		}
		for name, whole := range map[string]Config{
			"pressure outlet": {Model: m, Boundary: InletChannelSpec(0.05, nil)},
		} {
			if v := whole.faceVelocities([3]int{k, k, k}); v[0][0] != nil || v[1][1] != nil || v[2][0] != nil {
				t.Errorf("%s %s: faces carry %v, want all Q on every face", m.Name, name, v)
			}
		}
		if v := (&Config{Model: m, Boundary: outflowChannelSpec(0.05)}).faceVelocities([3]int{k, k, k}); len(v[0][0][0]) != want[0] {
			t.Errorf("%s outflow: faces carry %v, want directed lists", m.Name, v)
		}
	}
}
