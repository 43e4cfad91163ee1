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
// depth 1 each ghost face lists the populations whose axis component
// points out of that ghost into the owned region — CrossPlaneVels[0] of
// them, 5 of 19 and 11 of 39 — and all Q (nil) in the three whole-cell
// cases: a deep halo, the AoS layout, a pressure outlet anywhere in the run.
func TestDirectedFacesRule(t *testing.T) {
	for _, m := range []*lattice.Model{lattice.D3Q19(), lattice.D3Q39()} {
		k := m.MaxSpeed
		cfg := Config{Model: m}
		vels := cfg.faceVelocities([3]int{k, k, 0})
		want := map[int]int{19: 5, 39: 11}[m.Q]
		for a, comp := range [3][]int{m.Cx, m.Cy, m.Cz} {
			for side, list := range vels[a] {
				if a == 2 {
					if list != nil {
						t.Errorf("%s: a wrap axis has faces: %v", m.Name, list)
					}
					continue
				}
				if len(list) != want {
					t.Errorf("%s axis %d side %d: %d populations, want %d", m.Name, a, side, len(list), want)
				}
				for _, v := range list {
					if c := comp[v]; (side == 0 && c <= 0) || (side == 1 && c >= 0) {
						t.Errorf("%s axis %d side %d: velocity %d has component %d, not directed into the owned region", m.Name, a, side, v, c)
					}
				}
			}
		}
		// Per axis: the deep axis carries all Q, the depth-1 axis its list.
		if v := cfg.faceVelocities([3]int{2 * k, k, k}); v[0][0] != nil || v[0][1] != nil || len(v[1][0]) != want || len(v[2][1]) != want {
			t.Errorf("%s widths {2k,k,k}: lists %v", m.Name, v)
		}
		for name, whole := range map[string]Config{
			"AoS":             {Model: m, Layout: grid.AoS},
			"pressure outlet": {Model: m, Boundary: InletChannelSpec(0.05, nil)},
		} {
			if v := whole.faceVelocities([3]int{k, k, k}); v[0][0] != nil || v[1][1] != nil || v[2][0] != nil {
				t.Errorf("%s %s: faces carry %v, want all Q on every face", m.Name, name, v)
			}
		}
		if v := (&Config{Model: m, Boundary: outflowChannelSpec(0.05)}).faceVelocities([3]int{k, k, k}); len(v[0][0]) != want {
			t.Errorf("%s outflow: faces carry %v, want directed lists", m.Name, v)
		}
	}
}
