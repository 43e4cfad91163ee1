package core

import (
	"testing"

	"repro/internal/collision"
	"repro/internal/geom"
	"repro/internal/grid"
	"repro/internal/lattice"
)

// TestCrossPathBitIdentity: every path collides with the one row kernel
// its rung and operator select, and streaming only moves values, so every
// way of running a configuration must produce the same field to the last
// bit — not merely within the 1e-12 reassociation envelope the other
// suites allow. The base is the periodic slab on 2 ranks, ghosts on x
// only; each variant changes only the path.
func TestCrossPathBitIdentity(t *testing.T) {
	n := grid.Dims{NX: 24, NY: 12, NZ: 12}
	variants := []struct {
		name  string
		apply func(*Config)
	}{
		{"ghosted", func(c *Config) { c.Sparse = true }}, // no mask: dense rows, ghosts on every axis
		{"pencil", func(c *Config) { c.Decomp = [3]int{1, 2, 1} }},
		{"aa", func(c *Config) { c.Stream = StreamAA }},
		{"fused", func(c *Config) { c.Fused = true }},
		{"fused-ghosted", func(c *Config) { c.Fused, c.Sparse = true, true }},
		{"threads-3", func(c *Config) { c.Threads = 3 }},
		{"depth-2", func(c *Config) { c.GhostDepth = 2 }},
	}
	for _, m := range []*lattice.Model{lattice.D3Q19(), lattice.D3Q39()} {
		for _, opt := range []OptLevel{OptGC, OptDH, OptCF, OptLoBr, OptNBC, OptGCC, OptSIMD} {
			for _, spec := range []collision.Spec{{}, {Kind: collision.TRT}} {
				base := Config{
					Model: m, N: n, Tau: 0.8, Steps: 6, Collision: spec,
					Opt: opt, Ranks: 2, Threads: 1, GhostDepth: 1,
				}
				want := runField(t, base)
				for _, v := range variants {
					cfg := base
					v.apply(&cfg)
					if d := grid.MaxAbsDiff(want, runField(t, cfg)); d != 0 {
						t.Errorf("%s %s %s: %s differs from the slab by %g (want 0 ULP)", m.Name, opt, spec, v.name, d)
					}
				}
			}
		}
	}

	// Bounce-back links across the y/z seam: a plate on the y = 0 and
	// z = NZ−1 faces of the periodic box plus a sphere. With ghosts on x
	// only the link builder folds those links across the wrap; with ghosts
	// everywhere (pencil shapes) they point into ghost copies of the
	// plate. One stream form per rung group, forced and deep. The gather
	// sweep applies the same links row by row: fused in both geometries and
	// on fluid-compact fields, AA on dense and on compact fields, agree
	// with the split path on every fluid cell (solid cells have no storage
	// under the run index and hold scheme-specific garbage under dense AA).
	solid := geom.FromFunc(n, func(ix, iy, iz int) bool { return iy == 0 || iz == n.NZ-1 })
	solid.Union(geom.SphereAt(n, 11.5, 6, 5.5, 2.6))
	for _, m := range []*lattice.Model{lattice.D3Q19(), lattice.D3Q39()} {
		for _, opt := range []OptLevel{OptGC, OptDH, OptGCC} {
			base := Config{
				Model: m, N: n, Tau: 0.8, Steps: 6, Solid: solid, Accel: [3]float64{1e-5, 0, 0},
				Opt: opt, Ranks: 2, Threads: 2, GhostDepth: 2,
			}
			want := runField(t, base)
			for _, shape := range [][3]int{{1, 2, 1}, {1, 1, 2}} {
				cfg := base
				cfg.Decomp = shape
				if d := grid.MaxAbsDiff(want, runField(t, cfg)); d != 0 {
					t.Errorf("masked %s %s: ghosted shape %v differs from x-only ghosts by %g (want 0 ULP)", m.Name, opt, shape, d)
				}
			}
			for _, v := range []struct {
				name  string
				apply func(*Config)
			}{
				{"fused", func(c *Config) { c.Fused = true }},
				{"fused-pencil", func(c *Config) { c.Fused, c.Decomp = true, [3]int{1, 2, 1} }},
				{"fused-sparse", func(c *Config) { c.Fused, c.Sparse = true, true }},
				{"fused-trt", func(c *Config) { c.Fused, c.Collision = true, collision.Spec{Kind: collision.TRT} }},
				{"aa", func(c *Config) { c.Stream = StreamAA }},
				{"aa-sparse", func(c *Config) { c.Stream, c.Sparse = StreamAA, true }},
			} {
				cfg := base
				v.apply(&cfg)
				ref := want
				if !cfg.Collision.IsBGK() {
					split := cfg
					split.Fused = false
					ref = runField(t, split)
				}
				if d := fluidMaxAbsDiff(ref, runField(t, cfg), solid); d != 0 {
					t.Errorf("masked %s %s: %s differs from the split path by %g on fluid cells (want 0 ULP)", m.Name, opt, v.name, d)
				}
			}
		}
	}
}

// TestCollideAllocatesNothing: one single-thread collide of the owned
// region allocates nothing in either ghost geometry — the chunk kernel and
// the row kernel are fields bound at construction, not method values
// rebuilt per call.
func TestCollideAllocatesNothing(t *testing.T) {
	n := grid.Dims{NX: 8, NY: 6, NZ: 6}
	for _, ghosted := range []bool{false, true} {
		cs := buildStepper(t, Config{
			Model: lattice.D3Q19(), N: n, Tau: 0.8, Steps: 1,
			Opt: OptSIMD, Ranks: 1, Threads: 1, GhostDepth: 1, Sparse: ghosted,
		})
		owned := cs.ownedBox()
		if a := testing.AllocsPerRun(10, func() { cs.collideBox(owned) }); a != 0 {
			t.Errorf("ghosts on every axis = %v: collideBox: %v allocs per call, want 0", ghosted, a)
		}
		cs.close()
	}
}
