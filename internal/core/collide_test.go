package core

import (
	"testing"

	"repro/internal/collision"
	"repro/internal/grid"
	"repro/internal/lattice"
)

// TestCrossPathBitIdentity: every stepper path collides with the one row
// kernel its rung and operator select, and streaming only moves values, so
// every way of running a configuration must produce the same field to the
// last bit — not merely within the 1e-12 reassociation envelope the other
// suites allow. The base is the periodic slab stepper on 2 ranks; each
// variant changes only the path.
func TestCrossPathBitIdentity(t *testing.T) {
	n := grid.Dims{NX: 24, NY: 12, NZ: 12}
	variants := []struct {
		name  string
		apply func(*Config)
		// fused relaxes with the pair-symmetric BGK kernel at every rung,
		// so it joins the comparison only where the split path does too.
		fused bool
	}{
		{"box-stepper", func(c *Config) { c.Sparse = true }, false}, // no mask: dense rows on the box stepper
		{"pencil", func(c *Config) { c.Decomp = [3]int{1, 2, 1} }, false},
		{"aa", func(c *Config) { c.Stream = StreamAA }, false},
		{"fused", func(c *Config) { c.Fused = true }, true},
		{"threads-3", func(c *Config) { c.Threads = 3 }, false},
		{"depth-2", func(c *Config) { c.GhostDepth = 2 }, false},
	}
	for _, m := range []*lattice.Model{lattice.D3Q19(), lattice.D3Q39()} {
		for _, opt := range []OptLevel{OptGC, OptDH, OptCF, OptGCC, OptSIMD} {
			for _, spec := range []collision.Spec{{}, {Kind: collision.TRT}} {
				base := Config{
					Model: m, N: n, Tau: 0.8, Steps: 6, Collision: spec,
					Opt: opt, Ranks: 2, Threads: 1, GhostDepth: 1,
				}
				want := runField(t, base)
				for _, v := range variants {
					if v.fused && (!spec.IsBGK() || opt < OptCF) {
						continue
					}
					cfg := base
					v.apply(&cfg)
					if d := grid.MaxAbsDiff(want, runField(t, cfg)); d != 0 {
						t.Errorf("%s %s %s: %s differs from the slab by %g (want 0 ULP)", m.Name, opt, spec, v.name, d)
					}
				}
			}
		}
	}
}

// TestCollideAllocatesNothing: one single-thread collide of the owned
// region allocates nothing on either stepper — the chunk kernel and the
// row kernel are fields bound at construction, not method values rebuilt
// per call.
func TestCollideAllocatesNothing(t *testing.T) {
	n := grid.Dims{NX: 8, NY: 6, NZ: 6}
	cfg := Config{
		Model: lattice.D3Q19(), N: n, Tau: 0.8, Steps: 1,
		Opt: OptSIMD, Ranks: 1, Threads: 1, GhostDepth: 1,
	}
	st := buildSlabStepper(t, cfg)
	defer st.close()
	if a := testing.AllocsPerRun(10, func() { st.collideRegion(st.w, st.w+st.own) }); a != 0 {
		t.Errorf("slab collideRegion: %v allocs per call, want 0", a)
	}
	cs := buildCartStepper(t, cfg)
	defer cs.close()
	owned := cs.ownedBox()
	if a := testing.AllocsPerRun(10, func() { cs.collideBox(owned) }); a != 0 {
		t.Errorf("box collideBox: %v allocs per call, want 0", a)
	}
}
