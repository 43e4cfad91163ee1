package core

import (
	"math"
	"testing"

	"repro/internal/comm"
	"repro/internal/geom"
	"repro/internal/grid"
	"repro/internal/lattice"
	"repro/internal/obs"
)

// Property tests for the box schedule planner: the geometry guarantees
// the phased overlapped stepper relies on, checked exhaustively on small
// domains. Cells are identified by local coordinates; boxes come from a
// first-of-cycle destination (the largest, most rim-heavy case).

// planCase enumerates a geometry for the planner tests.
type planCase struct {
	own, w [3]int
	k      int
	stale  [3]bool
}

func planCases() []planCase {
	var cases []planCase
	for _, k := range []int{1, 3} {
		for _, depth := range [][3]int{{1, 1, 1}, {2, 1, 1}, {1, 2, 3}, {2, 2, 2}, {3, 1, 2}} {
			for _, own := range [][3]int{{4, 5, 6}, {9, 4, 7}, {3, 3, 3}} {
				var w [3]int
				ok := true
				for a := 0; a < 3; a++ {
					w[a] = depth[a] * k
					if own[a] < w[a] {
						ok = false // the exchanger's nearest-neighbor constraint
					}
				}
				if !ok {
					continue
				}
				for staleBits := 0; staleBits < 8; staleBits++ {
					var stale [3]bool
					for a := 0; a < 3; a++ {
						stale[a] = staleBits&(1<<a) != 0
					}
					cases = append(cases, planCase{own: own, w: w, k: k, stale: stale})
				}
			}
		}
	}
	return cases
}

// firstStepDest returns the destination box of the first step of a cycle
// (ext[a] = depth[a]·k = w[a] on every axis).
func firstStepDest(own, w [3]int, k int) box {
	var b box
	for a := 0; a < 3; a++ {
		b.lo[a] = w[a] - (w[a] - k)
		b.hi[a] = w[a] + own[a] + (w[a] - k)
	}
	return b
}

// forBox visits every cell of a box.
func forBox(b box, f func(c [3]int)) {
	for x := b.lo[0]; x < b.hi[0]; x++ {
		for y := b.lo[1]; y < b.hi[1]; y++ {
			for z := b.lo[2]; z < b.hi[2]; z++ {
				f([3]int{x, y, z})
			}
		}
	}
}

func inBox(c [3]int, b box) bool {
	for a := 0; a < 3; a++ {
		if c[a] < b.lo[a] || c[a] >= b.hi[a] {
			return false
		}
	}
	return true
}

// TestPlanStepTiling: the interior box plus the per-axis rim slabs tile
// the destination box exactly — every cell covered once.
func TestPlanStepTiling(t *testing.T) {
	for _, tc := range planCases() {
		dest := firstStepDest(tc.own, tc.w, tc.k)
		p := planStep(dest, tc.own, tc.w, tc.k, tc.stale)
		boxes := []box{p.interior}
		for a := 0; a < 3; a++ {
			if p.stale[a] {
				boxes = append(boxes, p.rims[a][0], p.rims[a][1])
			}
		}
		count := map[[3]int]int{}
		for _, b := range boxes {
			forBox(b, func(c [3]int) { count[c]++ })
		}
		bad := 0
		forBox(dest, func(c [3]int) {
			if count[c] != 1 {
				bad++
			}
		})
		total := 0
		for _, n := range count {
			total += n
		}
		if bad != 0 || total != dest.cells() {
			t.Fatalf("case %+v: %d cells mis-covered (total %d, dest %d)", tc, bad, total, dest.cells())
		}
	}
}

// TestPlanStepInteriorAvoidsStaleGhosts: no input of an interior-box
// stream destination (any offset within the lattice speed k) touches a
// stale axis's ghost layers — the geometric form of the poison-value
// guarantee.
func TestPlanStepInteriorAvoidsStaleGhosts(t *testing.T) {
	for _, tc := range planCases() {
		dest := firstStepDest(tc.own, tc.w, tc.k)
		p := planStep(dest, tc.own, tc.w, tc.k, tc.stale)
		forBox(p.interior, func(c [3]int) {
			for a := 0; a < 3; a++ {
				if !tc.stale[a] {
					continue
				}
				if c[a]-tc.k < tc.w[a] || c[a]+tc.k >= tc.w[a]+tc.own[a] {
					t.Fatalf("case %+v: interior cell %v reaches stale axis %d ghosts", tc, c, a)
				}
			}
		})
	}
}

// TestPlanStepSlabDegenerate: with only axis x stale, the planner
// reproduces the slab GC-C region boundaries of §V.F.
func TestPlanStepSlabDegenerate(t *testing.T) {
	own, w, k := 12, 4, 2 // depth 2
	dest := box{lo: [3]int{k, 0, 0}, hi: [3]int{own + 2*w - k, 8, 8}}
	p := planStep(dest, [3]int{own, 8, 8}, [3]int{w, 0, 0}, k, [3]bool{true, false, false})
	if got, want := p.interior.lo[0], w+k; got != want {
		t.Errorf("isLo = %d, want %d", got, want)
	}
	if got, want := p.interior.hi[0], w+own-k; got != want {
		t.Errorf("isHi = %d, want %d", got, want)
	}
	if p.interior.lo[1] != 0 || p.interior.hi[1] != 8 || p.interior.hi[2] != 8 {
		t.Errorf("non-stale axes must keep the full destination extent: %+v", p)
	}
}

// TestStepNeverWritesState is the property the one box family rests on: a
// step computes its next state without writing the state it reads. The
// deleted second, k-eroded collide-box family and the border protection of
// late-packed axes existed because collisions wrote f mid-step; now every
// rank's f — ghosts included — is bit-identical right before the swap to a
// snapshot taken before the step. The ghosts are refreshed once ahead of
// the snapshot, so the step's own refresh rewrites them with the same
// values and any other write shows.
func TestStepNeverWritesState(t *testing.T) {
	n := grid.Dims{NX: 16, NY: 12, NZ: 8}
	base := Config{Model: lattice.D3Q19(), N: n, Tau: 0.8, Opt: OptGCC, Threads: 2, GhostDepth: 1, Init: waveInit(n)}
	with := func(edit func(c *Config)) Config {
		c := base
		edit(&c)
		return c
	}
	for _, tc := range []struct {
		name string
		cfg  Config
	}{
		{"overlapped-slab", with(func(c *Config) { c.Ranks = 2 })},
		// y is packed at its slot, after x's unpack and the interior compute.
		{"pencil-late-packed-y", with(func(c *Config) { c.Ranks, c.Decomp = 4, [3]int{2, 2, 1} })},
		{"pencil-deep-q39", with(func(c *Config) {
			c.Model, c.N, c.Init = lattice.D3Q39(), grid.Dims{NX: 24, NY: 24, NZ: 8}, waveInit(grid.Dims{NX: 24, NY: 24, NZ: 8})
			c.Ranks, c.Decomp, c.GhostDepth = 4, [3]int{2, 2, 1}, 2
		})},
		{"masked-channel", with(func(c *Config) {
			c.Ranks, c.Decomp = 4, [3]int{2, 2, 1}
			c.Boundary, c.Solid = InletChannelSpec(0.05, nil), geom.CylinderZ(n, 5, 6.3, 2.5)
		})},
		{"orig", with(func(c *Config) { c.Ranks, c.Opt = 2, OptOrig })},
		// The SIMD rung's gather sweep reads the upwind rows of f in place;
		// a bounce-back link must land in a copy, never in f.
		{"gather-slab", with(func(c *Config) { c.Ranks, c.Opt = 2, OptSIMD })},
		{"gather-masked-channel", with(func(c *Config) {
			c.Ranks, c.Decomp, c.Opt = 4, [3]int{2, 2, 1}, OptSIMD
			c.Boundary, c.Solid = InletChannelSpec(0.05, nil), geom.CylinderZ(n, 5, 6.3, 2.5)
		})},
		{"gather-masked-wrap-z", with(func(c *Config) {
			c.Ranks, c.Opt = 2, OptSIMD
			c.Solid = geom.FromFunc(n, func(ix, iy, iz int) bool { return iy == 0 || iz == n.NZ-1 })
		})},
	} {
		t.Run(tc.name, func(t *testing.T) {
			cfg := tc.cfg
			cfg.Steps = 1
			dec, err := cfg.init()
			if err != nil {
				t.Fatal(err)
			}
			if err := comm.NewFabric(cfg.Ranks).Run(func(r *comm.Rank) error {
				cs, err := newCartStepper(&cfg, dec, r)
				if err != nil {
					return err
				}
				defer cs.close()
				cs.initField()
				r.Barrier()
				var stale [3]bool
				for a := range stale {
					stale[a] = cs.w[a] > 0
				}
				if cs.orig == nil {
					cs.fillOpenFaces()
					cs.refreshAxes(stale)
					r.Barrier()
				}
				before := append([]float64(nil), cs.f.Data...)
				if cs.orig != nil {
					cs.orig.compute()
				} else {
					cs.compute(cs.boxFor(cs.w), stale) // the first step of a cycle
				}
				for i, x := range cs.f.Data {
					if math.Float64bits(x) != math.Float64bits(before[i]) {
						t.Errorf("rank %d: the step wrote its own input: f[%d] %g -> %g", r.ID, i, before[i], x)
						break
					}
				}
				r.Barrier()
				return nil
			}); err != nil {
				t.Fatal(err)
			}
		})
	}
}

// TestOverlapPoisonGhosts is the runtime form of the interior guarantee:
// with every ghost cell poisoned to NaN, the interior compute of the
// overlapped schedule (split and fused) produces finite values across its
// whole region — it never read a ghost before the axis's WaitUnpackAxis
// would have refreshed it.
func TestOverlapPoisonGhosts(t *testing.T) {
	// An uncut periodic y or z is a wrap axis with no ghosts to poison;
	// this worst case needs them on every axis.
	testGhostsEveryAxis = true
	defer func() { testGhostsEveryAxis = false }()
	for _, fused := range []bool{false, true} {
		cfg := Config{
			Model: lattice.D3Q19(), N: grid.Dims{NX: 8, NY: 7, NZ: 6},
			Tau: 0.8, Steps: 1, Opt: OptGCC, Ranks: 1, Threads: 1, GhostDepth: 2,
			Fused: fused, Init: waveInit(grid.Dims{NX: 8, NY: 7, NZ: 6}),
			GhostDepthAxes: [3]int{2, 2, 1},
		}
		cs := buildStepper(t, cfg)
		if cs.w[1] == 0 || cs.w[2] == 0 {
			t.Fatalf("fused=%v: ghost widths %v, want ghosts on every axis", fused, cs.w)
		}
		cs.initField()
		// Poison every cell outside the owned box.
		owned := box{lo: cs.w, hi: [3]int{cs.w[0] + cs.own[0], cs.w[1] + cs.own[1], cs.w[2] + cs.own[2]}}
		for v := 0; v < cs.model.Q; v++ {
			blk := cs.f.V(v)
			forBox(box{hi: [3]int{cs.d.NX, cs.d.NY, cs.d.NZ}}, func(c [3]int) {
				if !inBox(c, owned) {
					blk[cs.d.Index(c[0], c[1], c[2])] = math.NaN()
				}
			})
		}
		// Treat every axis as stale-and-messaging: the worst case.
		stale := [3]bool{true, true, true}
		dest := cs.boxFor([3]int{cs.w[0], cs.w[1], cs.w[2]})
		plan := planStep(dest, cs.own, cs.w, cs.k, stale)
		cs.advance(obs.Interior, obs.NoAxis, plan.interior)
		checkFinite := func(name string, f *grid.Field, b box) {
			for v := 0; v < cs.model.Q; v++ {
				blk := f.V(v)
				forBox(b, func(c [3]int) {
					if math.IsNaN(blk[cs.d.Index(c[0], c[1], c[2])]) {
						t.Fatalf("fused=%v: NaN in %s at %v — interior read a poisoned ghost", fused, name, c)
					}
				})
			}
		}
		checkFinite("fadv (computed interior)", cs.fadv, plan.interior)
	}
}
