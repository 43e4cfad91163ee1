package core

import (
	"math"
	"testing"

	"repro/internal/grid"
	"repro/internal/lattice"
)

// Property tests for the box schedule planner: the geometry guarantees
// the phased overlapped stepper relies on, checked exhaustively on small
// domains. Cells are identified by local coordinates; boxes come from a
// first-of-cycle destination (the largest, most rim-heavy case).

// planCase enumerates a geometry for the planner tests.
type planCase struct {
	own, w   [3]int
	k        int
	stale    [3]bool
	packLate [3]bool
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
					// packLate marks stale axes after the first: the shape
					// the overlapped stepper uses (plus the all-false slab
					// form, covered when only one axis is stale).
					var packLate [3]bool
					seen := false
					for a := 0; a < 3; a++ {
						if stale[a] {
							packLate[a] = seen
							seen = true
						}
					}
					cases = append(cases, planCase{own: own, w: w, k: k, stale: stale, packLate: packLate})
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
// the destination box exactly — every cell covered once — for both the
// stream and the collide families.
func TestPlanStepTiling(t *testing.T) {
	for _, tc := range planCases() {
		dest := firstStepDest(tc.own, tc.w, tc.k)
		p := planStep(dest, tc.own, tc.w, tc.k, tc.stale, tc.packLate)
		for fam, boxes := range [2][]box{
			append([]box{p.interiorS}, rimBoxes(p, true)...),
			append([]box{p.interiorC}, rimBoxes(p, false)...),
		} {
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
				t.Fatalf("case %+v family %d: %d cells mis-covered (total %d, dest %d)",
					tc, fam, bad, total, dest.cells())
			}
		}
	}
}

// rimBoxes collects the plan's stream (or collide) rim slabs of every
// stale axis.
func rimBoxes(p stepPlan, stream bool) []box {
	var out []box
	for a := 0; a < 3; a++ {
		if !p.stale[a] {
			continue
		}
		if stream {
			out = append(out, p.phases[a].streamRims[0], p.phases[a].streamRims[1])
		} else {
			out = append(out, p.phases[a].collideRims[0], p.phases[a].collideRims[1])
		}
	}
	return out
}

// TestPlanStepInteriorAvoidsStaleGhosts: no input of an interior-box
// stream destination (any offset within the lattice speed k) touches a
// stale axis's ghost layers — the geometric form of the poison-value
// guarantee.
func TestPlanStepInteriorAvoidsStaleGhosts(t *testing.T) {
	for _, tc := range planCases() {
		dest := firstStepDest(tc.own, tc.w, tc.k)
		p := planStep(dest, tc.own, tc.w, tc.k, tc.stale, tc.packLate)
		forBox(p.interiorS, func(c [3]int) {
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

// TestPlanStepCollideSafety: after each phase, every cell collided so far
// is at Chebyshev distance > k from every destination cell not yet
// streamed — so no collide overwrites state a pending rim stream still
// reads. Phase −1 is the interior; phase a adds axis a's rims.
func TestPlanStepCollideSafety(t *testing.T) {
	for _, tc := range planCases() {
		dest := firstStepDest(tc.own, tc.w, tc.k)
		p := planStep(dest, tc.own, tc.w, tc.k, tc.stale, tc.packLate)
		streamed := map[[3]int]bool{}
		forBox(p.interiorS, func(c [3]int) { streamed[c] = true })
		collided := []box{p.interiorC}
		check := func(phase int) {
			for _, cb := range collided {
				forBox(cb, func(c [3]int) {
					for dx := -tc.k; dx <= tc.k; dx++ {
						for dy := -tc.k; dy <= tc.k; dy++ {
							for dz := -tc.k; dz <= tc.k; dz++ {
								n := [3]int{c[0] + dx, c[1] + dy, c[2] + dz}
								if inBox(n, dest) && !streamed[n] {
									t.Fatalf("case %+v phase %d: collided cell %v within k of unstreamed %v",
										tc, phase, c, n)
								}
							}
						}
					}
				})
			}
		}
		check(-1)
		for a := 0; a < 3; a++ {
			if !p.stale[a] {
				continue
			}
			forBox(p.phases[a].streamRims[0], func(c [3]int) { streamed[c] = true })
			forBox(p.phases[a].streamRims[1], func(c [3]int) { streamed[c] = true })
			collided = append(collided, p.phases[a].collideRims[0], p.phases[a].collideRims[1])
			check(a)
		}
	}
}

// TestPlanStepLatePackBorders: collides that run before a packLate axis's
// slot — the interior collide box, and the collide rims of earlier stale
// axes — never touch that axis's border layers [w, 2w) and [own, own+w),
// whose pre-step values the late pack (message or local wrap) still
// reads.
func TestPlanStepLatePackBorders(t *testing.T) {
	inBorder := func(c [3]int, a int, w, own [3]int) bool {
		return (c[a] >= w[a] && c[a] < 2*w[a]) || (c[a] >= own[a] && c[a] < own[a]+w[a])
	}
	for _, tc := range planCases() {
		dest := firstStepDest(tc.own, tc.w, tc.k)
		p := planStep(dest, tc.own, tc.w, tc.k, tc.stale, tc.packLate)
		for a := 0; a < 3; a++ {
			if !tc.packLate[a] {
				continue
			}
			early := []box{p.interiorC}
			for b := 0; b < a; b++ {
				if p.stale[b] {
					early = append(early, p.phases[b].collideRims[0], p.phases[b].collideRims[1])
				}
			}
			for _, eb := range early {
				forBox(eb, func(c [3]int) {
					if inBorder(c, a, tc.w, tc.own) {
						t.Fatalf("case %+v: early collide cell %v inside late-packed axis %d border", tc, c, a)
					}
				})
			}
		}
	}
}

// TestPlanStepSlabDegenerate: with only axis x stale and no late packs,
// the planner reproduces the slab GC-C region boundaries of §V.F.
func TestPlanStepSlabDegenerate(t *testing.T) {
	own, w, k := 12, 4, 2 // depth 2
	dest := box{lo: [3]int{k, 0, 0}, hi: [3]int{own + 2*w - k, 8, 8}}
	p := planStep(dest, [3]int{own, 8, 8}, [3]int{w, 0, 0}, k, [3]bool{true, false, false}, [3]bool{})
	if got, want := p.interiorS.lo[0], w+k; got != want {
		t.Errorf("isLo = %d, want %d", got, want)
	}
	if got, want := p.interiorS.hi[0], w+own-k; got != want {
		t.Errorf("isHi = %d, want %d", got, want)
	}
	if got, want := p.interiorC.lo[0], w+2*k; got != want {
		t.Errorf("icLo = %d, want %d", got, want)
	}
	if got, want := p.interiorC.hi[0], w+own-2*k; got != want {
		t.Errorf("icHi = %d, want %d", got, want)
	}
	if p.interiorS.lo[1] != 0 || p.interiorS.hi[1] != 8 || p.interiorC.hi[2] != 8 {
		t.Errorf("non-stale axes must keep the full destination extent: %+v", p)
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
		plan := planStep(dest, cs.own, cs.w, cs.k, stale, [3]bool{false, true, true})
		cs.computeInterior(plan)
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
		if fused {
			checkFinite("fadv (fused interior)", cs.fadv, plan.interiorS)
		} else {
			checkFinite("fadv (streamed interior)", cs.fadv, plan.interiorS)
			checkFinite("f (collided interior)", cs.f, plan.interiorC)
		}
	}
}
