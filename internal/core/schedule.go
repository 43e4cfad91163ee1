package core

// The box step schedule: the planner behind the stepping loop.
//
// A deep-halo step computes an axis-aligned destination box. At the moment
// the step starts, some axes' ghost layers may still be in flight ("stale"
// axes: their refresh — message exchange, local wraparound or boundary
// fill — completes only during the step). The planner splits the
// destination box into
//
//   - an interior box, whose inputs never touch a stale axis's ghost
//     layers and which may therefore be computed while messages fly
//     (the GC-C overlap of §V.F generalized to any axis set), and
//   - per-axis rim slabs, computed one stale axis at a time as that
//     axis's ghosts become valid.
//
// The rims are arranged so the streamed region stays a box that grows
// axis by axis: after phase a it spans the full destination range on
// every axis ≤ a and the interior range on the stale axes beyond. Phase
// a's rim therefore needs ghost data of axes ≤ a only — exactly what the
// sequential-axis ride-along exchange has delivered by then.
//
// The split kernels add one constraint the fused kernel does not have:
// collision overwrites the pre-stream state f, which rim streaming still
// reads within distance k of its destinations. The collide boxes are
// therefore the stream boxes eroded by k toward every not-yet-streamed
// region, which keeps them boxes with the same axis-by-axis growth: the
// interior collide box sits 2k inside the owned extent of every stale
// axis, and each phase expands one axis to the full destination range.
//
// planStep is pure geometry — no fields, no communication — which is what
// lets one scheduler drive the slab (stale = {x}, no ghosts on y and z),
// pencils and blocks (stale = the axes refreshed this step) and the fused
// kernel (stream boxes only), and what the property tests in
// schedule_test.go pin: the boxes tile the destination exactly, interior
// inputs avoid stale ghosts, and collide boxes stay k inside the streamed
// region.

// stepPlan is the interior/rim decomposition of one step's destination box.
type stepPlan struct {
	dest  box
	stale [3]bool

	// interiorS is the stream-ahead box: destinations whose inputs avoid
	// every stale axis's ghost layers. interiorC is the collide-ahead box,
	// k further inside interiorS on stale axes.
	interiorS, interiorC box

	// phases[a] holds the axis-a rim boxes, meaningful only when stale[a]:
	// streamRims are the two axis-a slabs that complete the streamed box
	// along axis a; collideRims likewise for the collided box.
	phases [3]phasePlan
}

// phasePlan is one stale axis's rim work: index 0 the low-side slab,
// 1 the high-side slab. Empty boxes (hi ≤ lo on the phase axis) occur
// when the owned extent is too small for an interior on that axis.
type phasePlan struct {
	streamRims  [2]box
	collideRims [2]box
}

// planStep decomposes the destination box dest of a step on a domain with
// per-axis owned extents own and ghost widths w (lattice max speed k)
// into interior and per-axis rim boxes, given which axes are stale.
// With no stale axes the interior is the whole destination box.
//
// packLate marks axes whose border faces are packed (for messages or the
// local wraparound) only after the interior compute has started — the
// phased multi-axis schedule packs each axis at its slot, after the
// previous axis's unpack, so its payload carries fresh ride-along corner
// data. Collision writes the state field f that those packs read, so the
// collide-ahead box additionally keeps out of a packLate axis's border
// layers [w, 2w) and [own, own+w); the deferred cells join that axis's
// collide rim. For w ≤ 2k (depth ≤ 2) the restriction is vacuous.
func planStep(dest box, own, w [3]int, k int, stale, packLate [3]bool) stepPlan {
	p := stepPlan{dest: dest, stale: stale, interiorS: dest, interiorC: dest}
	for a := 0; a < 3; a++ {
		if !stale[a] {
			continue
		}
		// Stream-ahead: inputs (distance ≤ k) must stay inside the owned
		// range [w, w+own) of a stale axis.
		p.interiorS.lo[a] = w[a] + k
		p.interiorS.hi[a] = w[a] + own[a] - k
		if p.interiorS.hi[a] < p.interiorS.lo[a] {
			p.interiorS.hi[a] = p.interiorS.lo[a]
		}
		// Collide-ahead: k further inside, so no collide overwrites state a
		// pending rim stream still reads (the slab's icLo/icHi, per axis).
		p.interiorC.lo[a] = w[a] + 2*k
		p.interiorC.hi[a] = w[a] + own[a] - 2*k
		if packLate[a] {
			if lo := 2 * w[a]; lo > p.interiorC.lo[a] {
				p.interiorC.lo[a] = lo
			}
			if hi := own[a]; hi < p.interiorC.hi[a] {
				p.interiorC.hi[a] = hi
			}
		}
		if p.interiorC.lo[a] > dest.hi[a] {
			p.interiorC.lo[a] = dest.hi[a]
		}
		if p.interiorC.hi[a] < p.interiorC.lo[a] {
			p.interiorC.hi[a] = p.interiorC.lo[a]
		}
	}
	// Rim slabs: phase a expands axis a from the interior range to the
	// full destination range. Earlier axes are complete (full range);
	// later stale axes are still at their interior range.
	sGrow, cGrow := p.interiorS, p.interiorC
	for a := 0; a < 3; a++ {
		if !stale[a] {
			continue
		}
		ph := &p.phases[a]
		ph.streamRims[0], ph.streamRims[1] = axisRims(sGrow, dest, a, p.interiorS)
		ph.collideRims[0], ph.collideRims[1] = axisRims(cGrow, dest, a, p.interiorC)
		sGrow.lo[a], sGrow.hi[a] = dest.lo[a], dest.hi[a]
		cGrow.lo[a], cGrow.hi[a] = dest.lo[a], dest.hi[a]
	}
	return p
}

// axisRims returns the two axis-a slabs that expand box grown from the
// interior range to the full dest range on axis a: the slabs span grown's
// current extents on the other axes and [dest.lo, interior.lo) /
// [interior.hi, dest.hi) on axis a.
func axisRims(grown, dest box, a int, interior box) (lo, hi box) {
	lo, hi = grown, grown
	lo.lo[a], lo.hi[a] = dest.lo[a], interior.lo[a]
	hi.lo[a], hi.hi[a] = interior.hi[a], dest.hi[a]
	return lo, hi
}
