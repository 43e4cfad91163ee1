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
// The rims are arranged so the computed region stays a box that grows
// axis by axis: after phase a it spans the full destination range on
// every axis ≤ a and the interior range on the stale axes beyond. Phase
// a's rim therefore needs ghost data of axes ≤ a only — exactly what the
// sequential-axis ride-along exchange has delivered by then.
//
// No kernel writes the pre-stream state mid-step: the split passes stream,
// fix and collide in the other field, the gather sweep writes the next
// state there, and the fields swap when the step is done (AA's one field
// refreshes synchronously and never overlaps). A box may therefore be
// computed as soon as its inputs are valid, late packs read an untouched
// state, and one box family serves every path.
//
// planStep is pure geometry — no fields, no communication — which is what
// lets one scheduler drive the slab (stale = {x}, no ghosts on y and z),
// pencils and blocks (stale = the axes refreshed this step), split and
// gather alike, and what the property tests in schedule_test.go pin: the
// boxes tile the destination exactly and interior inputs avoid stale
// ghosts.

// stepPlan is the interior/rim decomposition of one step's destination box.
type stepPlan struct {
	dest  box
	stale [3]bool

	// interior is the compute-ahead box: destinations whose inputs avoid
	// every stale axis's ghost layers.
	interior box

	// rims[a] holds the two axis-a slabs (0 low side, 1 high side) that
	// complete the computed box along axis a, meaningful only when
	// stale[a]. Empty boxes (hi ≤ lo on the phase axis) occur when the
	// owned extent is too small for an interior on that axis.
	rims [3][2]box
}

// planStep decomposes the destination box dest of a step on a domain with
// per-axis owned extents own and ghost widths w (lattice max speed k)
// into interior and per-axis rim boxes, given which axes are stale.
// With no stale axes the interior is the whole destination box.
func planStep(dest box, own, w [3]int, k int, stale [3]bool) stepPlan {
	p := stepPlan{dest: dest, stale: stale, interior: dest}
	for a := 0; a < 3; a++ {
		if !stale[a] {
			continue
		}
		// Inputs (distance ≤ k) must stay inside the owned range
		// [w, w+own) of a stale axis.
		p.interior.lo[a] = w[a] + k
		p.interior.hi[a] = w[a] + own[a] - k
		if p.interior.hi[a] < p.interior.lo[a] {
			p.interior.hi[a] = p.interior.lo[a]
		}
	}
	// Rim slabs: phase a expands axis a from the interior range to the
	// full destination range. Earlier axes are complete (full range);
	// later stale axes are still at their interior range.
	grown := p.interior
	for a := 0; a < 3; a++ {
		if !stale[a] {
			continue
		}
		p.rims[a][0], p.rims[a][1] = axisRims(grown, dest, a, p.interior)
		grown.lo[a], grown.hi[a] = dest.lo[a], dest.hi[a]
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
