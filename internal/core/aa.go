package core

// AA-pattern in-place streaming (Bailey et al., "Accelerating Lattice
// Boltzmann Fluid Flow Simulations Using Graphics Processors", 2009),
// DESIGN.md §9. One field instead of two: each step pair reads and writes
// the array exactly once per sub-step, halving the f-memory traffic and
// footprint that dominate this bandwidth-bound code. The sub-steps are the
// gather sweep's two AA arrangements (gather.go); what is AA's alone lives
// here — reading a population back out of the star arrangement, and
// replaying the odd step's open-face refill into it.
//
// Convention, matched to this codebase's step (pull-stream → collide):
//
//   - transport (even sub-step): cell y pulls population v from the
//     upwind normal slot a[v](y − c_v), collides, and pushes result r_v
//     into the *reversed* downwind slot a[opp(v)](y + c_v). The read set
//     {(v, y−c_v)} and write set {(opp(v), y+c_v)} are the same exclusive
//     slot star — slot (m, u) belongs to cell u + c_m alone — so rows
//     never race and the worker pool stays bit-exact at any chunking
//     (the §8 row-independence contract).
//
//   - compact (odd sub-step): cell y reads its own slots reversed
//     (population v from a[opp(v)](y)), collides, writes them back in
//     normal arrangement. Purely cell-local. After compact the array is
//     bit-identical to the two-grid f, which is why halo exchanges happen
//     only at pair boundaries and the existing pack/unpack maps apply
//     unchanged — no parity-dependent exchanger needed. Per-axis depths
//     round up to even (aaDepths) to make the refresh cadence land there.
//
// Bounce-back rides the transport through the same CSR fixup index as
// every other path: a link (y, v) (upwind endpoint y − c_v solid) pulls
// the cell's own reflected slot a[opp(v)](y) + δ instead, and after the
// collision pushes a[opp(v)](y) = r_opp(v)(y) + δ — the value compact will
// read as population v. Compact needs no fixup handling at all. Solid
// cells never gather or scatter (their stars are their fluid neighbours'
// pull-fixup reads and push-bounce slots): under the run index they have
// no storage, on dense fields their slots hold deterministic garbage,
// which is why cross-scheme comparisons mask solid cells.
//
// Open faces (outflow / pressure outlet) are refilled by fillOpenFaces at
// every pair start exactly like the two-grid path; the odd step's refill
// is emulated by aaFixOpenFaces, a serial pass between transport and
// compact that overwrites the pushed slots of every compact-box consumer
// whose upwind source lies beyond the face plane with the fill value the
// two-grid path would have streamed (a function of the source's
// transverse column only). Limitation: one open-bounded axis at a time —
// corner fills of two open axes are fill-of-fill in the two-grid path,
// which the slot algebra cannot reproduce cheaply (config-level check in
// core.go). The GC-C message overlap is also not scheduled under AA
// (refreshes are synchronous at pair starts); a follow-on can overlap the
// pair-start exchange with the previous compact's interior.

import (
	"repro/internal/halo"
	"repro/internal/obs"
)

// starPop returns population v of cell (ix, iy, iz) while the field is in
// star arrangement (after a transport sub-step): the reversed downwind
// slot (opp(v), y + c_v) the cell's own transport pushed. When that slot
// has no storage — y + c_v is solid, under the run index — the population
// was bounced instead: (y, opp(v)) is a fixup link, and the push-bounce
// left r_v + δ in the cell's own slot (v, y).
func (cs *cartStepper) starPop(v, ix, iy, iz int) float64 {
	m := cs.model
	if off, ok := cs.cell(ix+m.Cx[v], iy+m.Cy[v], iz+m.Cz[v]); ok {
		return cs.f.V(m.Opp[v])[off]
	}
	if c, ok := cs.cell(ix, iy, iz); ok {
		for _, fx := range cs.fix.rowLinks(ix*cs.d.NY+iy, c, c+1) {
			if int(fx.v) == m.Opp[v] {
				return cs.f.V(v)[fx.cell] - fx.delta
			}
		}
	}
	panic("core: star population has neither a slot nor a bounce-back link")
}

// aaFixOpenFaces emulates the odd step's open-face ghost refill: for
// every cell y of the upcoming compact box bc whose upwind source
// g = y − c_v lies beyond an open face plane, the pushed slot
// (opp(v), y) is overwritten with the fill value the two-grid path would
// have refilled into g and streamed — the zero-gradient copy (outflow) or
// the unit-density non-equilibrium extrapolation (pressure outlet) of the
// outermost owned layer's post-transport state, a function of the
// source's transverse column only. Serial and alias-free: every written
// slot's star owner is a ghost cell, so neither compact consumers beyond
// bc nor the odd-final recovery (which reads owned stars only) see it.
func (cs *cartStepper) aaFixOpenFaces(bc box) {
	if cs.spec == nil {
		return
	}
	for axis := 0; axis < 3; axis++ {
		for side := 0; side < 2; side++ {
			if cs.ex.Neighbors[axis][side] == halo.NoNeighbor && openFace(cs.spec.Faces[axis][side].Kind) {
				t0 := cs.rec.Begin()
				cs.aaFixOpenFace(axis, side, bc)
				cs.rec.EndAxis(obs.Face, axis, t0)
			}
		}
	}
}

func (cs *cartStepper) aaFixOpenFace(axis, side int, bc box) {
	m := cs.model
	face := &cs.spec.Faces[axis][side]
	src := cs.w[axis] // outermost owned layer
	if side == 1 {
		src = cs.w[axis] + cs.own[axis] - 1
	}
	// Consumers with a crossing source sit within k of the face plane, on
	// the domain side (deeper open-axis ghosts are refilled before anything
	// reads them).
	cb := bc
	if side == 0 {
		if cb.lo[axis] < cs.w[axis] {
			cb.lo[axis] = cs.w[axis]
		}
		if cb.hi[axis] > cs.w[axis]+cs.k {
			cb.hi[axis] = cs.w[axis] + cs.k
		}
	} else {
		edge := cs.w[axis] + cs.own[axis]
		if cb.hi[axis] > edge {
			cb.hi[axis] = edge
		}
		if cb.lo[axis] < edge-cs.k {
			cb.lo[axis] = edge - cs.k
		}
	}
	if cb.cells() == 0 {
		return
	}
	pressure := face.Kind == BCPressureOutlet
	t1, t2 := transverseAxes(axis)
	dims := [3]int{cs.d.NX, cs.d.NY, cs.d.NZ}
	if pressure {
		cs.aaFillColumns(axis, src, t1, t2, cb)
	}
	cv := [3][]int{m.Cx, m.Cy, m.Cz}
	for i0 := cb.lo[0]; i0 < cb.hi[0]; i0++ {
		for i1 := cb.lo[1]; i1 < cb.hi[1]; i1++ {
			for i2 := cb.lo[2]; i2 < cb.hi[2]; i2++ {
				y := [3]int{i0, i1, i2}
				yOff, ok := cs.fluidCell(i0, i1, i2)
				if !ok {
					continue
				}
				for v := 0; v < m.Q; v++ {
					ga := y[axis] - cv[axis][v]
					if side == 0 {
						if ga >= cs.w[axis] {
							continue
						}
					} else if ga < cs.w[axis]+cs.own[axis] {
						continue
					}
					g := [3]int{y[0] - m.Cx[v], y[1] - m.Cy[v], y[2] - m.Cz[v]}
					if _, ok := cs.fluidCell(g[0], g[1], g[2]); !ok {
						continue // bounce-back link; the push already handled it
					}
					var val float64
					if pressure {
						val = cs.aaFill[(g[t1]*dims[t2]+g[t2])*m.Q+v]
					} else {
						// Zero-gradient: fill_v(g) = r_v(o), read from the
						// star of the source column's owned-edge cell.
						o := g
						o[axis] = src
						val = cs.starPop(v, o[0], o[1], o[2])
					}
					cs.f.V(m.Opp[v])[yOff] = val
				}
			}
		}
	}
}

// aaFillColumns computes the pressure-outlet fill values of every
// transverse column a consumer in cb can reference: fillPressureLayer's
// arithmetic on the star-arranged post-transport state — gather r(o) from
// the owned-edge cell's star, re-anchor it at unit density.
func (cs *cartStepper) aaFillColumns(axis, src, t1, t2 int, cb box) {
	m := cs.model
	dims := [3]int{cs.d.NX, cs.d.NY, cs.d.NZ}
	if cs.aaFill == nil {
		cs.aaFill = make([]float64, dims[t1]*dims[t2]*m.Q)
	}
	fc := cs.faceFc
	lo1, hi1 := cb.lo[t1]-cs.k, cb.hi[t1]+cs.k
	lo2, hi2 := cb.lo[t2]-cs.k, cb.hi[t2]+cs.k
	for i1 := lo1; i1 < hi1; i1++ {
		for i2 := lo2; i2 < hi2; i2++ {
			var o [3]int
			o[axis], o[t1], o[t2] = src, i1, i2
			if _, ok := cs.cell(o[0], o[1], o[2]); !ok {
				continue // a solid column under the run index: no consumer reads its fill
			}
			for v := range fc {
				fc[v] = cs.starPop(v, o[0], o[1], o[2])
			}
			cs.reanchor(fc)
			copy(cs.aaFill[(i1*dims[t2]+i2)*m.Q:], fc)
		}
	}
}

// transverseAxes returns the two non-axis axes in increasing order.
func transverseAxes(axis int) (int, int) {
	switch axis {
	case 0:
		return 1, 2
	case 1:
		return 0, 2
	default:
		return 0, 1
	}
}
