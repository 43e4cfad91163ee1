package core

// AA-pattern in-place streaming (Bailey et al., "Accelerating Lattice
// Boltzmann Fluid Flow Simulations Using Graphics Processors", 2009),
// DESIGN.md §9. One field instead of two: each step pair reads and writes
// the array exactly once per sub-step, halving the f-memory traffic and
// footprint that dominate this bandwidth-bound code.
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
// Bounce-back folds into the transport kernel through the same CSR fixup
// index: a link (y, v) (upwind endpoint y − c_v solid) pulls the cell's
// own reflected slot a[opp(v)](y) + δ instead (conflict-free: that slot's
// star owner is the solid cell, whose scatter is skipped), and after the
// collision pushes a[opp(v)](y) = r_opp(v)(y) + δ — the value compact
// will read as population v. Compact needs no fixup handling at all.
// Solid cells never scatter (their stars overlap fluid pull-fixup reads
// and push-bounce slots); their slots hold deterministic garbage, which
// is why cross-scheme comparisons mask solid cells.
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

// runAA advances the configured number of steps with AA streaming. The
// deep-halo bookkeeping is the same shrinking-box schedule as run(), with
// refreshes restricted to pair starts by the even per-axis depths.
func (cs *cartStepper) runAA() {
	var since [3]int
	for a := range since {
		since[a] = cs.depth[a] // every axis due at step 0
	}
	for step := 0; step < cs.cfg.Steps; step++ {
		var ext [3]int
		for a := 0; a < 3; a++ {
			if step%2 == 0 && since[a] >= cs.depth[a] {
				since[a] = 0
			}
			ext[a] = (cs.depth[a] - since[a]) * cs.k
		}
		b := cs.boxFor(ext)
		if step%2 == 0 {
			cs.fillOpenFaces()
			var stale [3]bool
			for a := 0; a < 3; a++ {
				stale[a] = since[a] == 0
			}
			if stale != ([3]bool{}) {
				cs.refreshAxes(stale)
			}
			if cs.cfg.MeasureForces {
				cs.aaForcePre()
				cs.endForceStep()
			}
			cs.aaTransportBox(b)
			if step+1 < cs.cfg.Steps {
				var extNext [3]int
				for a := 0; a < 3; a++ {
					extNext[a] = ext[a] - cs.k
				}
				cs.aaFixOpenFaces(cs.boxFor(extNext))
			}
		} else {
			if cs.cfg.MeasureForces {
				cs.aaForcePost()
				cs.endForceStep()
			}
			cs.aaCompactBox(b)
		}
		cs.countUpdates(b)
		cs.jitter()
		for a := range since {
			since[a]++
		}
	}
	cs.aaStar = cs.cfg.Steps%2 == 1
}

// aaTransportBox runs the transport sub-step on destination box b.
func (cs *cartStepper) aaTransportBox(b box) {
	t0 := cs.rec.Begin()
	cs.br.run(cs.aaTransport, b)
	cs.rec.End(obs.Interior, t0)
}

// aaCompactBox runs the compact sub-step on destination box b.
func (cs *cartStepper) aaCompactBox(b box) {
	t0 := cs.rec.Begin()
	cs.br.run(cs.aaCompact, b)
	cs.rec.End(obs.Interior, t0)
}

// aaTransportRange is the transport kernel over one chunk: per (x, y)
// row, pull the upwind rows into the in buffers, overwrite pulled-solid
// links from the fixup index, collide into the out buffers, scatter into
// the reversed downwind slots (skipping solid source cells), and push the
// bounce-back slots.
func (cs *cartStepper) aaTransportRange(worker int, b box) {
	sc := cs.scratch[worker]
	// Sparse runs are all-fluid, so the masked-row slow paths of the row
	// body never engage; the per-run fixup segment is the z-sliced view of
	// the row's links, exactly the links the dense full-row pass applies
	// within the run's interval.
	cs.forRuns(b, func(ix, iy, zlo, zhi, base int) {
		cs.aaTransportRow(sc, ix, iy, zlo, zhi, base, cs.solidInRow(base, zhi-zlo))
	})
}

// solidInRow returns the mask of a dense row's zn cells from field offset
// base when any of them is solid, else nil (as for every sparse run).
func (cs *cartStepper) solidInRow(base, zn int) []bool {
	if cs.mask == nil || cs.runStart != nil {
		return nil
	}
	row := cs.mask[base : base+zn]
	for _, s := range row {
		if s {
			return row
		}
	}
	return nil
}

// aaTransportRow is the transport body for one row's z-interval
// [zlo, zhi), whose own cells start at field offset base. msk, when
// non-nil, flags the interval's solid cells (msk[z-zlo]); sparse runs
// pass nil — they carry no solid cells. Under the run index the gather
// and the scatter are clipped to the cells their rows store: an upwind
// source without storage is a fixup link, overwritten below, and a
// downwind slot without storage belongs to a solid cell nobody reads.
func (cs *cartStepper) aaTransportRow(sc *workerScratch, ix, iy, zlo, zhi, base int, msk []bool) {
	m := cs.model
	zn := zhi - zlo
	in, out := sc.gathered(zn)
	// Masked z positions are skipped in the gather, not just the
	// scatter: a solid cell's star slots are concurrently written by
	// its fluid neighbours' push-bounce, and its own pulled values
	// are discarded anyway.
	for v := 0; v < m.Q; v++ {
		src := cs.f.V(v)
		if msk == nil {
			cs.pull(in[v], src, ix-m.Cx[v], iy-m.Cy[v], zlo-m.Cz[v])
			continue
		}
		off := cs.d.Index(ix-m.Cx[v], iy-m.Cy[v], zlo-m.Cz[v])
		iv := in[v]
		for z := 0; z < zn; z++ {
			if msk[z] {
				iv[z] = 0
				continue
			}
			iv[z] = src[off+z]
		}
	}
	var seg []fixup
	if !cs.fix.empty() {
		seg = cs.fix.rowLinks(ix*cs.d.NY+iy, zlo, zhi)
		for _, fx := range seg {
			in[fx.v][int(fx.cell)-base] = cs.f.V(int(fx.opp))[fx.cell] + fx.delta
		}
	}
	cs.relax(sc, in, out, zn)
	cs.aaSpongeRow(sc, out, ix, iy, zlo, zn)
	for v := 0; v < m.Q; v++ {
		dst := cs.f.V(m.Opp[v])
		if msk == nil {
			cs.push(dst, ix+m.Cx[v], iy+m.Cy[v], zlo+m.Cz[v], out[v])
			continue
		}
		off := cs.d.Index(ix+m.Cx[v], iy+m.Cy[v], zlo+m.Cz[v])
		ov := out[v]
		for z := 0; z < zn; z++ {
			if msk[z] {
				continue
			}
			dst[off+z] = ov[z]
		}
	}
	for _, fx := range seg {
		cs.f.V(int(fx.opp))[fx.cell] = out[fx.opp][int(fx.cell)-base] + fx.delta
	}
}

// aaCompactRange is the compact kernel over one chunk: per (x, y) row,
// read the cell's own slots reversed, collide, write back in normal
// arrangement (skipping solid cells). Entirely cell-local.
func (cs *cartStepper) aaCompactRange(worker int, b box) {
	sc := cs.scratch[worker]
	cs.forRuns(b, func(ix, iy, zlo, zhi, base int) {
		cs.aaCompactRow(sc, ix, iy, zlo, zhi, base, cs.solidInRow(base, zhi-zlo))
	})
}

// aaCompactRow is the compact body for one row's z-interval [zlo, zhi);
// base and msk as in aaTransportRow.
func (cs *cartStepper) aaCompactRow(sc *workerScratch, ix, iy, zlo, zhi, base int, msk []bool) {
	m := cs.model
	zn := zhi - zlo
	in, out := sc.gathered(zn)
	for v := 0; v < m.Q; v++ {
		copy(in[v], cs.f.V(m.Opp[v])[base:base+zn])
	}
	cs.relax(sc, in, out, zn)
	cs.aaSpongeRow(sc, out, ix, iy, zlo, zn)
	for v := 0; v < m.Q; v++ {
		dst := cs.f.V(v)
		if msk == nil {
			copy(dst[base:base+zn], out[v])
			continue
		}
		ov := out[v]
		for z := 0; z < zn; z++ {
			if msk[z] {
				continue
			}
			dst[base+z] = ov[z]
		}
	}
}

// aaSpongeRow applies the sponge blend to a collided out-row before it is
// scattered (transport) or written back (compact) — the same point in the
// update as the two-grid post-collide spongeBox pass, via the same
// applySpongeRow arithmetic, so the schemes stay bit-identical. Masked
// cells are skipped inside applySpongeRow.
func (cs *cartStepper) aaSpongeRow(sc *workerScratch, out [][]float64, ix, iy, zlo, zn int) {
	if !cs.hasSponge {
		return
	}
	sig := sc.sig[:zn]
	if !cs.spongeSig(sig, ix, iy, zlo, zn) {
		return
	}
	var msk []bool
	if cs.mask != nil {
		base := cs.d.Index(ix, iy, zlo) // the mask is dense in every address space
		msk = cs.mask[base : base+zn]
	}
	applySpongeRow(cs.model, sc.fc, out, sig, msk, zn)
}

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
	for _, fx := range cs.fix.rowLinks(ix*cs.d.NY+iy, iz, iz+1) {
		if int(fx.v) == m.Opp[v] {
			return cs.f.V(v)[fx.cell] - fx.delta
		}
	}
	panic("core: star population has neither a slot nor a bounce-back link")
}

// aaForcePre accumulates the even sub-step's momentum-exchange forces
// before transport, from the pair-start normal-arranged state — exactly
// the pre-stream values the two-grid applyBoxForce reads, in one global
// CSR order (serial, hence thread- and chunk-invariant).
func (cs *cartStepper) aaForcePre() {
	if cs.fix.empty() {
		return
	}
	t0 := cs.rec.Begin()
	defer cs.rec.End(obs.Force, t0)
	fi := cs.fix
	cells := cs.f.D.Cells()
	fd := cs.f.Data
	for _, fx := range fi.links {
		if fx.flags&fixOwned == 0 {
			continue
		}
		fo := fd[int(fx.opp)*cells+int(fx.cell)]
		body := bodyFaces
		if fx.flags&fixObstacle != 0 {
			body = bodyObstacle
		}
		p := 2*fo + fx.delta
		cs.stepForce[body][0] += fi.cxo[fx.v] * p
		cs.stepForce[body][1] += fi.cyo[fx.v] * p
		cs.stepForce[body][2] += fi.czo[fx.v] * p
	}
}

// aaForcePost accumulates the odd sub-step's forces before compact. The
// pushed slot holds r_opp + δ, so the two-grid quantity 2·r_opp + δ is
// recovered as 2·(slot − δ) + δ (equal up to one rounding when δ ≠ 0 —
// force series cross-scheme checks use tolerances, not bit equality).
func (cs *cartStepper) aaForcePost() {
	if cs.fix.empty() {
		return
	}
	t0 := cs.rec.Begin()
	defer cs.rec.End(obs.Force, t0)
	fi := cs.fix
	cells := cs.f.D.Cells()
	fd := cs.f.Data
	for _, fx := range fi.links {
		if fx.flags&fixOwned == 0 {
			continue
		}
		s := fd[int(fx.opp)*cells+int(fx.cell)]
		body := bodyFaces
		if fx.flags&fixObstacle != 0 {
			body = bodyObstacle
		}
		p := 2*(s-fx.delta) + fx.delta
		cs.stepForce[body][0] += fi.cxo[fx.v] * p
		cs.stepForce[body][1] += fi.cyo[fx.v] * p
		cs.stepForce[body][2] += fi.czo[fx.v] * p
	}
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
				if cs.mask != nil && cs.mask[cs.d.Index(i0, i1, i2)] {
					continue
				}
				yOff, _ := cs.cell(i0, i1, i2)
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
					if cs.mask != nil && cs.mask[cs.d.Index(g[0], g[1], g[2])] {
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
// transverse column a consumer in cb can reference, mirroring
// fillPressureLayer's arithmetic on the star-arranged post-transport
// state: gather r(o) from the owned-edge cell's star, re-anchor its
// equilibrium at unit density.
func (cs *cartStepper) aaFillColumns(axis, src, t1, t2 int, cb box) {
	m := cs.model
	dims := [3]int{cs.d.NX, cs.d.NY, cs.d.NZ}
	if cs.aaFill == nil {
		cs.aaFill = make([]float64, dims[t1]*dims[t2]*m.Q)
		cs.aaFc = make([]float64, m.Q)
		cs.aaFeqR = make([]float64, m.Q)
		cs.aaFeq1 = make([]float64, m.Q)
	}
	fc, feqR, feq1 := cs.aaFc, cs.aaFeqR, cs.aaFeq1
	lo1, hi1 := cb.lo[t1]-cs.k, cb.hi[t1]+cs.k
	lo2, hi2 := cb.lo[t2]-cs.k, cb.hi[t2]+cs.k
	for i1 := lo1; i1 < hi1; i1++ {
		for i2 := lo2; i2 < hi2; i2++ {
			var o [3]int
			o[axis], o[t1], o[t2] = src, i1, i2
			if _, ok := cs.cell(o[0], o[1], o[2]); !ok {
				continue // a solid column under the run index: no consumer reads its fill
			}
			for v := 0; v < m.Q; v++ {
				fc[v] = cs.starPop(v, o[0], o[1], o[2])
			}
			rho, jx, jy, jz := m.Moments(fc)
			ux, uy, uz := jx/rho, jy/rho, jz/rho
			m.Equilibrium(rho, ux, uy, uz, feqR)
			m.Equilibrium(1, ux, uy, uz, feq1)
			base := (i1*dims[t2] + i2) * m.Q
			for v := 0; v < m.Q; v++ {
				cs.aaFill[base+v] = fc[v] + feq1[v] - feqR[v]
			}
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

// AABytesPerCell is the per-step f-traffic of the AA scheme: one read and
// one write of the single field per sub-step — half the two-grid figure
// (see FusedBytesPerCell, which AA matches by construction).
func AABytesPerCell(q int) int { return 2 * 8 * q }
