package core

// The row body: every path advances a step row by row through gatherRow —
// read a row's streamed populations, apply its bounce-back links, relax it
// with the configuration's row kernel (collide.go), blend in the sponge,
// write it back. The paths differ only in where the streamed row comes
// from and where the result goes; there are four read sources:
//
//   - split (every rung below SIMD, Orig included), two fields: the rung's
//     stream kernel (stream.go, orig.go) has already filled fadv, and the
//     row body relaxes those rows in place — views of fadv on SoA, rows
//     transposed out of it and back on AoS (Orig/GC layout ablation only).
//
//   - the gather sweep (the SIMD rung; Config.Fused below it), two fields:
//     next[x] = collide(gather prev[x−c]) into fadv, one read and one write
//     of the field per step instead of the split path's stream write plus
//     relax read-modify-write — 2·Q·8 = 304 (D3Q19) / 624 (D3Q39) bytes per
//     cell instead of 456 / 936, the paper's future-work direction (§VII:
//     "reduce the memory accesses per lattice update"). Nothing writes prev
//     during the sweep, so upwind rows that are plain slices of it are
//     relaxed in place.
//
//   - AA's even sub-step (Config.Stream = StreamAA, aa.go, DESIGN.md §9),
//     one field: the same upwind rows, each result scattered into the
//     reversed downwind slot;
//
//   - AA's odd sub-step: the cells' own slots, reversed, written back in
//     normal arrangement.
//
// On two fields the fields swap when the step is done, whichever source.
// Links, relax and sponge are one piece of code for all four, which is
// what keeps every path bit-identical.

import "repro/internal/grid"

// gatherRows is the row body's chunk kernel: gatherRow over every row of
// the chunk — full box rows dense, fluid runs under the run index. AA on
// dense masked fields cuts each row into its fluid intervals as well: a
// solid cell's slot star is where its fluid neighbours keep their bounced
// populations, so solid cells may neither gather nor scatter. (Two-field
// rows stay whole — the next field has room for what a solid cell
// computes, and a wrap-axis row rotates only as a whole.)
func (cs *cartStepper) gatherRows(worker int, b box) {
	sc := cs.scratch[worker]
	cut := cs.aa && cs.mask != nil && cs.runStart == nil
	cs.forRuns(b, func(ix, iy, zlo, zhi, base int) {
		if !cut {
			cs.gatherRow(sc, ix, iy, zlo, zhi, base)
			return
		}
		fluidRuns(cs.mask[base:base+zhi-zlo], func(lo, hi int) {
			cs.gatherRow(sc, ix, iy, zlo+lo, zlo+hi, base+lo)
		})
	})
}

// gatherRow advances the cells z ∈ [zlo, zhi) of row (ix, iy), stored from
// field offset base, by one step. Read: the streamed rows of fadv (split),
// the upwind rows (upwindRow), or — the field in star arrangement, AA's
// odd sub-step — the cells' own reversed slots; the first two with the
// row's bounce-back links applied. Write: the same rows of fadv in place
// (split), the cells' own row of the next state (fadv on the sweep, the
// field itself on AA's odd sub-step), or — AA's even sub-step — the
// reversed downwind slots.
func (cs *cartStepper) gatherRow(sc *workerScratch, ix, iy, zlo, zhi, base int) {
	m := cs.model
	zn := zhi - zlo
	split, aos := !cs.gathers, cs.f.Layout != grid.SoA
	scatter := cs.aa && !cs.aaStar
	var in [][]float64
	switch {
	case split && aos:
		in = sc.gathered(zn)
		aosToRows(in, cs.fadv.Data[base*m.Q:], zn)
	case split:
		in = rowViews(sc.sv, cs.fadv, base, zn)
	case cs.aaStar:
		in = sc.gathered(zn)
		for v := range in {
			copy(in[v], cs.f.V(m.Opp[v])[base:base+zn])
		}
	default:
		in = sc.gathered(zn)
		for v := range in {
			in[v] = cs.upwindRow(in[v], v, ix, iy, zlo)
		}
	}
	var links []fixup
	if !cs.aaStar && !cs.fix.empty() {
		// A population whose upwind cell is solid — pulled out of it, or
		// under the run index not pulled at all — is a bounce-back link of
		// the row: the cell's own opposite pre-stream population (+ δ)
		// takes its place. On the sweep a row read in place is copied into
		// the worker's own slot first (the split path's rows are fadv's,
		// and writable). Under AA that slot's star owner is the solid cell,
		// which never scatters, so the read is conflict-free.
		links = cs.fix.rowLinks(ix*cs.d.NY+iy, base, base+zn)
		if !split {
			for _, fx := range links {
				if slot := sc.ginSt[int(fx.v)*sc.nzCap:][:zn]; &in[fx.v][0] != &slot[0] {
					copy(slot, in[fx.v])
					in[fx.v] = slot
				}
			}
		}
		fd, vs, cst := cs.f.Data, cs.f.Idx(1, 0), cs.f.Idx(0, 1)
		for _, fx := range links {
			in[fx.v][int(fx.cell)-base] = fd[int(fx.opp)*vs+int(fx.cell)*cst] + fx.delta
		}
	}
	var out [][]float64
	switch {
	case split:
		out = in
	case scatter:
		out = sc.scattered(zn)
	case cs.aa:
		out = rowViews(sc.dv, cs.f, base, zn)
	default:
		out = rowViews(sc.dv, cs.fadv, base, zn)
	}
	cs.relax(sc, in, out, zn)
	if cs.hasSponge {
		if sig := sc.sig[:zn]; cs.spongeSig(sig, ix, iy, zlo, zn) {
			applySpongeRow(m, sc.fc, out, sig, zn)
		}
	}
	if split && aos {
		rowsToAoS(cs.fadv.Data[base*m.Q:], out, zn)
	}
	if !scatter {
		return
	}
	// Result r_v goes to the reversed downwind slot (opp(v), y + c_v), which
	// belongs to this cell's star alone; a slot without storage belongs to a
	// solid cell nobody reads. A link's population bounces instead: slot
	// (opp(v), y) takes r_opp(v) + δ, the value the odd sub-step reads back
	// as population v.
	for v := range out {
		cs.push(cs.f.V(m.Opp[v]), ix+m.Cx[v], iy+m.Cy[v], zlo+m.Cz[v], out[v])
	}
	for _, fx := range links {
		cs.f.V(int(fx.opp))[fx.cell] = out[fx.opp][int(fx.cell)-base] + fx.delta
	}
}

// upwindRow returns the values population v streams into row (ix, iy) at
// z ∈ [zlo, zlo+len(dst)) — what the rung's stream kernel would have moved
// there. Under the run index that is pull into dst, clipped to the cells
// the source row stores; dense it is the offset copy of streamCopyIndexed
// (srcY row, zShift, both wrapping on an axis without ghosts) — or, with
// cs.views and no z rotation needed, the source slice of f itself.
func (cs *cartStepper) upwindRow(dst []float64, v, ix, iy, zlo int) []float64 {
	m := cs.model
	if cs.runStart != nil {
		cs.pull(dst, cs.f.V(v), ix-m.Cx[v], iy-m.Cy[v], zlo-m.Cz[v])
		return dst
	}
	nz, cz, wrap := cs.d.NZ, m.Cz[v], cs.w[2] == 0
	off := (ix-m.Cx[v])*cs.d.PlaneCells() + int(cs.srcY[v][iy])*nz
	srow := cs.f.V(v)[off : off+nz]
	if cs.views && (!wrap || cz == 0) {
		return srow[zlo-cz : zlo-cz+len(dst)]
	}
	zShift(dst, srow, zlo, cz, wrap)
	return dst
}
