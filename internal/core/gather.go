package core

// The row body: every path advances a step span by span through
// gatherSpan — read a span's streamed populations, apply its bounce-back
// links, relax it with the configuration's row kernel (collide.go), blend
// in the sponge, write it back. A span is a run of consecutive rows whose
// cells lie back to back in the field (the full z rows of an x-plane, the
// fluid runs the run index stores one after another), so the row kernel's
// fixed cost is paid once per span instead of once per row; what really
// belongs to a row — its upwind read, its links, its sponge factors, AA's
// scatter — loops over the span's rows. The paths differ only in where the
// streamed span comes from and where the result goes; there are four read
// sources:
//
//   - split (every rung below SIMD, Orig included), two fields: the rung's
//     stream kernel fills fadv a block of rows ahead (streamRows; Orig: the
//     whole box), and the row body relaxes those spans in place, as views
//     of fadv.
//
//   - the gather sweep (the SIMD rung; Config.Fused below it), two fields:
//     next[x] = collide(gather prev[x−c]) into fadv, one read and one write
//     of the field per step instead of the split path's stream write plus
//     relax read-modify-write — 2·Q·8 = 304 (D3Q19) / 624 (D3Q39) bytes per
//     cell instead of 456 / 936, the paper's future-work direction (§VII:
//     "reduce the memory accesses per lattice update"). That holds on the
//     SIMD rung, whose relax primitives store fadv with streaming stores
//     (simdStreamRows, rows_amd64.go). An ordinary store first reads the
//     line it overwrites (write-allocate), so the sweep on the Go bodies
//     (Config.Fused below SIMD, or a host without AVX2) still moves 456 /
//     936. Nothing writes prev during the sweep, so a velocity whose upwind
//     rows are plain slices of it, back to back, is relaxed from that one
//     view in place.
//
//   - AA's even sub-step (Config.Stream = StreamAA, aa.go, DESIGN.md §9),
//     one field: the same upwind rows, each row's result scattered into the
//     reversed downwind slots;
//
//   - AA's odd sub-step: the cells' own slots, reversed, written back in
//     normal arrangement.
//
// On two fields the fields swap when the step is done, whichever source.
//
// On the SIMD rung the upwind read — the two-field sweep and AA's even
// sub-step — on dense fields also fills the worker's prefetch table
// (rowBufs.ahead): per velocity, the address in f of the upwind row of the
// row the next span starts on (nextRow), which the moment pass prefetches
// while it accumulates this span (rows_amd64.go), so the next span's
// sources arrive spread over this span's arithmetic instead of stalling
// its reads. The address is
// the upwind row in f for a rotated row too, not the scratch row it is
// copied into: the copy is what would stall. A prefetch never faults, so
// the address of the box's last span may point past a velocity block.
// Under the run index (spans of runs, not a fixed stride), on AA's odd
// sub-step, on the split path and below SIMD the table stays empty.
// Links, relax and sponge are one piece of code for all four, and the row
// kernels treat every z alone (the §8 row contract), so how rows are
// grouped into spans changes no bit: every path stays bit-identical.

import "unsafe"

// spanCells caps the cells of a span: past a few hundred cells the row
// kernel's set-up is paid off and longer spans only spill the worker's
// scratch rows out of cache. A row longer than the cap is a span of its
// own, so the scratch holds max(NZ, spanCells) cells.
const spanCells = 384

// testOneRowSpans, when set by a test in this package, ends every span
// after its first row: the row-by-row relaxation that spans must match
// bit for bit.
var testOneRowSpans bool

// testNoAhead, when set by a test in this package, leaves the prefetch
// table empty on every span: the sweep without the moment pass's
// prefetches, for benchmarks that price them.
var testNoAhead bool

// spanRow is one row of a span: the cells z ∈ [zlo, zlo+zn) of row
// (ix, iy), stored at field offsets [base, base+zn).
type spanRow struct {
	ix, iy, zlo, zn, base int
}

// gatherRows is the row body's chunk kernel: it gathers the chunk's rows —
// full box rows dense, fluid runs under the run index — into spans and
// advances each through gatherSpan. A row joins the open span when its
// cells continue the span's in the field and the span stays within the
// scratch; a span never leaves its chunk. AA on dense masked fields cuts
// each row into its fluid intervals as well: a solid cell's slot star is
// where its fluid neighbours keep their bounced populations, so solid
// cells may neither gather nor scatter. (Two-field rows stay whole — the
// next field has room for what a solid cell computes, and a wrap-axis row
// rotates only as a whole.)
func (cs *cartStepper) gatherRows(worker int, b box) {
	sc := cs.scratch[worker]
	cut := cs.aa && cs.mask != nil && cs.runStart == nil
	add := func(ix, iy, zlo, zhi, base int) {
		if n := len(sc.span); n > 0 {
			last := sc.span[n-1]
			if testOneRowSpans || last.base+last.zn != base || base+zhi-zlo-sc.span[0].base > sc.nzCap {
				cs.gatherSpan(sc)
			}
		}
		sc.span = append(sc.span, spanRow{ix: ix, iy: iy, zlo: zlo, zn: zhi - zlo, base: base})
	}
	cs.forRuns(b, func(ix, iy, zlo, zhi, base int) {
		if !cut {
			add(ix, iy, zlo, zhi, base)
			return
		}
		fluidRuns(cs.mask[base:base+zhi-zlo], func(lo, hi int) {
			add(ix, iy, zlo+lo, zlo+hi, base+lo)
		})
	})
	if len(sc.span) > 0 {
		cs.gatherSpan(sc)
	}
}

// gatherSpan advances the worker's open span (sc.span) by one step and
// closes it. Read: the streamed cells of fadv (split), each velocity's
// upwind rows (upwindSpan), or — the field in star arrangement, AA's odd
// sub-step — the cells' own reversed slots; the first two with the rows'
// bounce-back links applied. Write: the same cells of fadv in place
// (split), the cells of the next state (fadv on the sweep, the field
// itself on AA's odd sub-step), or — AA's even sub-step — each row's
// reversed downwind slots.
func (cs *cartStepper) gatherSpan(sc *workerScratch) {
	m := cs.model
	rows := sc.span
	sc.span = rows[:0]
	base := rows[0].base
	zn := rows[len(rows)-1].base + rows[len(rows)-1].zn - base
	split := !cs.gathers
	scatter := cs.aa && !cs.aaStar
	links := !cs.aaStar && !cs.fix.empty()
	ahead := sc.rb.ahead[:0]
	var in [][]float64
	switch {
	case split:
		in = rowViews(sc.sv, cs.fadv, base, zn)
	case cs.aaStar:
		in = sc.gathered(zn)
		for v := range in {
			copy(in[v], cs.f.V(m.Opp[v])[base:base+zn])
		}
	default:
		in = sc.gathered(zn)
		fill := cs.vec != nil && cs.runStart == nil && !testNoAhead
		next := cs.nextRow(rows[len(rows)-1])
		for v := range in {
			in[v] = cs.upwindSpan(in[v], v, rows)
			if fill {
				src := cs.f.V(v)
				ahead = append(ahead, uintptr(unsafe.Pointer(unsafe.SliceData(src)))+uintptr(cs.upwindOff(v, next))*8)
			}
		}
	}
	sc.rb.ahead = ahead
	if links {
		// A population whose upwind cell is solid — pulled out of it, or
		// under the run index not pulled at all — is a bounce-back link of
		// its row: the cell's own opposite pre-stream population (+ δ)
		// takes its place. On the sweep a velocity read in place is copied
		// into the worker's own slot first (the split path's rows are
		// fadv's, and writable). Under AA that slot's star owner is the
		// solid cell, which never scatters, so the read is conflict-free.
		fd, cells := cs.f.Data, cs.f.D.Cells()
		for _, r := range rows {
			for _, fx := range cs.fix.rowLinks(r.ix*cs.d.NY+r.iy, r.base, r.base+r.zn) {
				if !split {
					if slot := sc.ginSt[int(fx.v)*sc.nzCap:][:zn]; &in[fx.v][0] != &slot[0] {
						copy(slot, in[fx.v])
						in[fx.v] = slot
					}
				}
				in[fx.v][int(fx.cell)-base] = fd[int(fx.opp)*cells+int(fx.cell)] + fx.delta
			}
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
		sig, blend := sc.sig[:zn], false
		for _, r := range rows {
			if s := sig[r.base-base:][:r.zn]; cs.spongeSig(s, r.ix, r.iy, r.zlo, r.zn) {
				blend = true
			} else {
				clear(s)
			}
		}
		if blend {
			applySpongeRow(m, sc.fc, out, sig, zn)
		}
	}
	if !scatter {
		return
	}
	// Result r_v goes to the reversed downwind slot (opp(v), y + c_v), which
	// belongs to this cell's star alone; a slot without storage belongs to a
	// solid cell nobody reads. A link's population bounces instead: slot
	// (opp(v), y) takes r_opp(v) + δ, the value the odd sub-step reads back
	// as population v. Stars are disjoint, so that the span read all its
	// rows before any of them writes changes nothing.
	for _, r := range rows {
		o := r.base - base
		for v := range out {
			cs.push(cs.f.V(m.Opp[v]), r.ix+m.Cx[v], r.iy+m.Cy[v], r.zlo+m.Cz[v], out[v][o:o+r.zn])
		}
		if !links {
			continue
		}
		for _, fx := range cs.fix.rowLinks(r.ix*cs.d.NY+r.iy, r.base, r.base+r.zn) {
			cs.f.V(int(fx.opp))[fx.cell] = out[fx.opp][int(fx.cell)-base] + fx.delta
		}
	}
}

// upwindSpan returns the values population v streams into the cells of
// the span rows: with cs.views, when every row's upwind read is a slice of
// f and those slices lie back to back, one view of f itself; otherwise
// dst, each row's slice filled by upwindRow.
func (cs *cartStepper) upwindSpan(dst []float64, v int, rows []spanRow) []float64 {
	if cs.views && cs.runStart == nil && (cs.w[2] != 0 || cs.model.Cz[v] == 0) {
		lo := cs.upwindOff(v, rows[0])
		hi := lo
		for _, r := range rows {
			if cs.upwindOff(v, r) != hi {
				break
			}
			hi += r.zn
		}
		if hi-lo == len(dst) {
			return cs.f.V(v)[lo:hi]
		}
	}
	base := rows[0].base
	for _, r := range rows {
		cs.upwindRow(dst[r.base-base:][:r.zn], v, r.ix, r.iy, r.zlo)
	}
	return dst
}

// upwindOff returns the offset in velocity block v of a dense field at
// which row r's upwind cells start, on an axis whose z needs no rotation.
func (cs *cartStepper) upwindOff(v int, r spanRow) int {
	m := cs.model
	return (r.ix-m.Cx[v])*cs.d.PlaneCells() + int(cs.srcY[v][r.iy])*cs.d.NZ + r.zlo - m.Cz[v]
}

// nextRow returns the row after r in a dense field's storage order, over
// r's z range: the row the span after a span ending on r starts on. Past
// the last row of an x-plane it is the next plane's first row; at the
// edge of a box whose rows skip ghost rows the next span starts further
// on, and the prefetch only fetches a line nobody reads.
func (cs *cartStepper) nextRow(r spanRow) spanRow {
	r.iy++
	if r.iy == cs.d.NY {
		r.ix, r.iy = r.ix+1, 0
	}
	r.base += cs.d.NZ
	return r
}

// upwindRow fills dst with the values population v streams into row
// (ix, iy) at z ∈ [zlo, zlo+len(dst)) — what the rung's stream kernel
// would have moved there. Under the run index that is pull, clipped to the
// cells the source row stores; dense it is the offset copy of
// streamCopyIndexed (srcY row, zShift, both wrapping on an axis without
// ghosts).
func (cs *cartStepper) upwindRow(dst []float64, v, ix, iy, zlo int) {
	m := cs.model
	if cs.runStart != nil {
		cs.pull(dst, cs.f.V(v), ix-m.Cx[v], iy-m.Cy[v], zlo-m.Cz[v])
		return
	}
	nz := cs.d.NZ
	off := (ix-m.Cx[v])*cs.d.PlaneCells() + int(cs.srcY[v][iy])*nz
	zShift(dst, cs.f.V(v)[off:off+nz], zlo, m.Cz[v], cs.w[2] == 0)
}
