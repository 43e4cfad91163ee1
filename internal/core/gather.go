package core

// The gather sweep: one read and one write of the field per step. The
// paper's future-work direction (§VII: "investigation into methods to
// alter the algorithm as to reduce the memory accesses per lattice update
// could increase the potential hardware efficiency"). Instead of streaming
// f into f_adv (write Q values/cell) and then colliding f_adv in place (read
// Q + write Q), a row's streamed values are gathered into cache-resident
// row buffers and the post-collision values written where the next step
// will read them — 2·Q·8 = 304 (D3Q19) / 624 (D3Q39) bytes per cell
// instead of the split path's 456 / 936, which directly raises the
// roofline of the bandwidth-limited code. Two storage schemes run on the
// one row body (gatherRow):
//
//   - fused (the SIMD rung; Config.Fused below it), two fields: next[x] =
//     collide(gather prev[x−c]) into fadv, the fields swapping after every
//     step as on the split path. Nothing writes prev during the sweep, so
//     upwind rows that are plain slices of it are relaxed in place.
//
//   - AA (Config.Stream = StreamAA, aa.go, DESIGN.md §9), one field: the
//     even sub-step gathers the same upwind rows and scatters each result
//     into the reversed downwind slot; the odd sub-step reads the cell's
//     own slots reversed and writes them back in normal arrangement.
//
// Everything between the read and the write is the same for both, and the
// same as the split path's stream → fixup → collide → sponge at 0 ULP: the
// row's bounce-back links applied to the gathered rows, the
// configuration's row kernel (collide.go), the sponge row.

// gatherRows is the sweep's chunk kernel: gatherRow over every row of the
// chunk — full box rows dense, fluid runs under the run index. AA on dense
// masked fields cuts each row into its fluid intervals as well: a solid
// cell's slot star is where its fluid neighbours keep their bounced
// populations, so solid cells may neither gather nor scatter. (Fused rows
// stay whole — the next field has room for what a solid cell computes, as
// on the split path, and a wrap-axis row rotates only as a whole.)
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
// field offset base, by one step. Read: the upwind rows (upwindRow) with
// the row's bounce-back links applied, or — the field in star arrangement,
// AA's odd sub-step — the cells' own reversed slots. Write: the cells' own
// row of the next state (fadv fused, the field itself on AA's odd
// sub-step), or — AA's even sub-step — the reversed downwind slots.
func (cs *cartStepper) gatherRow(sc *workerScratch, ix, iy, zlo, zhi, base int) {
	m := cs.model
	zn := zhi - zlo
	own := cs.aaStar
	scatter := cs.aa && !own
	in := sc.gathered(zn)
	var links []fixup
	if own {
		for v := range in {
			copy(in[v], cs.f.V(m.Opp[v])[base:base+zn])
		}
	} else {
		for v := range in {
			in[v] = cs.upwindRow(in[v], v, ix, iy, zlo)
		}
		// A population whose upwind cell is solid — pulled out of it, or
		// under the run index not pulled at all — is a bounce-back link of
		// the row: the cell's own opposite pre-stream population (+ δ) takes
		// its place, as applyBox writes it into fadv on the split path. A
		// row read in place is copied into the worker's own slot first.
		// Under AA that slot's star owner is the solid cell, which never
		// scatters, so the read is conflict-free.
		if !cs.fix.empty() {
			links = cs.fix.rowLinks(ix*cs.d.NY+iy, zlo, zhi)
			for _, fx := range links {
				if slot := sc.ginSt[int(fx.v)*sc.nzCap:][:zn]; &in[fx.v][0] != &slot[0] {
					copy(slot, in[fx.v])
					in[fx.v] = slot
				}
				in[fx.v][int(fx.cell)-base] = cs.f.V(int(fx.opp))[fx.cell] + fx.delta
			}
		}
	}
	var out [][]float64
	switch {
	case scatter:
		out = sc.scattered(zn)
	case cs.aa:
		out = rowViews(sc.dv, cs.f, base, zn)
	default:
		out = rowViews(sc.dv, cs.fadv, base, zn)
	}
	cs.relax(sc, in, out, zn)
	// The sponge blends the collided row where the split path's post-collide
	// spongeBox pass would, through the same applySpongeRow arithmetic.
	if cs.hasSponge {
		if sig := sc.sig[:zn]; cs.spongeSig(sig, ix, iy, zlo, zn) {
			applySpongeRow(m, sc.fc, out, sig, nil, zn)
		}
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
