package core

// Streaming kernels. All halo-based levels use the pull form: each
// destination cell gathers f_i from x − c_i, which makes the computed
// region exactly the iterated one (the push form of the paper's Fig. 3 is
// kept for the no-ghost Orig protocol in orig.go, where scattering into the
// egress margins is the point). Pull and push visit the same data and move
// the same bytes; they differ only in write locality.
//
// The ladder's three forms — scalar, copy, table-indexed — are each written
// once for every ghost geometry; y and z are ghosted or wrapped
// independently of each other (GhostWidths). x always carries ghosts, so
// the source plane is a plain offset. y goes through the wrap every form
// already has (modulo, conditional, table), which is the identity wherever
// ghosts keep iy − cy inside the row range. z is the one place a wrap axis
// differs in shape, and zShift holds it: a cyclic rotation of the whole row
// on a wrap axis, an offset copy of the box's z-range when ghosts cover the
// reach. Streaming only moves values, so every form yields the same field,
// on any box: the split path streams a few rows at a time (streamRows).

// bindStream builds the source-row tables and resolves the stream kernel
// for the configured level; sparse traversal overrides the ladder with
// the run-driven copy.
func (cs *cartStepper) bindStream() {
	ny := cs.d.NY
	cs.srcY = make([][]int32, cs.model.Q)
	for v := range cs.srcY {
		// srcY[v][y] = (y − cy) mod NY — the branch-reduction analog of the
		// paper's Fig. 6 index arrays. Rows the modulo actually folds are
		// destinations only on a wrap axis; with ghosts they lie outside
		// every destination box.
		tab := make([]int32, ny)
		for y := range tab {
			tab[y] = int32(((y-cs.model.Cy[v])%ny + ny) % ny)
		}
		cs.srcY[v] = tab
	}
	switch {
	case cs.runStart != nil:
		cs.stream = cs.streamRuns
	case cs.cfg.Opt <= OptGC:
		cs.stream = cs.streamScalar
	case cs.cfg.Opt < OptLoBr:
		cs.stream = cs.streamCopy
	default:
		cs.stream = cs.streamCopyIndexed
	}
}

// streamScalar is the naive pull kernel: velocity-innermost loops with
// modulo wrap arithmetic on every access, per the paper's Fig. 3
// structure. Works in either layout.
func (cs *cartStepper) streamScalar(worker int, b box) {
	m := cs.model
	ny, nz := cs.d.NY, cs.d.NZ
	for ix := b.lo[0]; ix < b.hi[0]; ix++ {
		for iy := b.lo[1]; iy < b.hi[1]; iy++ {
			for iz := b.lo[2]; iz < b.hi[2]; iz++ {
				dst := cs.d.Index(ix, iy, iz)
				for v := 0; v < m.Q; v++ {
					sx := ix - m.Cx[v]
					sy := ((iy-m.Cy[v])%ny + ny) % ny
					sz := ((iz-m.Cz[v])%nz + nz) % nz
					cs.fadv.Data[cs.fadv.Idx(v, dst)] = cs.f.Data[cs.f.Idx(v, cs.d.Index(sx, sy, sz))]
				}
			}
		}
	}
}

// streamCopy is the data-handling kernel (§V.B): velocities outermost so
// each contiguous velocity block is traversed in memory order, with the
// z-line movement expressed as bulk copies. Requires SoA layout.
func (cs *cartStepper) streamCopy(worker int, b box) {
	m := cs.model
	ny, nz := cs.d.NY, cs.d.NZ
	plane := cs.d.PlaneCells()
	zlo, zhi, wrapZ := b.lo[2], b.hi[2], cs.w[2] == 0
	for v := 0; v < m.Q; v++ {
		src := cs.f.V(v)
		dst := cs.fadv.V(v)
		cx, cy, cz := m.Cx[v], m.Cy[v], m.Cz[v]
		for ix := b.lo[0]; ix < b.hi[0]; ix++ {
			srcBase := (ix - cx) * plane
			dstBase := ix * plane
			for iy := b.lo[1]; iy < b.hi[1]; iy++ {
				sy := iy - cy
				if sy < 0 {
					sy += ny
				} else if sy >= ny {
					sy -= ny
				}
				sOff := srcBase + sy*nz
				dOff := dstBase + iy*nz
				zShift(dst[dOff+zlo:dOff+zhi], src[sOff:sOff+nz], zlo, cz, wrapZ)
			}
		}
	}
}

// streamCopyIndexed is streamCopy with the per-row wrap replaced by the
// precomputed source-row tables (§V.D branch reduction): the row loop
// contains no wrap arithmetic at all.
func (cs *cartStepper) streamCopyIndexed(worker int, b box) {
	m := cs.model
	nz := cs.d.NZ
	plane := cs.d.PlaneCells()
	zlo, zhi, wrapZ := b.lo[2], b.hi[2], cs.w[2] == 0
	for v := 0; v < m.Q; v++ {
		src := cs.f.V(v)
		dst := cs.fadv.V(v)
		cx, cz := m.Cx[v], m.Cz[v]
		rows := cs.srcY[v]
		for ix := b.lo[0]; ix < b.hi[0]; ix++ {
			srcBase := (ix - cx) * plane
			dstBase := ix * plane
			for iy := b.lo[1]; iy < b.hi[1]; iy++ {
				sOff := srcBase + int(rows[iy])*nz
				dOff := dstBase + iy*nz
				zShift(dst[dOff+zlo:dOff+zhi], src[sOff:sOff+nz], zlo, cz, wrapZ)
			}
		}
	}
}

// streamRuns is the sparse form, the data-handling rung (§V.B) on the run
// index: velocities outermost, and per x-plane of the box one walk over
// the plane's fluid runs in storage order, with the index arithmetic taken
// out of the inner loop (§V.D). A run's row id gives its iy without a
// search, so rows without fluid are never visited and a row's source row
// (ix−cx, iy−cy) is one read of the source plane's CSR. A destination run,
// clamped to b's z range, pulls from that row shifted by cz: the source
// row's runs are merged against the row's destination runs by a pointer
// that only moves forward (both ascend in z), and each overlap is one copy
// between compact offsets. Streaming moves values without arithmetic, so
// the restriction is trivially exact on fluid cells. What the merge
// leaves unwritten was streamed from a cell without storage — a solid
// cell, which is by definition a bounce-back link of the destination, or
// one outside the local box, which lies beyond every box the schedule
// streams — and the row body's links (gather.go) overwrite exactly those.
// Sparse traversal keeps ghosts on every axis, so no source wraps.
func (cs *cartStepper) streamRuns(worker int, b box) {
	if b.hi[0] <= b.lo[0] || b.hi[1] <= b.lo[1] || b.hi[2] <= b.lo[2] {
		return
	}
	m := cs.model
	nx, ny := cs.nx, cs.ny
	runs, off, rows := cs.runs, cs.off, cs.row
	zlo, zhi := b.lo[2], b.hi[2]
	for v := 0; v < m.Q; v++ {
		src, dst := cs.f.V(v), cs.fadv.V(v)
		cx, cy, cz := m.Cx[v], m.Cy[v], m.Cz[v]
		for ix := b.lo[0]; ix < b.hi[0]; ix++ {
			sx := ix - cx
			if sx < 0 || sx >= nx {
				continue
			}
			// The CSR of the destination and of the source x-plane.
			dplane := cs.runStart[ix*ny : (ix+1)*ny+1]
			splane := cs.runStart[sx*ny : (sx+1)*ny+1]
			for i, end := int(dplane[b.lo[1]]), int(dplane[b.hi[1]]); i < end; {
				iy := int(rows[i]) - ix*ny
				iend := int(dplane[iy+1])
				sy := iy - cy
				if sy < 0 || sy >= ny {
					i = iend
					continue
				}
				j, jend := int(splane[sy]), int(splane[sy+1]) // the source row's unmerged runs
				if iend-i == 1 && jend-j == 1 {
					// One run in each row, a vessel's common case: the
					// merge is one intersection.
					dlo, slo := int(runs[i].lo), int(runs[j].lo)
					a, e := max(dlo, zlo, slo+cz), min(int(runs[i].hi), zhi, int(runs[j].hi)+cz)
					if a < e {
						d, s := int(off[i])+a-dlo, int(off[j])+a-cz-slo
						copy(dst[d:d+e-a], src[s:s+e-a])
					}
					i = iend
					continue
				}
				for ; i < iend; i++ {
					dlo := int(runs[i].lo)
					lo, hi := max(dlo, zlo)-cz, min(int(runs[i].hi), zhi)-cz // source z interval
					if lo >= hi {
						continue
					}
					for j < jend && int(runs[j].hi) <= lo {
						j++
					}
					dbase := int(off[i]) + cz - dlo // field offset of destination z − cz
					for k := j; k < jend && int(runs[k].lo) < hi; k++ {
						slo := int(runs[k].lo)
						a, e := max(slo, lo), min(int(runs[k].hi), hi)
						s := int(off[k]) + a - slo
						copy(dst[dbase+a:dbase+e], src[s:s+e-a])
					}
				}
			}
		}
	}
}

// zShift writes dst[i] = srow[zlo+i−cz], the pull-stream of the z-run
// starting at zlo out of the full source row srow. With ghosts the source
// offsets stay inside the row; on a wrap axis the run is the whole row
// (chunking never splits z) and the shift is a cyclic rotation.
func zShift(dst, srow []float64, zlo, cz int, wrap bool) {
	if wrap {
		rotateCopy(dst, srow, cz)
		return
	}
	copy(dst, srow[zlo-cz:zlo-cz+len(dst)])
}

// rotateCopy writes dst[z] = src[(z − cz) mod n]: a cyclic shift of the
// z-line by +cz, realized as at most two block copies.
func rotateCopy(dst, src []float64, cz int) {
	n := len(dst)
	switch {
	case cz == 0:
		copy(dst, src)
	case cz > 0:
		copy(dst[cz:], src[:n-cz])
		copy(dst[:cz], src[n-cz:])
	default:
		c := -cz
		copy(dst[:n-c], src[c:])
		copy(dst[n-c:], src[:c])
	}
}
