package core

// Sparse row-run traversal (Config.Sparse). On a masked domain whose
// bounding box is mostly solid — the paper's arterial geometries are
// ~95% empty — the dense box kernels still touch every lattice site and
// spend most of their bandwidth streaming, colliding and re-masking
// cells that hold nothing. The sparse path precomputes, per local
// (x, y) row, the run-length encoding of its fluid z-intervals and
// drives every row-structured kernel over those runs only. The kernels'
// per-row arithmetic is strictly per-z independent (the §8 row
// contract, which also covers sub-row splits), so restricting a row to
// its fluid runs changes which cells are computed, never the values at
// the cells that are: sparse matches dense bit-for-bit on every fluid
// cell, at any thread count.
//
// Solid cells keep whatever initField wrote (the rest state, or under
// AA their untouched slots): the fixup index replaces every population
// streamed out of a solid cell at its fluid destination, so values at
// solid sites are never consumed at the fluid level — the same argument
// that lets wall ghost faces hold the rest state (see fillFace). The
// halo exchange relies on the same argument: once the run index is
// installed the exchanger is built over the mask and its faces carry
// fluid cells only (halo.NewCartExchangerMasked), so solid ghost cells
// keep what the allocation or a boundary fill left there. Rows with no
// fluid at all additionally drop out of the pool's chunk batches:
// boxRunner chunks by fluid weight when a row-weight table is installed,
// and all-solid spans contribute nothing (chunk.go).

// zrun is one contiguous fluid interval [lo, hi) of a local row's z
// extent.
type zrun struct {
	lo, hi int32
}

// buildRuns precomputes the per-row fluid-run CSR over the local mask
// (ghosts included): row r = ix·NY + iy owns runs[runStart[r]:
// runStart[r+1]]. rowWeight[r] is the row's total fluid-cell count over
// the full local z extent — the chunk weight boxRunner balances on.
// Called at the end of buildMask when sparse traversal is enabled; with
// no mask the run index stays nil and every kernel takes its dense
// branch.
func (cs *cartStepper) buildRuns() {
	nx, ny, nz := cs.d.NX, cs.d.NY, cs.d.NZ
	cs.runStart = make([]int32, nx*ny+1)
	cs.rowWeight = make([]int32, nx*ny)
	for ix := 0; ix < nx; ix++ {
		for iy := 0; iy < ny; iy++ {
			r := ix*ny + iy
			base := cs.d.Index(ix, iy, 0)
			row := cs.mask[base : base+nz]
			var weight int32
			for z := 0; z < nz; {
				if row[z] {
					z++
					continue
				}
				lo := z
				for z < nz && !row[z] {
					z++
				}
				cs.runs = append(cs.runs, zrun{lo: int32(lo), hi: int32(z)})
				weight += int32(z - lo)
			}
			cs.runStart[r+1] = int32(len(cs.runs))
			cs.rowWeight[r] = weight
		}
	}
	cs.br.rowWeight = cs.rowWeight
	cs.br.ny = ny
}

// forRuns drives a per-row kernel body over box b: over full [lo, hi)
// z-rows on the dense path, and over each row's fluid runs clipped to
// b's z range when the sparse run index is installed. The body must be
// per-z independent (every box kernel is — the §8 contract), which
// makes the two traversals bit-identical on the cells they share.
func (cs *cartStepper) forRuns(b box, row func(ix, iy, zlo, zhi int)) {
	if b.hi[2] <= b.lo[2] || b.hi[1] <= b.lo[1] || b.hi[0] <= b.lo[0] {
		return
	}
	if cs.runStart == nil {
		for ix := b.lo[0]; ix < b.hi[0]; ix++ {
			for iy := b.lo[1]; iy < b.hi[1]; iy++ {
				row(ix, iy, b.lo[2], b.hi[2])
			}
		}
		return
	}
	ny := cs.d.NY
	for ix := b.lo[0]; ix < b.hi[0]; ix++ {
		for iy := b.lo[1]; iy < b.hi[1]; iy++ {
			r := ix*ny + iy
			for _, ru := range cs.runs[cs.runStart[r]:cs.runStart[r+1]] {
				zlo, zhi := int(ru.lo), int(ru.hi)
				if zlo < b.lo[2] {
					zlo = b.lo[2]
				}
				if zhi > b.hi[2] {
					zhi = b.hi[2]
				}
				if zlo < zhi {
					row(ix, iy, zlo, zhi)
				}
			}
		}
	}
}
