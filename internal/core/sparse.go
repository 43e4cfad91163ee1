package core

// Sparse row-run traversal and fluid-compact storage (Config.Sparse). On
// a masked domain whose bounding box is mostly solid — the paper's
// arterial geometries are ~95% empty — the dense box kernels touch every
// lattice site and the dense fields hold every lattice site. The sparse
// path precomputes, per local (x, y) row, the run-length encoding of its
// fluid z-intervals; that run index is both the traversal order of every
// row-structured kernel and the address space of the fields.
//
// Traversal: the kernels' per-row arithmetic is strictly per-z
// independent (the §8 row contract, which also covers sub-row splits and
// spans of several rows), so
// restricting a row to its fluid runs changes which cells are computed,
// never the values at the cells that are: sparse matches dense
// bit-for-bit on every fluid cell, at any thread count. Rows with no
// fluid at all drop out of the pool's chunk batches: boxRunner chunks by
// stored cells when the run index is installed (chunk.go).
//
// Storage: each velocity block holds exactly the cells of the rank's
// fluid runs over its ghosted local box, runs back to back in run order
// (rows x-major then y, z ascending). A run is contiguous in z and ends
// where the next one starts, so the row body (gather.go) joins a box's
// consecutive runs into spans and the row kernels of collide.go run
// unchanged on views of them. Solid cells have no
// storage. Nothing ever consumes a value at a solid site — the fixup
// index replaces every population streamed out of a solid cell at its
// fluid destination from the fluid cell's own populations — so the one
// thing a solid address was good for was being skipped: a pull whose
// source interval is clipped to the stored cells leaves exactly the
// bounce-back links unwritten, and the row body (gather.go) writes those
// on every path. A push into a solid cell is dropped the same way.
// The halo's span lists index the same compact blocks, so pack and unpack
// need no dense address either (halo.NewCartExchangerClipped). Gathered
// into Result.Field, solid cells read as the rest state.
//
// at and clip map (ix, iy, iz) to a field offset under the run index for
// set-up and the row body's reads; forRuns, pull and push are written on
// them. boxSegs lists a box's stored cells for the halo's span lists. The
// sparse stream (streamRuns) is the one kernel that walks the index
// itself: it reads run offsets from off and each run's row from row,
// merging source and destination runs without a search.

import "repro/internal/grid"

// zrun is one contiguous fluid interval [lo, hi) of a local row's z
// extent.
type zrun struct {
	lo, hi int32
}

// runIndex is the per-row fluid-run CSR over a local box (ghosts
// included) with the compact address of every run: row r = ix·ny + iy
// owns runs[runStart[r]:runStart[r+1]], and run i's cells sit at field
// offsets [off[i], off[i+1]). row is the inverse of runStart: run i
// belongs to row row[i], so a walk over the runs of an x-plane recovers
// iy = row[i] − ix·ny without a search. A nil runStart means no index is
// installed: the fields are dense and every kernel takes its dense branch.
type runIndex struct {
	nx, ny   int
	runs     []zrun
	runStart []int32
	off      []int32 // len(runs)+1; the last entry is the stored-cell total
	row      []int32 // len(runs)
}

// addRun appends the fluid run [lo, hi) of row r, the index's last row
// so far; the caller closes the row with runStart[r+1]. buildMask encodes
// each row this way as it reads it, a piece of the row at a time, so a run
// that starts where the row's last one ends extends it: the index holds
// maximal runs.
func (ri *runIndex) addRun(r, lo, hi int) {
	if k := len(ri.runs) - 1; k >= 0 && ri.row[k] == int32(r) && int(ri.runs[k].hi) == lo {
		ri.runs[k].hi = int32(hi)
		ri.off[k+1] += int32(hi - lo)
		return
	}
	ri.runs = append(ri.runs, zrun{lo: int32(lo), hi: int32(hi)})
	ri.off = append(ri.off, ri.off[len(ri.off)-1]+int32(hi-lo))
	ri.row = append(ri.row, int32(r))
}

// fluidRuns calls run for every maximal fluid (false) interval [lo, hi) of
// a solid-mask row, z ascending.
func fluidRuns(solid []bool, run func(lo, hi int)) {
	for z := 0; z < len(solid); {
		if solid[z] {
			z++
			continue
		}
		lo := z
		for z < len(solid) && !solid[z] {
			z++
		}
		run(lo, z)
	}
}

// cells returns the number of stored cells — the extent of one velocity
// block of a compact field.
func (ri *runIndex) cells() int { return int(ri.off[len(ri.runs)]) }

// rowCells returns the stored cells of the consecutive rows [r0, r1).
func (ri *runIndex) rowCells(r0, r1 int) int64 {
	return int64(ri.off[ri.runStart[r1]] - ri.off[ri.runStart[r0]])
}

// seek returns the first run of row r that ends above z (the row's end
// when none does).
func (ri *runIndex) seek(r, z int) int {
	lo, hi := int(ri.runStart[r]), int(ri.runStart[r+1])
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if int(ri.runs[mid].hi) <= z {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}

// at returns the field offset of cell (ix, iy, iz), or false when the
// cell has no storage: it is solid, or outside the local box.
func (ri *runIndex) at(ix, iy, iz int) (int, bool) {
	if ix < 0 || ix >= ri.nx || iy < 0 || iy >= ri.ny {
		return 0, false
	}
	r := ix*ri.ny + iy
	i := ri.seek(r, iz)
	if i == int(ri.runStart[r+1]) || iz < int(ri.runs[i].lo) {
		return 0, false
	}
	return int(ri.off[i]) + iz - int(ri.runs[i].lo), true
}

// clip lists the stored cells of row (ix, iy) with z in [zlo, zhi) as
// contiguous segments, z ascending: n cells from field offset off, the
// first at height z. Any interval is legal — empty, reaching outside the
// row, on a row outside the box; the segments tile exactly the fluid cells
// inside it.
func (ri *runIndex) clip(ix, iy, zlo, zhi int, seg func(off, z, n int)) {
	if ix < 0 || ix >= ri.nx || iy < 0 || iy >= ri.ny {
		return
	}
	r := ix*ri.ny + iy
	end := int(ri.runStart[r+1])
	for i := ri.seek(r, zlo); i < end; i++ {
		lo, hi := int(ri.runs[i].lo), int(ri.runs[i].hi)
		if lo >= zhi {
			return
		}
		off := int(ri.off[i])
		if lo < zlo {
			off += zlo - lo
			lo = zlo
		}
		if hi > zhi {
			hi = zhi
		}
		if hi > lo {
			seg(off, lo, hi-lo)
		}
	}
}

// boxSegs lists the stored cells of the local box [lo, hi) as contiguous
// segments in the halo's wire order (halo.Clip): rows x-major then y, z
// ascending. The runs of an x-plane's rows [lo[1], hi[1]) are consecutive
// in the index, so the walk costs the box's stored runs, and a row
// without runs costs nothing.
func (ri *runIndex) boxSegs(lo, hi [3]int, seg func(off, n int)) {
	zlo, zhi := int32(lo[2]), int32(hi[2])
	for ix := lo[0]; ix < hi[0]; ix++ {
		for i := ri.runStart[ix*ri.ny+lo[1]]; i < ri.runStart[ix*ri.ny+hi[1]]; i++ {
			run := ri.runs[i]
			if a, b := max(run.lo, zlo), min(run.hi, zhi); a < b {
				seg(int(ri.off[i]+a-run.lo), int(b-a))
			}
		}
	}
}

// fieldDims returns the box the stepper's fields are allocated over: the
// ghosted local box, or under the run index a 1-D box of its stored cells.
func (cs *cartStepper) fieldDims() grid.Dims {
	if cs.runStart == nil {
		return cs.d
	}
	return grid.Dims{NX: 1, NY: 1, NZ: cs.cells()}
}

// forRuns drives a per-row kernel body over box b: over full [lo, hi)
// z-rows on the dense path, and over each row's fluid runs clipped to
// b's z range when the run index is installed. base is the field offset
// of (ix, iy, zlo); the zhi − zlo cells from it are contiguous either
// way. The body must be per-z independent (every box kernel is — the §8
// contract), which makes the two traversals bit-identical on the cells
// they share.
func (cs *cartStepper) forRuns(b box, row func(ix, iy, zlo, zhi, base int)) {
	if b.hi[2] <= b.lo[2] || b.hi[1] <= b.lo[1] || b.hi[0] <= b.lo[0] {
		return
	}
	for ix := b.lo[0]; ix < b.hi[0]; ix++ {
		for iy := b.lo[1]; iy < b.hi[1]; iy++ {
			if cs.runStart == nil {
				row(ix, iy, b.lo[2], b.hi[2], cs.d.Index(ix, iy, b.lo[2]))
				continue
			}
			cs.clip(ix, iy, b.lo[2], b.hi[2], func(off, z, n int) {
				row(ix, iy, z, z+n, off)
			})
		}
	}
}

// cell returns the field offset of a local cell in whichever address
// space the fields use; false only under the run index, for a cell
// without storage.
func (cs *cartStepper) cell(ix, iy, iz int) (int, bool) {
	if cs.runStart == nil {
		return cs.d.Index(ix, iy, iz), true
	}
	return cs.at(ix, iy, iz)
}

// fluidCell returns the field offset of a local cell and whether the cell
// is fluid: stored, and not solid in a dense field's mask.
func (cs *cartStepper) fluidCell(ix, iy, iz int) (int, bool) {
	off, ok := cs.cell(ix, iy, iz)
	return off, ok && (cs.mask == nil || !cs.mask[off])
}

// pull copies into dst the values velocity block blk holds for row
// (ix, iy) at z ∈ [zlo, zlo+len(dst)). Cells without storage leave their
// dst entry untouched.
func (cs *cartStepper) pull(dst, blk []float64, ix, iy, zlo int) {
	if cs.runStart == nil {
		off := cs.d.Index(ix, iy, zlo)
		copy(dst, blk[off:off+len(dst)])
		return
	}
	cs.clip(ix, iy, zlo, zlo+len(dst), func(off, z, n int) {
		copy(dst[z-zlo:], blk[off:off+n])
	})
}

// push is pull reversed: src lands in blk at row (ix, iy), z ∈ [zlo,
// zlo+len(src)); entries aimed at cells without storage are dropped.
func (cs *cartStepper) push(blk []float64, ix, iy, zlo int, src []float64) {
	if cs.runStart == nil {
		off := cs.d.Index(ix, iy, zlo)
		copy(blk[off:off+len(src)], src)
		return
	}
	cs.clip(ix, iy, zlo, zlo+len(src), func(off, z, n int) {
		copy(blk[off:off+n], src[z-zlo:])
	})
}
