package core

// The per-box bounce-back fixup index. Fixup links used to live in
// per-x-plane lists: applying them to a sub-box meant scanning every link
// of every plane in range and filtering by y/z — O(plane) per phase, which
// the phased overlapped schedule pays once per rim and which dominates for
// boundary-heavy geometries (arterial masks, dense obstacle fields). The
// index stores the links CSR-style: sorted by cell (z-fastest, matching
// the build order), with one span per (ix,iy) row. Applying to a box is
// then a walk of exactly the rows the box covers, with the z range of each
// row located by binary search — O(links in box + rows in box), at every
// optimization level.
//
// The same link inventory doubles as the momentum-exchange force
// measurement (Ladd's method; cartStepper.measureForces walks it once per
// step, serially, in CSR order): a link that bounces population v at fluid
// cell x transferred the momentum of the incoming population c_opp·f_opp
// to the body and received back c_v·(f_opp + delta), so the body gains
//
//	ΔF = c_opp · (2·f_opp + delta)
//
// per link per step. Links are tagged with their body (the user's voxel
// mask, or the global boundary faces) and with whether their cell is
// owned — only owned links are counted, which is what makes the per-rank
// partial sums reduce to decomposition-independent totals.

import (
	"sort"

	"repro/internal/grid"
	"repro/internal/lattice"
)

// fixup is one bounce-back link: population v of (fluid) cell was streamed
// from a solid neighbor and must be replaced by the cell's own opposite
// pre-stream population, plus delta — zero for stationary walls, the
// Zou-He odd-part term for moving walls and velocity inlets (see bc.go).
// The fixup reads only the fluid cell's own populations, never the solid
// neighbor's, which is what keeps bounded runs bit-comparable across
// decompositions and ghost depths — and what lets solid cells go without
// storage under the run index. cell is the fluid cell's field offset: its
// dense index, or its compact offset when a run index is installed.
type fixup struct {
	cell  int32
	v     uint8
	opp   uint8
	flags uint8
	delta float64
}

// fixup flags.
const (
	// fixOwned marks links whose fluid cell lies in the rank's owned box:
	// exactly the links counted by the force accumulation (ghost-region
	// copies of the same physical link are someone else's to count).
	fixOwned uint8 = 1 << iota
	// fixObstacle marks links whose solid endpoint comes from the user's
	// voxel mask; links without it bounce off a global boundary face.
	fixObstacle
)

// Force-accumulation bodies.
const (
	bodyObstacle = iota // the voxel mask (drag/lift target)
	bodyFaces           // the global boundary faces, aggregated
	numBodies
)

// fixIndex is the CSR-ordered link inventory of one rank's local box.
type fixIndex struct {
	d     grid.Dims
	ri    *runIndex // the fields' address map; nil when they are dense
	links []fixup   // sorted by (ix, iy, iz, v) — the build order, ascending in cell
	rows  []int32   // len NX·NY+1; row (ix,iy) spans links[rows[ix·NY+iy] : rows[ix·NY+iy+1]]
	// nextRow is the CSR build cursor (rows below it have their start set).
	nextRow int
	// cxo/cyo/czo are c_opp per link velocity v (i.e. −c_v), the
	// momentum-exchange direction of a link bouncing v.
	cxo, cyo, czo []float64
}

func newFixIndex(d grid.Dims, m *lattice.Model, ri *runIndex) *fixIndex {
	fi := &fixIndex{
		d:    d,
		ri:   ri,
		rows: make([]int32, d.NX*d.NY+1),
		cxo:  make([]float64, m.Q),
		cyo:  make([]float64, m.Q),
		czo:  make([]float64, m.Q),
	}
	for v := 0; v < m.Q; v++ {
		fi.cxo[v] = -float64(m.Cx[v])
		fi.cyo[v] = -float64(m.Cy[v])
		fi.czo[v] = -float64(m.Cz[v])
	}
	return fi
}

// add appends one link of the fluid cell of row (ix, iy) at field offset
// cell. Calls must come in (ix, iy, iz, v) lexicographic order — the
// natural order of the build loops — so the CSR rows stay sorted and the
// per-row binary search works.
func (fi *fixIndex) add(ix, iy, cell, v, opp int, delta float64, flags uint8) {
	row := ix*fi.d.NY + iy
	for fi.nextRow <= row {
		fi.rows[fi.nextRow] = int32(len(fi.links))
		fi.nextRow++
	}
	fi.links = append(fi.links, fixup{
		cell: int32(cell), v: uint8(v), opp: uint8(opp),
		delta: delta, flags: flags,
	})
}

// finish seals the CSR row table after the last add.
func (fi *fixIndex) finish() {
	for fi.nextRow <= fi.d.NX*fi.d.NY {
		fi.rows[fi.nextRow] = int32(len(fi.links))
		fi.nextRow++
	}
}

// empty reports whether the index holds no links (nil-safe).
func (fi *fixIndex) empty() bool { return fi == nil || len(fi.links) == 0 }

// clampTo clips box b to the index's local dims.
func (fi *fixIndex) clampTo(b box) box {
	hi := [3]int{fi.d.NX, fi.d.NY, fi.d.NZ}
	for a := 0; a < 3; a++ {
		if b.lo[a] < 0 {
			b.lo[a] = 0
		}
		if b.hi[a] > hi[a] {
			b.hi[a] = hi[a]
		}
	}
	return b
}

// rowLinks returns the links of row (ix·NY + iy) whose cell has iz in
// [zlo, zhi). A row's links are sorted by cell and a row's field offsets
// ascend with z in either address space, so the z interval is an offset
// interval and both bounds are binary searches.
func (fi *fixIndex) rowLinks(row, zlo, zhi int) []fixup {
	seg := fi.links[fi.rows[row]:fi.rows[row+1]]
	if len(seg) == 0 || (zlo <= 0 && zhi >= fi.d.NZ) {
		return seg
	}
	lo, hi := row*fi.d.NZ+zlo, row*fi.d.NZ+zhi
	if fi.ri != nil {
		lo, hi = fi.ri.lower(row, zlo), fi.ri.lower(row, zhi)
	}
	a := sort.Search(len(seg), func(i int) bool { return int(seg[i].cell) >= lo })
	b := a + sort.Search(len(seg[a:]), func(i int) bool { return int(seg[a+i].cell) >= hi })
	return seg[a:b]
}

// applyBox replaces, for every link whose cell lies in box b, the
// population streamed out of the solid neighbor with the reflected
// pre-stream population of the receiving fluid cell:
// f_adv[v][x] = f[opp(v)][x] + delta. Exactly the links of b are applied,
// which is what the phased overlapped schedule requires (a fixup applied
// before its cell's rim stream would be overwritten by it).
func (fi *fixIndex) applyBox(f, fadv *grid.Field, b box) {
	if fi.empty() {
		return
	}
	b = fi.clampTo(b)
	if b.lo[2] == 0 && b.hi[2] == fi.d.NZ && b.lo[1] == 0 && b.hi[1] == fi.d.NY {
		// Full cross-section: the links of the covered planes are one
		// contiguous CSR span — skip the per-row walk entirely.
		fi.applyLinks(f, fadv, fi.links[fi.rows[b.lo[0]*fi.d.NY]:fi.rows[b.hi[0]*fi.d.NY]])
		return
	}
	for ix := b.lo[0]; ix < b.hi[0]; ix++ {
		for iy := b.lo[1]; iy < b.hi[1]; iy++ {
			fi.applyLinks(f, fadv, fi.rowLinks(ix*fi.d.NY+iy, b.lo[2], b.hi[2]))
		}
	}
}

// applyLinks applies one span of links in either layout.
func (fi *fixIndex) applyLinks(f, fadv *grid.Field, seg []fixup) {
	if f.Layout == grid.SoA {
		cells := f.D.Cells()
		fd, ad := f.Data, fadv.Data
		for _, fx := range seg {
			ad[int(fx.v)*cells+int(fx.cell)] = fd[int(fx.opp)*cells+int(fx.cell)] + fx.delta
		}
		return
	}
	q := f.Q
	for _, fx := range seg {
		fadv.Data[int(fx.cell)*q+int(fx.v)] = f.Data[int(fx.cell)*q+int(fx.opp)] + fx.delta
	}
}
