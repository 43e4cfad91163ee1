package core

// The per-box bounce-back fixup index. Fixup links used to live in
// per-x-plane lists: applying them to a sub-box meant scanning every link
// of every plane in range and filtering by y/z — O(plane) per phase, which
// the phased overlapped schedule pays once per rim and which dominates for
// boundary-heavy geometries (arterial masks, dense obstacle fields). The
// index stores the links CSR-style: sorted by cell (z-fastest), with one
// span per (ix,iy) row, in one list allocated at its exact size —
// buildFixups (cart.go) counts each row's links by fluid run before it
// writes them. The row body (gather.go) takes the links of each run it
// advances, the run's offset range located in its row's span by binary
// search — O(links in the box + rows in the box) per phase, on every
// path.
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
	links []fixup // sorted by (ix, iy, iz, v), ascending in cell
	rows  []int32 // len NX·NY+1; row (ix,iy) spans links[rows[ix·NY+iy] : rows[ix·NY+iy+1]]
	// cxo/cyo/czo are c_opp per link velocity v (i.e. −c_v), the
	// momentum-exchange direction of a link bouncing v.
	cxo, cyo, czo []float64
}

// newFixIndex returns an empty index over nrows rows; the builder
// (buildFixups) sets the row table and the links.
func newFixIndex(nrows int, m *lattice.Model) *fixIndex {
	fi := &fixIndex{
		rows: make([]int32, nrows+1),
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

// empty reports whether the index holds no links (nil-safe).
func (fi *fixIndex) empty() bool { return fi == nil || len(fi.links) == 0 }

// rowLinks returns the links of row (ix·NY + iy) whose cell's field offset
// lies in [lo, hi) — a run's [base, base+zn), in either address space. A
// row's links are sorted by cell, so both bounds are binary searches, and
// a run that covers all of them (a whole row) needs neither.
func (fi *fixIndex) rowLinks(row, lo, hi int) []fixup {
	seg := fi.links[fi.rows[row]:fi.rows[row+1]]
	if len(seg) == 0 || (int(seg[0].cell) >= lo && int(seg[len(seg)-1].cell) < hi) {
		return seg
	}
	a := sort.Search(len(seg), func(i int) bool { return int(seg[i].cell) >= lo })
	b := a + sort.Search(len(seg[a:]), func(i int) bool { return int(seg[a+i].cell) >= hi })
	return seg[a:b]
}
