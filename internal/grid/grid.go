// Package grid provides the Cartesian field storage used by the solver:
// box dimensions with z-fastest indexing (matching the paper's
// iz + iy·Lz + ix·Lz·Ly layout) and distribution-function fields in the
// collision-optimized structure-of-arrays layout (velocities stored as
// contiguous blocks, as recommended by Wellein et al. and used in the
// paper).
package grid

import (
	"fmt"
	"slices"
	"sync/atomic"
)

// Dims is the extent of a 3-D box. Indexing is z-fastest: the linear index
// of (ix,iy,iz) is iz + NZ·(iy + NY·ix).
type Dims struct {
	NX, NY, NZ int
}

// Cells returns the number of lattice points in the box.
func (d Dims) Cells() int { return d.NX * d.NY * d.NZ }

// Index returns the linear cell index of (ix,iy,iz).
func (d Dims) Index(ix, iy, iz int) int { return iz + d.NZ*(iy+d.NY*ix) }

// Coords inverts Index.
func (d Dims) Coords(idx int) (ix, iy, iz int) {
	iz = idx % d.NZ
	idx /= d.NZ
	iy = idx % d.NY
	ix = idx / d.NY
	return
}

// PlaneCells returns the number of cells in one x-plane (NY·NZ); x-plane p
// occupies linear indices [p·PlaneCells, (p+1)·PlaneCells).
func (d Dims) PlaneCells() int { return d.NY * d.NZ }

func (d Dims) String() string { return fmt.Sprintf("%dx%dx%d", d.NX, d.NY, d.NZ) }

// Layout names a field's memory layout. SoA is the only one: the type
// and NewField's argument remain because the benchmark module calls
// NewField with grid.SoA.
type Layout int

// SoA stores each velocity's values contiguously, one block of the whole
// box per velocity: V(v)[cell], which is Data[v*cells + cell] unless the
// field is packed (NewPackedField), where the blocks overlap. This is the
// "collision optimized" layout of Wellein et al. that the paper adopts
// (§IV: two-dimensional arrays of (NumVelocities, zDim·yDim·xDim)
// allocated in contiguous memory).
const SoA Layout = 0

// Field is a distribution function over a box: Q values per cell, stored
// SoA. The box dimensions include any halo planes the caller allocated.
// Index it through V or Idx: Data is the storage behind the blocks, in
// velocity order, and only its classic form holds every block whole and
// apart.
type Field struct {
	Q    int
	D    Dims
	Data []float64

	live []Planes // per velocity, the x-planes its block holds (NewPackedField); nil: all
	off  []int    // per velocity, the offset of its block in Data; nil: v·cells
	mem  []byte   // the mapping behind Data (NewMappedField); nil on the Go heap
}

// Planes is a range of x-planes [Lo, Hi) of a box.
type Planes struct{ Lo, Hi int }

// NewField allocates a zeroed field on the Go heap. The layout argument
// is always SoA.
func NewField(q int, d Dims, _ Layout) *Field {
	return &Field{Q: q, D: d, Data: make([]float64, q*d.Cells())}
}

// NewMappedField allocates a zeroed field in an anonymous mapping outside
// the Go heap (mapped_linux.go): the kernel's zero pages replace Go's
// clear, every page is faulted in before it returns, and a field of at
// least 2 MiB starts on a 2 MiB boundary with its whole 2 MiB blocks
// advised onto huge pages. Where that is unavailable — other systems,
// -race builds, a failed mapping — it is NewField. The owner must call
// Release once the field is no longer read; nothing it handed out may
// be read after that.
func NewMappedField(q int, d Dims) *Field { return NewPackedField(q, d, nil) }

// NewPackedField is NewMappedField for a field whose velocity v is read
// and written on the x-planes live[v] alone (nil: on every plane). Each
// block still spans the whole box, so V and Idx index it as ever, but the
// blocks are placed back to back by their live planes: block v+1 starts
// where its live planes follow block v's, and the planes a velocity never
// touches lie on its neighbours' live planes. Consecutive ranges must
// overlap (each holds the box's owned planes); the field then holds
// FieldLen(q, d, live) values instead of q·cells. Whatever writes a
// velocity outside its live planes overwrites another velocity.
func NewPackedField(q int, d Dims, live []Planes) *Field {
	off, n := layout(q, d, live)
	data, mem := mapFloats(n)
	if mem == nil {
		data = make([]float64, n)
	}
	return &Field{Q: q, D: d, Data: data, live: live, off: off, mem: mem}
}

// FieldLen returns how many values NewPackedField(q, d, live) holds.
func FieldLen(q int, d Dims, live []Planes) int {
	_, n := layout(q, d, live)
	return n
}

// layout places the velocity blocks of a field with live planes live
// (nil: apart, q·cells) and returns their offsets and the values they
// span.
func layout(q int, d Dims, live []Planes) (off []int, n int) {
	if live == nil {
		return nil, q * d.Cells()
	}
	if len(live) != q {
		panic(fmt.Sprintf("grid: %d live plane ranges for %d velocities", len(live), q))
	}
	plane := d.PlaneCells()
	off = make([]int, q)
	for v, p := range live {
		if p.Lo < 0 || p.Lo >= p.Hi || p.Hi > d.NX || v > 0 && (p.Lo >= live[v-1].Hi || p.Hi <= live[v-1].Lo) {
			panic(fmt.Sprintf("grid: velocity %d lives on planes [%d, %d) of %d, which do not overlap its predecessor's", v, p.Lo, p.Hi, d.NX))
		}
		if v > 0 {
			off[v] = off[v-1] + (live[v-1].Hi-p.Lo)*plane
		}
	}
	return off, off[q-1] + d.Cells()
}

// Release unmaps a NewMappedField field and sets Data to nil; for a heap
// field it only drops Data. It is idempotent and a nil field is a no-op.
func (f *Field) Release() {
	if f == nil {
		return
	}
	if f.mem != nil {
		unmap(f.mem)
		f.mem = nil
	}
	f.Data = nil
}

// hugePage is the transparent huge page size a mapped field aligns to.
const hugePage = 2 << 20

// mapped counts the bytes of the live mappings behind NewMappedField
// fields.
var mapped atomic.Int64

// MappedBytes returns the bytes of every live NewMappedField mapping: a
// leak shows as a count that does not return to its starting value.
func MappedBytes() int64 { return mapped.Load() }

// Idx returns the linear offset into Data for velocity v at cell index.
func (f *Field) Idx(v, cell int) int {
	return f.base(v) + cell
}

// base returns the offset of velocity v's block in Data.
func (f *Field) base(v int) int {
	if f.off != nil {
		return f.off[v]
	}
	return v * f.D.Cells()
}

// At returns the value of velocity v at (ix,iy,iz).
func (f *Field) At(v, ix, iy, iz int) float64 {
	return f.Data[f.Idx(v, f.D.Index(ix, iy, iz))]
}

// Set stores the value of velocity v at (ix,iy,iz).
func (f *Field) Set(v, ix, iy, iz int, x float64) {
	f.Data[f.Idx(v, f.D.Index(ix, iy, iz))] = x
}

// V returns the contiguous block of velocity v, indexed by cell over the
// whole box.
func (f *Field) V(v int) []float64 {
	o, n := f.base(v), f.D.Cells()
	return f.Data[o : o+n : o+n]
}

// Cell fills dst (length Q) with all velocity values of the cell at
// (ix,iy,iz), in velocity order.
func (f *Field) Cell(ix, iy, iz int, dst []float64) {
	cell := f.D.Index(ix, iy, iz)
	for v := 0; v < f.Q; v++ {
		dst[v] = f.Data[f.Idx(v, cell)]
	}
}

// SetCell stores all velocity values of a cell from src (length Q).
func (f *Field) SetCell(ix, iy, iz int, src []float64) {
	cell := f.D.Index(ix, iy, iz)
	for v := 0; v < f.Q; v++ {
		f.Data[f.Idx(v, cell)] = src[v]
	}
}

// livePlanes returns the x-planes velocity v's block holds: all of them
// unless the field is packed.
func (f *Field) livePlanes(v int) Planes {
	if f.live != nil {
		return f.live[v]
	}
	return Planes{0, f.D.NX}
}

// Fill sets every value of every cell to the per-velocity values in src
// (length Q), on the planes each velocity holds.
func (f *Field) Fill(src []float64) {
	plane := f.D.PlaneCells()
	for v, x := range src[:f.Q] {
		p := f.livePlanes(v)
		blk := f.V(v)[p.Lo*plane : p.Hi*plane]
		for c := range blk {
			blk[c] = x
		}
	}
}

// Clone returns a deep copy of the field, on the Go heap.
func (f *Field) Clone() *Field {
	return &Field{Q: f.Q, D: f.D, Data: slices.Clone(f.Data), live: f.live, off: f.off}
}

// MaxAbsDiff returns the largest absolute difference between two fields of
// identical shape and layout.
func MaxAbsDiff(a, b *Field) float64 {
	if a.Q != b.Q || a.D != b.D || !slices.Equal(a.live, b.live) {
		panic("grid: MaxAbsDiff shape mismatch")
	}
	var worst float64
	for i, x := range a.Data {
		d := x - b.Data[i]
		if d < 0 {
			d = -d
		}
		if d > worst {
			worst = d
		}
	}
	return worst
}
