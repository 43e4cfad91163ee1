// Package grid provides the Cartesian field storage used by the solver:
// box dimensions with z-fastest indexing (matching the paper's
// iz + iy·Lz + ix·Lz·Ly layout) and distribution-function fields in either
// the collision-optimized structure-of-arrays layout (velocities stored as
// contiguous blocks, as recommended by Wellein et al. and used in the
// paper) or the array-of-structures layout kept for the layout ablation.
package grid

import (
	"fmt"
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

// Layout selects the memory layout of a Field.
type Layout int

const (
	// SoA stores each velocity's values contiguously: Data[v*cells + cell].
	// This is the "collision optimized" layout of Wellein et al. that the
	// paper adopts (§IV: two-dimensional arrays of
	// (NumVelocities, zDim·yDim·xDim) allocated in contiguous memory).
	SoA Layout = iota
	// AoS stores all velocities of a cell together: Data[cell*Q + v].
	// Retained for the data-layout ablation.
	AoS
)

func (l Layout) String() string {
	switch l {
	case SoA:
		return "SoA"
	case AoS:
		return "AoS"
	default:
		return fmt.Sprintf("Layout(%d)", int(l))
	}
}

// Field is a distribution function over a box: Q values per cell.
// The box dimensions include any halo planes the caller allocated.
type Field struct {
	Q      int
	D      Dims
	Layout Layout
	Data   []float64

	mem []byte // the mapping behind Data (NewMappedField); nil on the Go heap
}

// NewField allocates a zeroed field on the Go heap.
func NewField(q int, d Dims, l Layout) *Field {
	return &Field{Q: q, D: d, Layout: l, Data: make([]float64, q*d.Cells())}
}

// NewMappedField allocates a zeroed field in an anonymous mapping outside
// the Go heap (mapped_linux.go): the kernel's zero pages replace Go's
// clear, every page is faulted in before it returns, and a field of at
// least 2 MiB starts on a 2 MiB boundary with its whole 2 MiB blocks
// advised onto huge pages. Where that is unavailable — other systems,
// -race builds, a failed mapping — it is NewField. The owner must call
// Release once the field is no longer read; nothing it handed out may
// be read after that.
func NewMappedField(q int, d Dims, l Layout) *Field {
	n := q * d.Cells()
	data, mem := mapFloats(n)
	if mem == nil {
		data = make([]float64, n)
	}
	return &Field{Q: q, D: d, Layout: l, Data: data, mem: mem}
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
	if f.Layout == SoA {
		return v*f.D.Cells() + cell
	}
	return cell*f.Q + v
}

// At returns the value of velocity v at (ix,iy,iz).
func (f *Field) At(v, ix, iy, iz int) float64 {
	return f.Data[f.Idx(v, f.D.Index(ix, iy, iz))]
}

// Set stores the value of velocity v at (ix,iy,iz).
func (f *Field) Set(v, ix, iy, iz int, x float64) {
	f.Data[f.Idx(v, f.D.Index(ix, iy, iz))] = x
}

// V returns the contiguous block of velocity v. It panics for AoS fields,
// whose velocities are interleaved.
func (f *Field) V(v int) []float64 {
	if f.Layout != SoA {
		panic("grid: Field.V requires the SoA layout")
	}
	n := f.D.Cells()
	return f.Data[v*n : (v+1)*n : (v+1)*n]
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

// Fill sets every value of every cell to the per-velocity values in src
// (length Q).
func (f *Field) Fill(src []float64) {
	n := f.D.Cells()
	for v := 0; v < f.Q; v++ {
		for c := 0; c < n; c++ {
			f.Data[f.Idx(v, c)] = src[v]
		}
	}
}

// Clone returns a deep copy of the field.
func (f *Field) Clone() *Field {
	g := &Field{Q: f.Q, D: f.D, Layout: f.Layout, Data: make([]float64, len(f.Data))}
	copy(g.Data, f.Data)
	return g
}

// ConvertLayout returns a copy of the field in the requested layout.
func (f *Field) ConvertLayout(l Layout) *Field {
	g := NewField(f.Q, f.D, l)
	n := f.D.Cells()
	for v := 0; v < f.Q; v++ {
		for c := 0; c < n; c++ {
			g.Data[g.Idx(v, c)] = f.Data[f.Idx(v, c)]
		}
	}
	return g
}

// MaxAbsDiff returns the largest absolute difference between two fields of
// identical shape, comparing cell by cell regardless of layout.
func MaxAbsDiff(a, b *Field) float64 {
	if a.Q != b.Q || a.D != b.D {
		panic("grid: MaxAbsDiff shape mismatch")
	}
	var worst float64
	n := a.D.Cells()
	for v := 0; v < a.Q; v++ {
		for c := 0; c < n; c++ {
			d := a.Data[a.Idx(v, c)] - b.Data[b.Idx(v, c)]
			if d < 0 {
				d = -d
			}
			if d > worst {
				worst = d
			}
		}
	}
	return worst
}
