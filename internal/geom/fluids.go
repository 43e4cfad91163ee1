// Fluid-count queries over a Mask: per-plane fluid histograms and box
// fluid counts. These are the geometry half of fluid-cell-balanced
// decomposition — the paper's performance model counts fluid sites
// (N_fl), so cut planes should balance Fluids per rank, not box volume.
// decomp.BisectWeights consumes PlaneFluids; perfsim and the run report
// consume FluidsInBox over each rank's owned box. Both read the mask
// through RowRuns, the word-level row reader the solver's set-up reads it
// through too.
package geom

import (
	"fmt"
	"math"
	"math/bits"

	"repro/internal/grid"
)

// Run is one maximal interval [Lo, Hi) of fluid points along a row's z
// axis.
type Run struct {
	Lo, Hi int
}

// RowRuns appends to dst the fluid runs of global row (ix, iy), z
// ascending, and returns the extended slice. It reads the row a word at a
// time: the set bits of a word's complement are its fluid points, and
// each run boundary is one trailing-zero count, so a row costs its words
// and its runs, not its points. Coordinates must be in range.
func (m *Mask) RowRuns(dst []Run, ix, iy int) []Run {
	nz := m.D.NZ
	first := m.D.Index(ix, iy, 0)
	open := -1 // z of the open run's first point; none while negative
	for z := 0; z < nz; {
		i := first + z
		sh := uint(i & 63)
		n := min(64-int(sh), nz-z) // the row's points in this word from z on
		fl := ^m.bits[i>>6] >> sh  // fluid bits, z at bit 0
		if n < 64 {
			fl &= 1<<uint(n) - 1
		}
		for p := 0; p < n; {
			if open < 0 {
				rest := fl >> uint(p)
				if rest == 0 {
					break // solid to the end of the word
				}
				p += bits.TrailingZeros64(rest)
				open = z + p
			}
			// Above bit n the complement is set, so a run reaching the end
			// of the row's points in this word stops at n; a run reaching
			// a whole word's end leaves no bit at all.
			rest := ^fl >> uint(p)
			if rest == 0 {
				break
			}
			p += bits.TrailingZeros64(rest)
			if p >= n {
				break
			}
			dst = append(dst, Run{Lo: open, Hi: z + p})
			open = -1
		}
		z += n
	}
	if open >= 0 {
		dst = append(dst, Run{Lo: open, Hi: nz})
	}
	return dst
}

// PlaneFluids returns the number of fluid lattice points in each plane
// perpendicular to the given axis (0 = x, 1 = y, 2 = z): out[i] is the
// fluid count of the slice at coordinate i along that axis. The slice
// sums to Fluids(). It reads the mask row by row (RowRuns); along z each
// run adds one at its start and takes one off at its end, and a prefix sum
// turns those steps into counts.
func (m *Mask) PlaneFluids(axis int) []int {
	n := [3]int{m.D.NX, m.D.NY, m.D.NZ}
	if axis < 0 || axis > 2 {
		panic(fmt.Sprintf("geom: PlaneFluids axis %d", axis))
	}
	out := make([]int, n[axis]+1)
	var runs []Run
	for ix := 0; ix < m.D.NX; ix++ {
		for iy := 0; iy < m.D.NY; iy++ {
			runs = m.RowRuns(runs[:0], ix, iy)
			for _, r := range runs {
				switch axis {
				case 0:
					out[ix] += r.Hi - r.Lo
				case 1:
					out[iy] += r.Hi - r.Lo
				default:
					out[r.Lo]++
					out[r.Hi]--
				}
			}
		}
	}
	if axis == 2 {
		for i := 1; i < len(out); i++ {
			out[i] += out[i-1]
		}
	}
	return out[:n[axis]]
}

// FluidsInBox returns the number of fluid lattice points in the half-open
// box [lo, hi) (global coordinates, clipped to the mask's extent). An
// empty or fully-clipped box counts zero. It reads the box's rows by runs
// (RowRuns), each clipped to the box's z range.
func (m *Mask) FluidsInBox(lo, hi [3]int) int {
	n := [3]int{m.D.NX, m.D.NY, m.D.NZ}
	for a := 0; a < 3; a++ {
		if lo[a] < 0 {
			lo[a] = 0
		}
		if hi[a] > n[a] {
			hi[a] = n[a]
		}
		if lo[a] >= hi[a] {
			return 0
		}
	}
	fluids := 0
	var runs []Run
	for ix := lo[0]; ix < hi[0]; ix++ {
		for iy := lo[1]; iy < hi[1]; iy++ {
			runs = m.RowRuns(runs[:0], ix, iy)
			for _, r := range runs {
				fluids += max(0, min(r.Hi, hi[2])-max(r.Lo, lo[2]))
			}
		}
	}
	return fluids
}

// Bifurcation builds the demo vasculature mask: a Y-shaped vessel in the
// x-y midplane — a parent tube entering at x=0 on the y/z centerline,
// splitting at mid-length into two daughter branches that exit at x=NX-1
// near the top and bottom walls. Points within radius r of any of the
// three centerline segments are fluid; everything else is solid. With
// r ≈ 0.1·NY the mask is ≥90% solid inside its bounding box — the
// arterial sparsity regime the fluid-balanced decomposition targets.
func Bifurcation(d grid.Dims, r float64) *Mask {
	cy, cz := float64(d.NY-1)/2, float64(d.NZ-1)/2
	xs := float64(d.NX-1) * 0.5
	xe := float64(d.NX - 1)
	// Daughter endpoints leave an r-sized margin to the y walls so the
	// vessel lumen stays inside the box.
	yTop := float64(d.NY-1) - r - 1
	yBot := r + 1
	segs := [3][2][3]float64{
		{{0, cy, cz}, {xs, cy, cz}},
		{{xs, cy, cz}, {xe, yTop, cz}},
		{{xs, cy, cz}, {xe, yBot, cz}},
	}
	r2 := r * r
	return FromFunc(d, func(ix, iy, iz int) bool {
		p := [3]float64{float64(ix), float64(iy), float64(iz)}
		for _, s := range segs {
			if distSq(p, s[0], s[1]) <= r2 {
				return false // fluid
			}
		}
		return true // solid
	})
}

// distSq is the squared distance from point p to segment ab.
func distSq(p, a, b [3]float64) float64 {
	var ab, ap [3]float64
	var dot, len2 float64
	for i := 0; i < 3; i++ {
		ab[i] = b[i] - a[i]
		ap[i] = p[i] - a[i]
		dot += ab[i] * ap[i]
		len2 += ab[i] * ab[i]
	}
	t := 0.0
	if len2 > 0 {
		t = math.Min(1, math.Max(0, dot/len2))
	}
	var d2 float64
	for i := 0; i < 3; i++ {
		d := ap[i] - t*ab[i]
		d2 += d * d
	}
	return d2
}
