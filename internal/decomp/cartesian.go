// Package decomp implements pluggable Cartesian domain decompositions.
// The paper (§IV) restricts itself to the one-dimensional slab split in x
// to isolate the ghost-cell-depth analysis; that shape is the Cartesian
// shape (P,1,1). The Cartesian type generalizes to 2-D pencil and 3-D
// block rank grids, whose per-rank communication surface shrinks with
// P^(2/3) where the slab's stays O(NY·NZ) — the surface-to-volume argument
// that motivates every beyond-slab scaling study.
package decomp

import (
	"fmt"
	"sort"
	"strconv"
	"strings"
)

// Axis indices for the three Cartesian directions.
const (
	AxisX = 0
	AxisY = 1
	AxisZ = 2
)

// NoNeighbor is returned by Neighbor for a step off the global edge of a
// bounded (non-periodic) axis: there is no rank there, the face is a
// global boundary whose ghost cells are filled from boundary conditions
// rather than exchanged data.
const NoNeighbor = -1

// Decomposition is implemented by Cartesian; consumers that only need
// the rank-grid geometry (ownership, neighbors, coordinates) can take
// the interface so alternative decompositions (e.g. space-filling-curve
// or load-balanced blocks) can slot in later.
//
// Decomposition abstracts a periodic Cartesian domain decomposition: a
// rank grid laid over the global box, with balanced contiguous blocks per
// axis. The paper's 1-D slab is the shape (P,1,1); pencils are (Px,Py,1)
// and blocks (Px,Py,Pz). Rank numbering is z-fastest, matching the cell
// indexing of grid.Dims, so a slab decomposition numbers ranks along x.
type Decomposition interface {
	// Ranks returns the total rank count (product of the grid shape).
	Ranks() int
	// Shape returns the rank-grid extents (Px, Py, Pz).
	Shape() [3]int
	// Coords returns the grid coordinates of a rank.
	Coords(rank int) [3]int
	// RankAt inverts Coords.
	RankAt(c [3]int) int
	// Own returns the global start index and count owned by rank on axis.
	Own(rank, axis int) (start, size int)
	// Neighbor returns the neighbor of rank along axis in direction dir
	// (-1 toward lower indices, +1 toward higher): the periodic ring
	// neighbor on periodic axes, or NoNeighbor when the axis is bounded
	// and the step walks off the global edge.
	Neighbor(rank, axis, dir int) int
	// MaxOwn returns the largest owned extent over all ranks on axis.
	MaxOwn(axis int) int
	// RankOf returns the rank owning the global cell (ix, iy, iz).
	RankOf(ix, iy, iz int) int
}

// blockOwn returns the start and size of block i when n items are split
// into parts balanced contiguous blocks: the first n mod parts blocks get
// one extra item.
func blockOwn(n, parts, i int) (start, size int) {
	base := n / parts
	rem := n % parts
	if i < rem {
		return i * (base + 1), base + 1
	}
	return rem*(base+1) + (i-rem)*base, base
}

// blockRankOf inverts blockOwn: the block index owning item gi.
func blockRankOf(n, parts, gi int) int {
	base := n / parts
	rem := n % parts
	cut := rem * (base + 1)
	if gi < cut {
		return gi / (base + 1)
	}
	return rem + (gi-cut)/base
}

// blockMax returns the largest block size.
func blockMax(n, parts int) int {
	if n%parts != 0 {
		return n/parts + 1
	}
	return n / parts
}

// Cartesian is a balanced block decomposition of a global box over a
// Px×Py×Pz rank grid. Axes are periodic by default (the zero Bounded
// value); a bounded axis has real global faces — its edge ranks have no
// neighbor across the boundary and its ghost faces carry boundary data.
// It implements Decomposition.
type Cartesian struct {
	Global  [3]int  // global cell extents (NX, NY, NZ)
	P       [3]int  // rank-grid extents
	Bounded [3]bool // true = non-periodic axis with global boundary faces
	// Cuts, when non-nil on an axis, override the equal-extent block
	// partition with explicit cut-plane positions: Cuts[a] has P[a]+1
	// strictly increasing entries from 0 to Global[a], and rank column i
	// owns [Cuts[a][i], Cuts[a][i+1]). A nil axis keeps the legacy
	// balanced blocks. The rank grid, numbering and neighbor topology are
	// unchanged — only where the planes fall moves, which is why the halo
	// exchanger and steppers work on weighted decompositions verbatim.
	Cuts [3][]int
}

var _ Decomposition = Cartesian{}

// NewCartesian validates and returns a fully periodic Cartesian
// decomposition of the global extents over a p[0]×p[1]×p[2] rank grid.
func NewCartesian(global, p [3]int) (Cartesian, error) {
	return NewCartesianBounded(global, p, [3]bool{})
}

// NewCartesianBounded is NewCartesian with per-axis periodicity control:
// bounded[a] = true makes axis a non-periodic.
func NewCartesianBounded(global, p [3]int, bounded [3]bool) (Cartesian, error) {
	for a := 0; a < 3; a++ {
		if p[a] < 1 {
			return Cartesian{}, fmt.Errorf("decomp: axis %d rank count %d, want >= 1", a, p[a])
		}
		if global[a] < p[a] {
			return Cartesian{}, fmt.Errorf("decomp: axis %d extent %d < %d ranks (every rank needs at least one cell)", a, global[a], p[a])
		}
	}
	return Cartesian{Global: global, P: p, Bounded: bounded}, nil
}

// Ranks returns the total rank count.
func (c Cartesian) Ranks() int { return c.P[0] * c.P[1] * c.P[2] }

// Shape returns the rank-grid extents.
func (c Cartesian) Shape() [3]int { return c.P }

// Coords returns the grid coordinates of a rank (z-fastest numbering).
func (c Cartesian) Coords(rank int) [3]int {
	cz := rank % c.P[2]
	rank /= c.P[2]
	cy := rank % c.P[1]
	cx := rank / c.P[1]
	return [3]int{cx, cy, cz}
}

// RankAt inverts Coords.
func (c Cartesian) RankAt(co [3]int) int {
	return co[2] + c.P[2]*(co[1]+c.P[1]*co[0])
}

// Own returns the global start index and count owned by rank on axis.
func (c Cartesian) Own(rank, axis int) (start, size int) {
	i := c.Coords(rank)[axis]
	if cu := c.Cuts[axis]; cu != nil {
		return cu[i], cu[i+1] - cu[i]
	}
	return blockOwn(c.Global[axis], c.P[axis], i)
}

// Neighbor returns the neighbor of rank along axis (dir ±1): the periodic
// ring neighbor, or NoNeighbor off the global edge of a bounded axis.
func (c Cartesian) Neighbor(rank, axis, dir int) int {
	co := c.Coords(rank)
	next := co[axis] + dir
	if c.Bounded[axis] {
		if next < 0 || next >= c.P[axis] {
			return NoNeighbor
		}
	} else {
		next = (next + c.P[axis]) % c.P[axis]
	}
	co[axis] = next
	return c.RankAt(co)
}

// MaxOwn returns the largest owned extent over all ranks on axis.
func (c Cartesian) MaxOwn(axis int) int {
	if cu := c.Cuts[axis]; cu != nil {
		m := 0
		for i := 0; i < len(cu)-1; i++ {
			if s := cu[i+1] - cu[i]; s > m {
				m = s
			}
		}
		return m
	}
	return blockMax(c.Global[axis], c.P[axis])
}

// MinOwn returns the smallest owned extent over all ranks on axis.
func (c Cartesian) MinOwn(axis int) int {
	if cu := c.Cuts[axis]; cu != nil {
		m := c.Global[axis]
		for i := 0; i < len(cu)-1; i++ {
			if s := cu[i+1] - cu[i]; s < m {
				m = s
			}
		}
		return m
	}
	return c.Global[axis] / c.P[axis]
}

// axisRankOf returns the rank-grid column owning plane gi on axis.
func (c Cartesian) axisRankOf(axis, gi int) int {
	cu := c.Cuts[axis]
	if cu == nil {
		return blockRankOf(c.Global[axis], c.P[axis], gi)
	}
	// sort.SearchInts(cu, gi+1) finds the first cut > gi; the owning
	// column is one before it.
	return sort.SearchInts(cu, gi+1) - 1
}

// RankOf returns the rank owning the global cell (ix, iy, iz).
func (c Cartesian) RankOf(ix, iy, iz int) int {
	return c.RankAt([3]int{
		c.axisRankOf(0, ix),
		c.axisRankOf(1, iy),
		c.axisRankOf(2, iz),
	})
}

// IsSlab reports whether the decomposition is the paper's 1-D x-slab
// shape (Py = Pz = 1).
func (c Cartesian) IsSlab() bool { return c.P[1] == 1 && c.P[2] == 1 }

// String renders the rank grid as "PxxPyxPz".
func (c Cartesian) String() string {
	return fmt.Sprintf("%dx%dx%d", c.P[0], c.P[1], c.P[2])
}

// surface returns the per-rank communication surface of shape p over the
// global extents: for each decomposed axis, the cross-section of the
// largest subdomain in the other two axes. Lower is better; this is the
// quantity a near-cubic factorization minimizes (per-rank surface shrinks
// with P^(2/3) for blocks but stays O(NY·NZ) for slabs).
func surface(global, p [3]int) float64 {
	var s float64
	for a := 0; a < 3; a++ {
		if p[a] == 1 {
			continue
		}
		cross := 1.0
		for b := 0; b < 3; b++ {
			if b != a {
				cross *= float64(blockMax(global[b], p[b]))
			}
		}
		s += 2 * cross
	}
	return s
}

// Factor returns the rank-grid shape for ranks ranks over the global
// extents using at most maxAxes decomposed axes (1 → slab, 2 → pencil,
// 3 → block). Among all admissible factorizations it picks the one with
// the smallest per-rank communication surface, tie-broken toward the most
// cubic grid and then toward decomposing x first (so shape (R,1,1) is the
// 1-D result, matching the paper).
func Factor(ranks, maxAxes int, global [3]int) ([3]int, error) {
	if ranks < 1 {
		return [3]int{}, fmt.Errorf("decomp: ranks = %d, want >= 1", ranks)
	}
	if maxAxes < 1 || maxAxes > 3 {
		return [3]int{}, fmt.Errorf("decomp: maxAxes = %d, want 1..3", maxAxes)
	}
	best := [3]int{}
	found := false
	var bestSurf float64
	bestSpread := 0
	// px descends so that, among equal-surface equal-spread shapes, the
	// x-decomposed one wins (a 1-D request yields (R,1,1)).
	for px := ranks; px >= 1; px-- {
		if ranks%px != 0 {
			continue
		}
		// py descends for the same reason: prefer y over z.
		for py := ranks / px; py >= 1; py-- {
			if (ranks/px)%py != 0 {
				continue
			}
			pz := ranks / (px * py)
			p := [3]int{px, py, pz}
			axes := 0
			admissible := true
			for a := 0; a < 3; a++ {
				if p[a] > 1 {
					axes++
				}
				if global[a] < p[a] {
					admissible = false
				}
			}
			if !admissible || axes > maxAxes {
				continue
			}
			surf := surface(global, p)
			spread := maxOf(p) - minOf(p)
			if !found || surf < bestSurf || (surf == bestSurf && spread < bestSpread) {
				best, bestSurf, bestSpread, found = p, surf, spread, true
			}
		}
	}
	if !found {
		return [3]int{}, fmt.Errorf("decomp: no %d-axis factorization of %d ranks fits the %dx%dx%d domain",
			maxAxes, ranks, global[0], global[1], global[2])
	}
	return best, nil
}

func maxOf(p [3]int) int {
	m := p[0]
	for _, v := range p[1:] {
		if v > m {
			m = v
		}
	}
	return m
}

func minOf(p [3]int) int {
	m := p[0]
	for _, v := range p[1:] {
		if v < m {
			m = v
		}
	}
	return m
}

// ParseShape resolves a decomposition spec for the given rank count and
// global extents. "1d" is the paper's x-slab (Ranks,1,1), always — it
// never migrates to another axis, so Orig/Fused/ladder semantics are
// preserved exactly. "2d" (pencil) and "3d" (block) are axis budgets
// factored automatically with Factor (minimum communication surface;
// on strongly anisotropic domains the optimum may use fewer axes than
// budgeted). An explicit "PxxPyxPz" grid such as "2x2x2" must multiply
// to ranks.
func ParseShape(spec string, ranks int, global [3]int) (Cartesian, error) {
	var p [3]int
	var err error
	switch strings.ToLower(spec) {
	case "", "1d", "slab":
		p = [3]int{ranks, 1, 1}
	case "2d", "pencil":
		p, err = Factor(ranks, 2, global)
	case "3d", "block":
		p, err = Factor(ranks, 3, global)
	default:
		parts := strings.Split(strings.ToLower(spec), "x")
		if len(parts) != 3 {
			return Cartesian{}, fmt.Errorf("decomp: bad shape %q (want 1d, 2d, 3d or PxxPyxPz)", spec)
		}
		for a := 0; a < 3 && err == nil; a++ {
			p[a], err = strconv.Atoi(strings.TrimSpace(parts[a]))
		}
		if err == nil && p[0]*p[1]*p[2] != ranks {
			return Cartesian{}, fmt.Errorf("decomp: shape %q has %d ranks, want %d", spec, p[0]*p[1]*p[2], ranks)
		}
	}
	var c Cartesian
	if err == nil {
		c, err = NewCartesian(global, p)
	}
	if err != nil {
		// Whatever refused it — the number syntax, the factorization, the
		// domain's extents — the message names the argument.
		return Cartesian{}, fmt.Errorf("decomp: bad shape %q: %w", spec, err)
	}
	return c, nil
}
