package comm

import "fmt"

// NoNeighbor is returned by Shift and reported in Neighbors for a step
// off the global edge of a bounded (non-periodic) axis.
const NoNeighbor = -1

// CartTopology maps a fabric's linear ranks onto a Px×Py×Pz Cartesian
// grid, the fabric-level analog of MPI_Cart_create with per-axis periods.
// Numbering is z-fastest (rank = cz + Pz·(cy + Py·cx)), matching the cell
// indexing of grid.Dims, so a slab grid (N,1,1) numbers ranks identically
// to the linear fabric. Axes are periodic unless flagged in Bounded; on a
// bounded axis, shifts off either end resolve to NoNeighbor (MPI's
// MPI_PROC_NULL for periods[axis] = 0).
type CartTopology struct {
	P       [3]int
	Bounded [3]bool
}

// NewCartTopology validates that the grid shape covers exactly n ranks and
// returns a fully periodic topology.
func NewCartTopology(n int, p [3]int) (CartTopology, error) {
	return NewCartTopologyBounded(n, p, [3]bool{})
}

// NewCartTopologyBounded is NewCartTopology with per-axis periodicity
// control: bounded[a] = true makes axis a non-periodic.
func NewCartTopologyBounded(n int, p [3]int, bounded [3]bool) (CartTopology, error) {
	for a, v := range p {
		if v < 1 {
			return CartTopology{}, fmt.Errorf("comm: topology axis %d extent %d, want >= 1", a, v)
		}
	}
	if got := p[0] * p[1] * p[2]; got != n {
		return CartTopology{}, fmt.Errorf("comm: topology %dx%dx%d covers %d ranks, fabric has %d", p[0], p[1], p[2], got, n)
	}
	return CartTopology{P: p, Bounded: bounded}, nil
}

// Ranks returns the total rank count of the grid.
func (t CartTopology) Ranks() int { return t.P[0] * t.P[1] * t.P[2] }

// Coords returns the grid coordinates of a rank.
func (t CartTopology) Coords(rank int) [3]int {
	cz := rank % t.P[2]
	rank /= t.P[2]
	return [3]int{rank / t.P[1], rank % t.P[1], cz}
}

// Rank inverts Coords.
func (t CartTopology) Rank(c [3]int) int {
	return c[2] + t.P[2]*(c[1]+t.P[1]*c[0])
}

// Shift returns the neighbor of rank displaced by disp along axis (the
// fabric-level MPI_Cart_shift): disp -1 is the lower neighbor, +1 the
// upper, and larger magnitudes walk further. Periodic axes wrap around the
// ring; on a bounded axis a walk off either end returns NoNeighbor.
func (t CartTopology) Shift(rank, axis, disp int) int {
	c := t.Coords(rank)
	n := t.P[axis]
	next := c[axis] + disp
	if t.Bounded[axis] {
		if next < 0 || next >= n {
			return NoNeighbor
		}
	} else {
		next = ((next % n) + n) % n
	}
	c[axis] = next
	return t.Rank(c)
}

// Neighbors returns the low- and high-side neighbor of rank on each axis:
// Neighbors(r)[axis][0] is the -1 shift, [axis][1] the +1 shift. On a
// periodic axis of extent 1 both entries are rank itself (self-exchange);
// at the global edge of a bounded axis the entry is NoNeighbor.
func (t CartTopology) Neighbors(rank int) [3][2]int {
	var nb [3][2]int
	for a := 0; a < 3; a++ {
		nb[a][0] = t.Shift(rank, a, -1)
		nb[a][1] = t.Shift(rank, a, +1)
	}
	return nb
}
