// Package halo implements ghost-cell ("halo") management for the
// decomposed solver: packing and unpacking of face cells and the blocking
// and non-blocking per-axis exchange protocols (cart.go). The schedule on
// top is the deep halo of Kjolstad & Snir used by the paper (§V.A): with
// ghost depth d on a lattice whose particles cross k cells per step, each
// rank keeps W = d·k ghost layers per side and exchanges them only every
// d steps, recomputing the ghost region locally in between.
package halo

import (
	"fmt"

	"repro/internal/comm"
	"repro/internal/grid"
)

// PackPlanes copies all Q velocities of x-planes [x0,x1) of f into buf and
// returns the number of values packed. Each velocity block stores whole
// x-planes contiguously, so packing is one block copy per velocity, and
// the wire format is velocity-major.
func PackPlanes(f *grid.Field, x0, x1 int, buf []float64) int {
	plane := f.D.PlaneCells()
	np := (x1 - x0) * plane
	if np <= 0 {
		return 0
	}
	n := 0
	for v := 0; v < f.Q; v++ {
		blk := f.V(v)
		n += copy(buf[n:n+np], blk[x0*plane:x1*plane])
	}
	return n
}

// UnpackPlanes is the inverse of PackPlanes.
func UnpackPlanes(f *grid.Field, x0, x1 int, buf []float64) int {
	plane := f.D.PlaneCells()
	np := (x1 - x0) * plane
	if np <= 0 {
		return 0
	}
	n := 0
	for v := 0; v < f.Q; v++ {
		blk := f.V(v)
		n += copy(blk[x0*plane:x1*plane], buf[n:n+np])
	}
	return n
}

// PackPlanesVel packs only the listed velocities of planes [x0,x1), in list
// order. Used by the no-ghost-cell ("Orig") protocol, which ships only the
// populations that actually crossed the boundary during streaming.
func PackPlanesVel(f *grid.Field, x0, x1 int, vels []int, buf []float64) int {
	plane := f.D.PlaneCells()
	np := (x1 - x0) * plane
	if np <= 0 || len(vels) == 0 {
		return 0
	}
	n := 0
	for _, v := range vels {
		blk := f.V(v)
		n += copy(buf[n:n+np], blk[x0*plane:x1*plane])
	}
	return n
}

// UnpackPlanesVel is the inverse of PackPlanesVel.
func UnpackPlanesVel(f *grid.Field, x0, x1 int, vels []int, buf []float64) int {
	plane := f.D.PlaneCells()
	np := (x1 - x0) * plane
	if np <= 0 || len(vels) == 0 {
		return 0
	}
	n := 0
	for _, v := range vels {
		blk := f.V(v)
		n += copy(blk[x0*plane:x1*plane], buf[n:n+np])
	}
	return n
}

// Exchanger is the x-only CartExchanger under the constructor and method
// names the 1-D slab exchanger had, which benchmark/ still calls: own
// planes with width ghost planes on each x side, no faces on y and z.
type Exchanger struct{ *CartExchanger }

// anyRank stands in for the rank ID NewExchanger is not told: it equals no
// neighbor, so ExchangeNonBlocking messages on every side — to the rank
// itself on a one-rank ring, as the 1-D protocol always did.
const anyRank = -2

// NewExchanger builds an x-only exchanger for a field of the given shape.
func NewExchanger(q int, d grid.Dims, own, width, left, right int) (*Exchanger, error) {
	if width < 1 {
		return nil, fmt.Errorf("halo: width %d < 1", width)
	}
	e, err := NewCartExchanger(q, d, [3]int{own, d.NY, d.NZ}, [3]int{width, 0, 0}, anyRank, [3][2]int{{left, right}})
	if err != nil {
		return nil, err
	}
	return &Exchanger{e}, nil
}

// ExchangeNonBlocking is the NB-C protocol as one call: post receives, send
// borders, wait, unpack.
func (e *Exchanger) ExchangeNonBlocking(r *comm.Rank, f *grid.Field) { e.ExchangeAxis(r, f, 0, true) }

// ExchangeLocal fills the ghost planes directly from the owned borders for
// single-rank runs (periodic in x without messaging).
func (e *Exchanger) ExchangeLocal(f *grid.Field) { e.exchangeLocalAxis(f, 0) }
