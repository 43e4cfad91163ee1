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

// PackPlanesVel packs only the listed velocities of x-planes [x0,x1), in
// list order, and returns the number of values packed. Used by the
// no-ghost-cell ("Orig") protocol, which ships only the populations that
// actually crossed the boundary during streaming. Each velocity block
// stores whole x-planes contiguously, so the planes are one span.
func PackPlanesVel(f *grid.Field, x0, x1 int, vels []int, buf []float64) int {
	return copyPlanes(f, x0, x1, vels, buf, false)
}

// UnpackPlanesVel is the inverse of PackPlanesVel.
func UnpackPlanesVel(f *grid.Field, x0, x1 int, vels []int, buf []float64) int {
	return copyPlanes(f, x0, x1, vels, buf, true)
}

// copyPlanes moves the listed velocity blocks of x-planes [x0,x1) as one
// span; an empty list or plane range moves nothing.
func copyPlanes(f *grid.Field, x0, x1 int, vels []int, buf []float64, unpack bool) int {
	plane := f.D.PlaneCells()
	n := (x1 - x0) * plane
	if n <= 0 || len(vels) == 0 {
		return 0
	}
	return copySpans(f, vels, []span{{off: x0 * plane, n: n}}, buf[:len(vels)*n], unpack)
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
