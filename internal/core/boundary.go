package core

// Solid obstacles and body forces. The paper's code is the fluid component
// of a multiphysics framework for "complicated geometries from microfluidic
// devices to patient-specific arterial geometries" (§I) and praises the
// LBM's "advantageous handling of complex flow phenomena in irregular
// boundary conditions" (§II); this file supplies those two ingredients for
// the periodic benchmark solver:
//
//   - a voxel solid mask (geom.Mask) with halfway bounce-back walls,
//     implemented as a post-streaming fixup so every optimization level's
//     kernels stay untouched: any population that streamed out of a solid
//     cell is replaced by the reflection of the fluid cell's own pre-stream
//     population, which places the no-slip wall half a link beyond the
//     fluid cell and conserves fluid mass exactly;
//
//   - a constant body acceleration via the exact-difference velocity shift:
//     the equilibrium is evaluated at u + τ·a, which adds ρ·a of momentum
//     per cell per step (the standard driving for channel flows).
//
// The fixup links are found by the stepper's buildFixups (cart.go) and live
// in the per-box fixup index of fixindex.go, which also supplies the
// momentum-exchange force measurement. The bounce-back fixup runs between
// stream and collide, so it is incompatible with the fused kernel (which
// has no such point); the configuration validator enforces that.

import (
	"repro/internal/geom"
	"repro/internal/grid"
)

// appendForceStep closes one time step's force accumulation: the step's
// owned-link sums join the per-step series that Run reduces across ranks.
func appendForceStep(series []float64, acc *[numBodies][3]float64) []float64 {
	for b := 0; b < numBodies; b++ {
		series = append(series, acc[b][0], acc[b][1], acc[b][2])
		acc[b] = [3]float64{}
	}
	return series
}

// FluidCells counts the non-solid cells of a global domain under a voxel
// mask (the paper's N_fl in Eq. 4); a nil mask means every cell is fluid.
func FluidCells(n grid.Dims, solid *geom.Mask) int {
	if solid == nil {
		return n.Cells()
	}
	return solid.Fluids()
}
