package core

// Solid obstacles and body forces. The paper's code is the fluid component
// of a multiphysics framework for "complicated geometries from microfluidic
// devices to patient-specific arterial geometries" (§I) and praises the
// LBM's "advantageous handling of complex flow phenomena in irregular
// boundary conditions" (§II); this file supplies those two ingredients for
// the periodic benchmark solver:
//
//   - a voxel solid mask (geom.Mask) with halfway bounce-back walls,
//     implemented as a fixup of the streamed values so every optimization
//     level's kernels stay untouched: any population that streamed out of a
//     solid cell is replaced by the reflection of the fluid cell's own
//     pre-stream population, which places the no-slip wall half a link
//     beyond the fluid cell and conserves fluid mass exactly;
//
//   - a constant body acceleration via the exact-difference velocity shift:
//     the equilibrium is evaluated at u + τ·a, which adds ρ·a of momentum
//     per cell per step (the standard driving for channel flows).
//
// The fixup links are found by the stepper's buildFixups (cart.go) and live
// in the per-box fixup index of fixindex.go, which is also the inventory
// the momentum-exchange force measurement walks. Every path applies them
// in the row body (gather.go): each row's links go into the streamed row —
// fadv's just after its block streamed, or the rows the gather sweep read — right
// before it is relaxed.

import (
	"repro/internal/geom"
	"repro/internal/grid"
)

// FluidCells counts the non-solid cells of a global domain under a voxel
// mask (the paper's N_fl in Eq. 4); a nil mask means every cell is fluid.
func FluidCells(n grid.Dims, solid *geom.Mask) int {
	if solid == nil {
		return n.Cells()
	}
	return solid.Fluids()
}
