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
// The fixup links live in the per-box fixup index of fixindex.go, which
// also supplies the momentum-exchange force measurement. The bounce-back
// fixup runs between stream and collide, so it is incompatible with the
// fused kernel (which has no such point); the configuration validator
// enforces that.

import (
	"repro/internal/geom"
	"repro/internal/grid"
	"repro/internal/obs"
)

// buildMask evaluates the global voxel mask over the local field
// (including ghost/margin planes, with periodic wrap in x) and builds the
// bounce-back fixup index. The slab stepper handles only fully periodic
// domains, so every link is an obstacle link with zero delta.
func (s *stepper) buildMask() {
	if s.cfg.Solid == nil {
		return
	}
	nx, ny, nz := s.d.NX, s.d.NY, s.d.NZ
	gnx := s.cfg.N.NX
	s.mask = make([]bool, s.d.Cells())
	for ix := 0; ix < nx; ix++ {
		gx := ((s.startX+ix-s.w)%gnx + gnx) % gnx
		for iy := 0; iy < ny; iy++ {
			for iz := 0; iz < nz; iz++ {
				s.mask[s.d.Index(ix, iy, iz)] = s.cfg.Solid.At(gx, iy, iz)
			}
		}
	}
	m := s.model
	s.fix = newFixIndex(s.d, m)
	for ix := 0; ix < nx; ix++ {
		owned := ix >= s.w && ix < s.w+s.own
		for iy := 0; iy < ny; iy++ {
			for iz := 0; iz < nz; iz++ {
				cell := s.d.Index(ix, iy, iz)
				if s.mask[cell] {
					continue
				}
				for v := 0; v < m.Q; v++ {
					sx := ix - m.Cx[v]
					if sx < 0 || sx >= nx {
						continue // outside the allocation; never streamed
					}
					sy := ((iy-m.Cy[v])%ny + ny) % ny
					sz := ((iz-m.Cz[v])%nz + nz) % nz
					if s.mask[s.d.Index(sx, sy, sz)] {
						flags := fixObstacle
						if owned {
							flags |= fixOwned
						}
						s.fix.add(ix, iy, iz, v, m.Opp[v], 0, flags)
					}
				}
			}
		}
	}
	s.fix.finish()
}

// applyBounceBack applies the fixup links of destination planes [lo,hi)
// (full y/z extent) through the per-box index, accumulating
// momentum-exchange forces when the run measures them.
func (s *stepper) applyBounceBack(lo, hi int) {
	if s.fix.empty() || hi <= lo {
		return
	}
	t0 := s.rec.Begin()
	defer s.rec.End(obs.Fixup, t0)
	b := s.slabBox(lo, hi)
	if s.cfg.MeasureForces {
		// Serial: force sums must keep one accumulation order.
		s.fix.applyBoxForce(s.f, s.fadv, b, &s.stepForce)
		return
	}
	s.br.run(func(worker int, sub box) {
		s.fix.applyBox(s.f, s.fadv, sub)
	}, b)
}

// endForceStep closes one time step's force accumulation: the step's
// owned-link sums join the per-step series that Run reduces across ranks.
func appendForceStep(series []float64, acc *[numBodies][3]float64) []float64 {
	for b := 0; b < numBodies; b++ {
		series = append(series, acc[b][0], acc[b][1], acc[b][2])
		acc[b] = [3]float64{}
	}
	return series
}

func (s *stepper) endForceStep() {
	if !s.cfg.MeasureForces {
		return
	}
	t0 := s.rec.Begin()
	s.forceSer = appendForceStep(s.forceSer, &s.stepForce)
	s.rec.End(obs.Force, t0)
}

// FluidCells counts the non-solid cells of a global domain under a voxel
// mask (the paper's N_fl in Eq. 4); a nil mask means every cell is fluid.
func FluidCells(n grid.Dims, solid *geom.Mask) int {
	if solid == nil {
		return n.Cells()
	}
	return solid.Fluids()
}
