// Package macro extracts macroscopic observables (density, velocity,
// kinetic energy, momentum) from distribution-function fields. It is the
// shared post-processing layer used by the physics validations, the output
// writers and the examples.
package macro

import (
	"math"

	"repro/internal/grid"
	"repro/internal/lattice"
)

// Fields holds the macroscopic state over a box, cell-indexed like the
// source field (z fastest).
type Fields struct {
	D               grid.Dims
	Rho, Ux, Uy, Uz []float64
}

// Compute derives the macroscopic fields of f. The optional accelShift is
// added to the velocities (use a/2 for the velocity-shift forced scheme's
// physical velocity; zero otherwise).
//
// It takes one contiguous pass per velocity block, accumulating the
// moments in v-ascending order — the same summation order as
// lattice.Moments, so the results are bit-identical to a per-cell gather
// while streaming the field at copy bandwidth instead of striding
// cells-apart.
func Compute(m *lattice.Model, f *grid.Field, accelShift [3]float64) *Fields {
	n := f.D.Cells()
	out := &Fields{
		D:   f.D,
		Rho: make([]float64, n),
		Ux:  make([]float64, n),
		Uy:  make([]float64, n),
		Uz:  make([]float64, n),
	}
	// Accumulate momenta into Ux/Uy/Uz, then normalize in place.
	rho, jx, jy, jz := out.Rho, out.Ux, out.Uy, out.Uz
	for v := 0; v < m.Q; v++ {
		blk := f.V(v)[:n]
		cx, cy, cz := float64(m.Cx[v]), float64(m.Cy[v]), float64(m.Cz[v])
		for c, val := range blk {
			rho[c] += val
			jx[c] += val * cx
			jy[c] += val * cy
			jz[c] += val * cz
		}
	}
	for c := 0; c < n; c++ {
		r := rho[c]
		jx[c] = jx[c]/r + accelShift[0]
		jy[c] = jy[c]/r + accelShift[1]
		jz[c] = jz[c]/r + accelShift[2]
	}
	return out
}

// At returns the macroscopic state at a lattice point.
func (f *Fields) At(ix, iy, iz int) (rho, ux, uy, uz float64) {
	c := f.D.Index(ix, iy, iz)
	return f.Rho[c], f.Ux[c], f.Uy[c], f.Uz[c]
}

// Speed returns |u| at a lattice point.
func (f *Fields) Speed(ix, iy, iz int) float64 {
	c := f.D.Index(ix, iy, iz)
	return math.Sqrt(f.Ux[c]*f.Ux[c] + f.Uy[c]*f.Uy[c] + f.Uz[c]*f.Uz[c])
}

// KineticEnergy returns Σ ρu²/2 over the box.
func (f *Fields) KineticEnergy() float64 {
	var e float64
	for c := range f.Rho {
		u2 := f.Ux[c]*f.Ux[c] + f.Uy[c]*f.Uy[c] + f.Uz[c]*f.Uz[c]
		e += f.Rho[c] * u2 / 2
	}
	return e
}

// TotalMass returns Σ ρ over the box.
func (f *Fields) TotalMass() float64 {
	var mass float64
	for _, r := range f.Rho {
		mass += r
	}
	return mass
}

// TotalMomentum returns Σ ρu over the box.
func (f *Fields) TotalMomentum() (px, py, pz float64) {
	for c := range f.Rho {
		px += f.Rho[c] * f.Ux[c]
		py += f.Rho[c] * f.Uy[c]
		pz += f.Rho[c] * f.Uz[c]
	}
	return
}

// MaxSpeed returns the largest |u| over the box (a stability indicator:
// it should stay well below c_s).
func (f *Fields) MaxSpeed() float64 {
	var worst float64
	for c := range f.Rho {
		u2 := f.Ux[c]*f.Ux[c] + f.Uy[c]*f.Uy[c] + f.Uz[c]*f.Uz[c]
		if u2 > worst {
			worst = u2
		}
	}
	return math.Sqrt(worst)
}
