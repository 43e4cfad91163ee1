package macro

import (
	"math"
	"testing"

	"repro/internal/grid"
	"repro/internal/lattice"
)

// buildField fills a field with equilibria of a known macroscopic state.
func buildField(m *lattice.Model, n grid.Dims, state func(ix, iy, iz int) (float64, float64, float64, float64)) *grid.Field {
	f := grid.NewField(m.Q, n, grid.SoA)
	feq := make([]float64, m.Q)
	for ix := 0; ix < n.NX; ix++ {
		for iy := 0; iy < n.NY; iy++ {
			for iz := 0; iz < n.NZ; iz++ {
				rho, ux, uy, uz := state(ix, iy, iz)
				m.Equilibrium(rho, ux, uy, uz, feq)
				f.SetCell(ix, iy, iz, feq)
			}
		}
	}
	return f
}

func TestComputeRecoversState(t *testing.T) {
	m := lattice.D3Q19()
	n := grid.Dims{NX: 4, NY: 3, NZ: 5}
	state := func(ix, iy, iz int) (float64, float64, float64, float64) {
		return 1 + 0.01*float64(ix), 0.01 * float64(iy), -0.005 * float64(iz), 0.002
	}
	fields := Compute(m, buildField(m, n, state), [3]float64{})
	for ix := 0; ix < n.NX; ix++ {
		for iy := 0; iy < n.NY; iy++ {
			for iz := 0; iz < n.NZ; iz++ {
				wr, wx, wy, wz := state(ix, iy, iz)
				rho, ux, uy, uz := fields.At(ix, iy, iz)
				if math.Abs(rho-wr) > 1e-13 || math.Abs(ux-wx) > 1e-13 ||
					math.Abs(uy-wy) > 1e-13 || math.Abs(uz-wz) > 1e-13 {
					t.Fatalf("(%d,%d,%d): got (%g,%g,%g,%g) want (%g,%g,%g,%g)",
						ix, iy, iz, rho, ux, uy, uz, wr, wx, wy, wz)
				}
			}
		}
	}
}

// TestSoABlockedMatchesPerCell: the velocity-blocked pass must agree with
// a per-cell gather through lattice.Moments to 0 ULP — both sum the
// moments in v-ascending order, so the only difference is traversal order.
func TestSoABlockedMatchesPerCell(t *testing.T) {
	for _, m := range []*lattice.Model{lattice.D3Q19(), lattice.D3Q39()} {
		n := grid.Dims{NX: 5, NY: 4, NZ: 7}
		state := func(ix, iy, iz int) (float64, float64, float64, float64) {
			return 1 + 0.02*float64(ix*iz%3), 0.01 * float64(iy), -0.007 * float64(ix), 0.003 * float64(iz)
		}
		f := buildField(m, n, state)
		shift := [3]float64{0.004, -0.002, 0.001}
		fs := Compute(m, f, shift)
		fc := make([]float64, m.Q)
		for c := 0; c < n.Cells(); c++ {
			for v := 0; v < m.Q; v++ {
				fc[v] = f.Data[f.Idx(v, c)]
			}
			rho, jx, jy, jz := m.Moments(fc)
			ux, uy, uz := jx/rho+shift[0], jy/rho+shift[1], jz/rho+shift[2]
			if fs.Rho[c] != rho || fs.Ux[c] != ux || fs.Uy[c] != uy || fs.Uz[c] != uz {
				t.Fatalf("%s cell %d: blocked (%v,%v,%v,%v) != per-cell (%v,%v,%v,%v)", m.Name, c,
					fs.Rho[c], fs.Ux[c], fs.Uy[c], fs.Uz[c], rho, ux, uy, uz)
			}
		}
	}
}

func TestAccelShift(t *testing.T) {
	m := lattice.D3Q19()
	n := grid.Dims{NX: 2, NY: 2, NZ: 2}
	f := buildField(m, n, func(ix, iy, iz int) (float64, float64, float64, float64) {
		return 1, 0.01, 0, 0
	})
	fields := Compute(m, f, [3]float64{0.005, 0, 0})
	_, ux, _, _ := fields.At(0, 0, 0)
	if math.Abs(ux-0.015) > 1e-13 {
		t.Errorf("ux = %g, want 0.015", ux)
	}
}

func TestAggregates(t *testing.T) {
	m := lattice.D3Q39()
	n := grid.Dims{NX: 3, NY: 2, NZ: 2}
	f := buildField(m, n, func(ix, iy, iz int) (float64, float64, float64, float64) {
		return 2, 0.03, 0.04, 0
	})
	fields := Compute(m, f, [3]float64{})
	cells := float64(n.Cells())
	if got, want := fields.TotalMass(), 2*cells; math.Abs(got-want) > 1e-10 {
		t.Errorf("TotalMass = %g, want %g", got, want)
	}
	px, py, pz := fields.TotalMomentum()
	if math.Abs(px-2*0.03*cells) > 1e-10 || math.Abs(py-2*0.04*cells) > 1e-10 || math.Abs(pz) > 1e-10 {
		t.Errorf("momentum = (%g,%g,%g)", px, py, pz)
	}
	// |u| = 0.05 everywhere.
	if got := fields.MaxSpeed(); math.Abs(got-0.05) > 1e-12 {
		t.Errorf("MaxSpeed = %g, want 0.05", got)
	}
	if got := fields.Speed(1, 1, 1); math.Abs(got-0.05) > 1e-12 {
		t.Errorf("Speed = %g, want 0.05", got)
	}
	// E = ρu²/2 per cell.
	if got, want := fields.KineticEnergy(), 2*0.0025/2*cells; math.Abs(got-want) > 1e-10 {
		t.Errorf("KineticEnergy = %g, want %g", got, want)
	}
}
