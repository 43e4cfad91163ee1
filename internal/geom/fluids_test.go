package geom

import (
	"math/rand"
	"slices"
	"testing"

	"repro/internal/grid"
)

func randomMask(t *testing.T, d grid.Dims, density float64, seed int64) *Mask {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	return FromFunc(d, func(ix, iy, iz int) bool {
		return rng.Float64() < density
	})
}

// PlaneFluids must agree with a brute-force per-plane count and sum to
// Fluids() on every axis.
func TestPlaneFluidsBruteForce(t *testing.T) {
	d := grid.Dims{NX: 7, NY: 5, NZ: 9}
	m := randomMask(t, d, 0.4, 1)
	n := [3]int{d.NX, d.NY, d.NZ}
	for axis := 0; axis < 3; axis++ {
		got := m.PlaneFluids(axis)
		if len(got) != n[axis] {
			t.Fatalf("axis %d: len %d, want %d", axis, len(got), n[axis])
		}
		total := 0
		for i, g := range got {
			want := 0
			for ix := 0; ix < d.NX; ix++ {
				for iy := 0; iy < d.NY; iy++ {
					for iz := 0; iz < d.NZ; iz++ {
						if [3]int{ix, iy, iz}[axis] == i && !m.At(ix, iy, iz) {
							want++
						}
					}
				}
			}
			if g != want {
				t.Errorf("axis %d plane %d: got %d, want %d", axis, i, g, want)
			}
			total += g
		}
		if total != m.Fluids() {
			t.Errorf("axis %d: planes sum to %d, Fluids() = %d", axis, total, m.Fluids())
		}
	}
}

func TestFluidsInBoxBruteForce(t *testing.T) {
	d := grid.Dims{NX: 6, NY: 8, NZ: 5}
	m := randomMask(t, d, 0.5, 2)
	rng := rand.New(rand.NewSource(3))
	n := [3]int{d.NX, d.NY, d.NZ}
	for trial := 0; trial < 50; trial++ {
		var lo, hi [3]int
		for a := 0; a < 3; a++ {
			lo[a] = rng.Intn(n[a] + 1)
			hi[a] = rng.Intn(n[a] + 1)
		}
		got := m.FluidsInBox(lo, hi)
		want := 0
		for ix := 0; ix < d.NX; ix++ {
			for iy := 0; iy < d.NY; iy++ {
				for iz := 0; iz < d.NZ; iz++ {
					p := [3]int{ix, iy, iz}
					in := true
					for a := 0; a < 3; a++ {
						if p[a] < lo[a] || p[a] >= hi[a] {
							in = false
						}
					}
					if in && !m.At(ix, iy, iz) {
						want++
					}
				}
			}
		}
		if got != want {
			t.Fatalf("box %v-%v: got %d, want %d", lo, hi, got, want)
		}
	}
	// Whole-box query equals Fluids, clipping handles out-of-range bounds.
	if got := m.FluidsInBox([3]int{-3, -3, -3}, [3]int{99, 99, 99}); got != m.Fluids() {
		t.Errorf("clipped whole box: got %d, want %d", got, m.Fluids())
	}
	if got := m.FluidsInBox([3]int{2, 2, 2}, [3]int{2, 5, 5}); got != 0 {
		t.Errorf("empty box: got %d, want 0", got)
	}
}

// The bifurcation demo mask must be in the arterial sparsity regime
// (≥90% solid), connected enough to have fluid at the inlet and both
// outlet branches, and keep its lumen off the y/z walls.
func TestBifurcationMask(t *testing.T) {
	d := grid.Dims{NX: 96, NY: 48, NZ: 48}
	m := Bifurcation(d, 0.1*float64(d.NY))
	solidFrac := float64(m.Solids()) / float64(d.Cells())
	if solidFrac < 0.90 {
		t.Errorf("solid fraction %.3f, want >= 0.90", solidFrac)
	}
	if m.Fluids() == 0 {
		t.Fatal("no fluid cells at all")
	}
	// Inlet plane (x=0) and outlet plane (x=NX-1) both carry fluid.
	px := m.PlaneFluids(0)
	if px[0] == 0 {
		t.Error("no fluid at inlet plane x=0")
	}
	if px[d.NX-1] == 0 {
		t.Error("no fluid at outlet plane x=NX-1")
	}
	// Outlet fluid sits in two disjoint y bands (top and bottom branch).
	top, bot := 0, 0
	for iy := 0; iy < d.NY; iy++ {
		for iz := 0; iz < d.NZ; iz++ {
			if !m.At(d.NX-1, iy, iz) {
				if iy >= d.NY/2 {
					top++
				} else {
					bot++
				}
			}
		}
	}
	if top == 0 || bot == 0 {
		t.Errorf("outlet branches: top %d, bottom %d fluid cells; want both > 0", top, bot)
	}
	// Lumen stays off the y walls so wall boundary conditions see solid.
	for ix := 0; ix < d.NX; ix++ {
		for iz := 0; iz < d.NZ; iz++ {
			if !m.At(ix, 0, iz) || !m.At(ix, d.NY-1, iz) {
				t.Fatalf("fluid on y wall at x=%d z=%d", ix, iz)
			}
		}
	}
}

// rowRunsPerPoint is RowRuns' reference: the fluid runs of row (ix, iy)
// read point by point through At.
func rowRunsPerPoint(m *Mask, ix, iy int) []Run {
	var out []Run
	for z := 0; z < m.D.NZ; z++ {
		if m.At(ix, iy, z) {
			continue
		}
		if k := len(out) - 1; k >= 0 && out[k].Hi == z {
			out[k].Hi++
		} else {
			out = append(out, Run{Lo: z, Hi: z + 1})
		}
	}
	return out
}

// checkRowRuns holds every row of m to rowRunsPerPoint, and checks that
// RowRuns appends to what dst already holds.
func checkRowRuns(t *testing.T, m *Mask) {
	t.Helper()
	keep := []Run{{Lo: -7, Hi: -3}}
	for ix := 0; ix < m.D.NX; ix++ {
		for iy := 0; iy < m.D.NY; iy++ {
			got := m.RowRuns(keep[:1:1], ix, iy)
			want := rowRunsPerPoint(m, ix, iy)
			if got[0] != keep[0] || !slices.Equal(got[1:], want) {
				t.Fatalf("%v row (%d, %d): RowRuns %v, per point %v", m.D, ix, iy, got, want)
			}
		}
	}
}

// TestRowRunsMatchAt: the word-level row reader returns exactly the fluid
// runs At reads, on random masks whose rows are shorter than a word, one
// short of it, exactly one, one past it, 1.5 and just over 2 words long —
// so rows start and end mid-word and runs cross word boundaries — at
// densities from all-fluid to all-solid, with one all-fluid and one
// all-solid row planted in each, the mask's last row among them.
func TestRowRunsMatchAt(t *testing.T) {
	for _, nz := range []int{1, 63, 64, 65, 96, 130} {
		d := grid.Dims{NX: 3, NY: 5, NZ: nz}
		for i, density := range []float64{0, 0.05, 0.5, 0.95, 1} {
			m := randomMask(t, d, density, int64(nz*10+i))
			for z := 0; z < nz; z++ {
				m.Set(1, 2, z, false)                   // all fluid
				m.Set(d.NX-1, d.NY-1, z, density < 0.5) // the last row: all solid, or all fluid
			}
			checkRowRuns(t, m)
		}
	}
}
