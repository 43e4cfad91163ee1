package physics

import (
	"math"
	"testing"

	"repro/internal/core"
	"repro/internal/lattice"
)

// TestCavityRefTables sanity-checks the reference data: coordinates
// ascend through [0,1], wall anchors are exact, and the well-known
// extrema of the two Reynolds numbers are present.
func TestCavityRefTables(t *testing.T) {
	for _, re := range []int{100, 400, 1000} {
		for name, tab := range map[string][]RefPoint{"u": CavityRefU(re), "v": CavityRefV(re)} {
			if tab == nil {
				t.Fatalf("Re=%d: missing %s table", re, name)
			}
			for i := 1; i < len(tab); i++ {
				if tab[i].Coord <= tab[i-1].Coord {
					t.Errorf("Re=%d %s: coords not ascending at %d", re, name, i)
				}
			}
			if tab[0].Coord != 0 || tab[len(tab)-1].Coord != 1 {
				t.Errorf("Re=%d %s: endpoints %g..%g, want 0..1", re, name, tab[0].Coord, tab[len(tab)-1].Coord)
			}
		}
		if CavityRefU(re)[len(CavityRefU(re))-1].Value != 1 {
			t.Errorf("Re=%d: lid anchor != 1", re)
		}
	}
	if CavityRefU(3200) != nil || CavityRefV(7) != nil {
		t.Error("untabulated Reynolds numbers must return nil")
	}
	// Extrema (lid units): Re=100 min u ≈ −0.211, Re=400 min v ≈ −0.450,
	// Re=1000 min v ≈ −0.516 (the Ghia et al. near-wall jet).
	minOf := func(tab []RefPoint) float64 {
		m := tab[0].Value
		for _, p := range tab {
			if p.Value < m {
				m = p.Value
			}
		}
		return m
	}
	if m := minOf(CavityRefU(100)); math.Abs(m+0.21090) > 1e-9 {
		t.Errorf("Re=100 u minimum = %g", m)
	}
	if m := minOf(CavityRefV(400)); math.Abs(m+0.44993) > 1e-9 {
		t.Errorf("Re=400 v minimum = %g", m)
	}
	if m := minOf(CavityRefV(1000)); math.Abs(m+0.51550) > 1e-9 {
		t.Errorf("Re=1000 v minimum = %g", m)
	}
}

// TestCavityRe100Centerlines is the acceptance experiment: the Re=100
// lid-driven cavity must reproduce the Hou et al. reference centerline
// profiles within 3% of the lid speed at every tabulated point.
func TestCavityRe100Centerlines(t *testing.T) {
	res, err := RunCavity(CavityConfig{L: 32, Re: 100}, nil)
	if err != nil {
		t.Fatal(err)
	}
	errU, errV, err := res.CompareCavity(100)
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("Re=100 L=32 steps=%d tau=%.3f: max err u=%.4f v=%.4f (lid units)", res.Steps, res.Tau, errU, errV)
	if errU > 0.03 {
		t.Errorf("u centerline deviates %.2f%% of lid speed (tol 3%%)", 100*errU)
	}
	if errV > 0.03 {
		t.Errorf("v centerline deviates %.2f%% of lid speed (tol 3%%)", 100*errV)
	}
	// The cavity leaks no fluid: mass stays at the L·L·NZ rest total to
	// within the corner-singularity correction of the moving lid (< 1e-4
	// relative at this size).
	total := float64(32 * 32 * 2)
	if d := math.Abs(res.Res.Mass-total) / total; d > 1e-4 {
		t.Errorf("cavity mass drifted %.2e relative", d)
	}
}

// TestCavityRe400Centerlines repeats the comparison at Re=400 (skipped in
// -short mode: the higher Reynolds number needs a longer transient).
func TestCavityRe400Centerlines(t *testing.T) {
	if testing.Short() {
		t.Skip("long transient in -short mode")
	}
	res, err := RunCavity(CavityConfig{L: 48, Re: 400, Steps: 16000}, nil)
	if err != nil {
		t.Fatal(err)
	}
	errU, errV, err := res.CompareCavity(400)
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("Re=400 L=48 steps=%d tau=%.3f: max err u=%.4f v=%.4f (lid units)", res.Steps, res.Tau, errU, errV)
	if errU > 0.03 {
		t.Errorf("u centerline deviates %.2f%% of lid speed (tol 3%%)", 100*errU)
	}
	if errV > 0.03 {
		t.Errorf("v centerline deviates %.2f%% of lid speed (tol 3%%)", 100*errV)
	}
}

// TestCavityDecompositionInvariance: the cavity physics must not depend
// on the rank grid (a short transient compared bitwise-tightly).
func TestCavityDecompositionInvariance(t *testing.T) {
	base := CavityConfig{L: 16, Re: 50, Steps: 120}
	ref, err := RunCavity(base, nil)
	if err != nil {
		t.Fatal(err)
	}
	got, err := RunCavity(base, func(c *core.Config) {
		c.Ranks, c.Decomp = 4, [3]int{2, 2, 1}
	})
	if err != nil {
		t.Fatal(err)
	}
	for i := range ref.U {
		if d := math.Abs(ref.U[i] - got.U[i]); d > 1e-12 {
			t.Fatalf("u profile differs across decompositions at %d: %g", i, d)
		}
	}
	if d := math.Abs(ref.Res.Mass - got.Res.Mass); d > 1e-12*ref.Res.Mass {
		t.Errorf("mass differs across decompositions: %g", d)
	}
}

// TestPoiseuilleChannelBC: the global-wall channel must converge to the
// analytic parabola within 2% of the centerline velocity for both
// lattices.
func TestPoiseuilleChannelBC(t *testing.T) {
	if testing.Short() {
		t.Skip("long relaxation in -short mode")
	}
	for _, tc := range []struct {
		m   *lattice.Model
		h   int
		tau float64
	}{
		{lattice.D3Q19(), 16, 1.0},
		// The multispeed D3Q39 reflects its k=3 links at the same halfway
		// plane, a slightly larger slip error — a taller channel keeps it
		// inside the shared tolerance.
		{lattice.D3Q39(), 18, 1.0},
	} {
		res, err := PoiseuilleChannel(tc.m, tc.h, tc.tau, 1e-6, 0, nil)
		if err != nil {
			t.Fatalf("%s: %v", tc.m.Name, err)
		}
		t.Logf("%s H=%d: max rel err %.4f (umax %.3e)", tc.m.Name, tc.h, res.MaxRelErr, res.UMaxTheory)
		if res.MaxRelErr > 0.02 {
			t.Errorf("%s: Poiseuille profile deviates %.2f%% (tol 2%%)", tc.m.Name, 100*res.MaxRelErr)
		}
	}
}
