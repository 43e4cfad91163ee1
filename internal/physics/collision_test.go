package physics

// Physics validation of the collision-operator subsystem: TRT and MRT
// must reproduce the same transport coefficients as BGK (viscosity is set
// by the shear-moment rate alone), and TRT must deliver the stability
// headroom that motivates it — the τ → ½ regime where BGK diverges.

import (
	"math"
	"testing"

	"repro/internal/collision"
	"repro/internal/core"
	"repro/internal/grid"
	"repro/internal/lattice"
)

// TestCollisionOperatorViscosity: shear-wave and Taylor-Green viscosity
// measurements pass for TRT and MRT at the same tolerances the suite
// applies to BGK (ν depends only on the even/shear relaxation rate).
func TestCollisionOperatorViscosity(t *testing.T) {
	specs := []collision.Spec{
		{Kind: collision.TRT},
		{Kind: collision.TRT, Magic: 3.0 / 16},
		{Kind: collision.MRT},
	}
	for _, m := range []*lattice.Model{lattice.D3Q19(), lattice.D3Q39()} {
		for _, spec := range specs {
			spec := spec
			mod := func(c *core.Config) { c.Collision = spec }
			res, err := ShearWaveViscosity(m, grid.Dims{NX: 32, NY: 6, NZ: 6}, 0.7, 80, mod)
			if err != nil {
				t.Fatalf("%s %s shear: %v", m.Name, spec, err)
			}
			if res.RelError > 0.05 {
				t.Errorf("%s %s: shear-wave viscosity off by %.2f%% (tol 5%%)", m.Name, spec, 100*res.RelError)
			}
			tg, err := TaylorGreenViscosity(m, grid.Dims{NX: 24, NY: 24, NZ: 6}, 0.8, 80, mod)
			if err != nil {
				t.Fatalf("%s %s Taylor-Green: %v", m.Name, spec, err)
			}
			if tg.RelError > 0.07 {
				t.Errorf("%s %s: Taylor-Green viscosity off by %.2f%% (tol 7%%)", m.Name, spec, 100*tg.RelError)
			}
		}
	}
}

// lowTauCavity runs the τ = 0.51 Re=1000 cavity (L=32, so the lid speed
// is set by the Reynolds number) used by the stability tests.
func lowTauCavity(t *testing.T, spec collision.Spec, steps int) (*core.Result, float64) {
	t.Helper()
	m := lattice.D3Q19()
	const tau, re, l = 0.51, 1000.0, 32
	lidU := re * m.Viscosity(tau) / l
	res, err := core.Run(core.Config{
		Model: m, N: grid.Dims{NX: l, NY: l, NZ: 2}, Tau: tau, Steps: steps,
		Opt: core.OptSIMD, Ranks: 1, Threads: 2, GhostDepth: 1,
		Collision: spec,
		Boundary:  core.CavitySpec(lidU), KeepField: true,
	})
	if err != nil {
		t.Fatalf("%s: %v", spec, err)
	}
	return res, lidU
}

// TestTRTStabilityAtLowTau is the headline capability test: on the
// under-resolved Re=1000 cavity at τ = 0.51, BGK blows up while TRT (and
// the default MRT) run stably with bounded velocities — the stability
// wall the ROADMAP's higher-Re item needed removed.
func TestTRTStabilityAtLowTau(t *testing.T) {
	if testing.Short() {
		t.Skip("low-tau cavity transient in -short mode")
	}
	const steps = 4000
	bgk, _ := lowTauCavity(t, collision.Spec{}, steps)
	if !math.IsNaN(bgk.Mass) {
		t.Errorf("BGK at tau=0.51 Re=1000 stayed finite (mass %g); stability test needs a harder case", bgk.Mass)
	}
	for _, spec := range []collision.Spec{{Kind: collision.TRT}, {Kind: collision.MRT}} {
		res, lidU := lowTauCavity(t, spec, steps)
		if math.IsNaN(res.Mass) || math.IsInf(res.Mass, 0) {
			t.Fatalf("%s diverged at tau=0.51 Re=1000", spec)
		}
		// Mass must stay at the initial unit density per cell, and the
		// flow must stay bounded by a modest multiple of the lid speed.
		cells := float64(32 * 32 * 2)
		if d := math.Abs(res.Mass/cells - 1); d > 0.05 {
			t.Errorf("%s: mass per cell drifted to %g", spec, res.Mass/cells)
		}
		prof := CavityProfiles(lattice.D3Q19(), res.Field, lidU)
		for _, u := range prof.U {
			if math.Abs(u) > 3 {
				t.Errorf("%s: centerline u = %g lid units (unbounded)", spec, u)
				break
			}
		}
	}
}

// TestCavityRe1000Centerlines: the new workload this PR unlocks. TRT at
// L=48 (run to steady state — the Re=1000 transient needs ~48 convective
// times) lands within 5% of the Ghia et al. centerlines; the 3%-of-lid
// acceptance bound is met at L=64+, which the lbmvalidate full suite
// checks (resolution, not operator accuracy, is the binding constraint
// at L=48).
func TestCavityRe1000Centerlines(t *testing.T) {
	if testing.Short() {
		t.Skip("Re=1000 steady-state transient in -short mode")
	}
	res, err := RunCavity(CavityConfig{
		L: 48, Re: 1000, Steps: 23040, // 48 convective times
	}, func(c *core.Config) {
		c.Threads = 4
		c.Collision = collision.Spec{Kind: collision.TRT}
	})
	if err != nil {
		t.Fatal(err)
	}
	errU, errV, err := res.CompareCavity(1000)
	if err != nil {
		t.Fatal(err)
	}
	if errU > 0.05 || errV > 0.05 {
		t.Errorf("Re=1000 L=48 TRT: centerline errors %.3f/%.3f of lid speed (tol 0.05)", errU, errV)
	}
	t.Logf("Re=1000 L=48 TRT: errU=%.4f errV=%.4f (tau=%.4f, %d steps)", errU, errV, res.Tau, res.Steps)
}

// TestCollisionOperatorForcing: the velocity-shift body force must inject
// ρ·a per step for every operator — the shift scales with the momentum
// sector's relaxation time (τ⁻ for TRT), not blindly with τ. A TRT
// channel driven with the BGK shift would converge ~40% low at Λ = ¼;
// the Poiseuille parabola catches any such miscalibration. Λ = 3/16 is
// included because it makes bounce-back Poiseuille flow exact for TRT.
func TestCollisionOperatorForcing(t *testing.T) {
	if testing.Short() {
		t.Skip("long relaxation in -short mode")
	}
	for _, spec := range []collision.Spec{
		{Kind: collision.TRT},
		{Kind: collision.TRT, Magic: 3.0 / 16},
		{Kind: collision.MRT},
	} {
		spec := spec
		res, err := PoiseuilleChannel(lattice.D3Q19(), 16, 1.0, 1e-6, 0, func(c *core.Config) {
			c.Collision = spec
		})
		if err != nil {
			t.Fatalf("%s: %v", spec, err)
		}
		t.Logf("%s H=16: max rel err %.4f", spec, res.MaxRelErr)
		if res.MaxRelErr > 0.02 {
			t.Errorf("%s: Poiseuille profile deviates %.2f%% (tol 2%%; forcing shift miscalibrated?)", spec, 100*res.MaxRelErr)
		}
	}
}

// TestCompareCavityRejectsNaN: a diverged run reports an error instead of
// a vacuous zero deviation.
func TestCompareCavityRejectsNaN(t *testing.T) {
	r := &CavityResult{
		U: []float64{0, math.NaN()}, YU: []float64{0.25, 0.75},
		V: []float64{0, 0}, XV: []float64{0.25, 0.75},
	}
	if _, _, err := r.CompareCavity(100); err == nil {
		t.Error("NaN profile compared without error")
	}
}
