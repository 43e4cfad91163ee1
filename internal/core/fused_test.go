package core

import (
	"math"
	"testing"
	"testing/quick"

	"repro/internal/collision"
	"repro/internal/geom"
	"repro/internal/grid"
	"repro/internal/lattice"
)

// TestFusedEquivalence: the fused kernel must match the oracle across
// optimization levels, rank counts, depths and threads, for both models.
func TestFusedEquivalence(t *testing.T) {
	for _, m := range []*lattice.Model{lattice.D3Q19(), lattice.D3Q39()} {
		n := grid.Dims{NX: 16, NY: 6, NZ: 7}
		for _, opt := range []OptLevel{OptGC, OptNBC, OptGCC, OptSIMD} {
			for _, ranks := range []int{1, 2} {
				cfg := Config{
					Model: m, N: n, Tau: 0.8, Steps: 5,
					Opt: opt, Ranks: ranks, Threads: 1, GhostDepth: 1,
					Fused: true,
				}
				runAndCompare(t, cfg)
			}
		}
	}
}

func TestFusedDeepHalo(t *testing.T) {
	n := grid.Dims{NX: 24, NY: 5, NZ: 5}
	for _, depth := range []int{2, 3} {
		for _, ranks := range []int{1, 3} {
			runAndCompare(t, Config{
				Model: lattice.D3Q19(), N: n, Tau: 0.9, Steps: 7,
				Opt: OptGCC, Ranks: ranks, Threads: 1, GhostDepth: depth,
				Fused: true,
			})
		}
	}
}

func TestFusedThreaded(t *testing.T) {
	n := grid.Dims{NX: 18, NY: 6, NZ: 8}
	for _, threads := range []int{2, 4} {
		runAndCompare(t, Config{
			Model: lattice.D3Q19(), N: n, Tau: 0.75, Steps: 4,
			Opt: OptSIMD, Ranks: 2, Threads: threads, GhostDepth: 2,
			Fused: true,
		})
	}
}

func TestFusedQ39DeepHaloMultiRank(t *testing.T) {
	n := grid.Dims{NX: 24, NY: 6, NZ: 6}
	runAndCompare(t, Config{
		Model: lattice.D3Q39(), N: n, Tau: 1.0, Steps: 4,
		Opt: OptGCC, Ranks: 2, Threads: 2, GhostDepth: 2,
		Fused: true,
	})
}

func TestFusedValidation(t *testing.T) {
	base := Config{Model: lattice.D3Q19(), N: grid.Dims{NX: 8, NY: 4, NZ: 4}, Tau: 0.8, Steps: 1, Fused: true}
	cfg := base
	cfg.Opt = OptOrig
	if _, err := Run(cfg); err == nil {
		t.Error("fused + Orig accepted")
	}
	cfg = base
	cfg.Opt, cfg.Stream = OptGC, StreamAA
	if _, err := Run(cfg); err == nil {
		t.Error("fused + AA accepted")
	}
	// Everything else composes with it.
	n := grid.Dims{NX: 12, NY: 8, NZ: 8}
	base.N, base.Opt = n, OptGC
	for name, mod := range map[string]func(*Config){
		"plain":          func(c *Config) {},
		"trt":            func(c *Config) { c.Collision = collision.Spec{Kind: collision.TRT} },
		"mrt":            func(c *Config) { c.Collision = collision.Spec{Kind: collision.MRT} },
		"solid":          func(c *Config) { c.Solid = geom.SphereAt(n, 6, 4, 4, 2) },
		"solid + sparse": func(c *Config) { c.Solid, c.Sparse = geom.SphereAt(n, 6, 4, 4, 2), true },
		"walls":          func(c *Config) { c.Boundary = CavitySpec(0.05) },
		"inlet/pressure": func(c *Config) { c.Boundary = InletChannelSpec(0.02, nil) },
		"outflow": func(c *Config) {
			s := *InletChannelSpec(0.02, nil)
			s.Faces[0][1] = Face{Kind: BCOutflow}
			c.Boundary = &s
		},
		"forces": func(c *Config) { c.Solid, c.MeasureForces = geom.SphereAt(n, 6, 4, 4, 2), true },
	} {
		cfg := base
		mod(&cfg)
		if err := cfg.Validate(); err != nil {
			t.Errorf("fused + %s rejected: %v", name, err)
		}
	}
}

// TestRandomizedConfigEquivalence is the property-based sweep: random
// (bounded) configurations of the solver must match the oracle, fused or
// not.
func TestRandomizedConfigEquivalence(t *testing.T) {
	if testing.Short() {
		t.Skip("randomized sweep in -short mode")
	}
	prop := func(optR, ranksR, threadsR, depthR, stepsR uint8, fused bool) bool {
		levels := Levels()
		opt := levels[int(optR)%len(levels)]
		ranks := int(ranksR)%3 + 1
		threads := int(threadsR)%2 + 1
		depth := int(depthR)%3 + 1
		steps := int(stepsR)%6 + 1
		if opt == OptOrig {
			depth = 1
			fused = false
		}
		n := grid.Dims{NX: 18, NY: 5, NZ: 6}
		cfg := Config{
			Model: lattice.D3Q19(), N: n, Tau: 0.8, Steps: steps,
			Opt: opt, Ranks: ranks, Threads: threads, GhostDepth: depth,
			Fused: fused, KeepField: true, Init: waveInit(n),
		}
		res, err := Run(cfg)
		if err != nil {
			t.Logf("config rejected: %v", err)
			return false
		}
		want := refSolverBounded(cfg.Model, cfg.N, cfg.Tau, cfg.Steps, cfg.Init, nil, nil, [3]float64{})
		d := grid.MaxAbsDiff(res.Field, want)
		if d > eqTol {
			t.Logf("opt=%v ranks=%d threads=%d depth=%d steps=%d fused=%v: diff %g",
				opt, ranks, threads, depth, steps, fused, d)
			return false
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

// TestFusedStability: a long fused run stays finite and conserves mass.
func TestFusedStability(t *testing.T) {
	n := grid.Dims{NX: 16, NY: 8, NZ: 8}
	res, err := Run(Config{
		Model: lattice.D3Q19(), N: n, Tau: 0.7, Steps: 100,
		Opt: OptSIMD, Ranks: 2, Threads: 1, GhostDepth: 2, Fused: true,
		Init: waveInit(n),
	})
	if err != nil {
		t.Fatal(err)
	}
	if math.IsNaN(res.Mass) || math.IsInf(res.Mass, 0) {
		t.Fatalf("mass = %g", res.Mass)
	}
}
