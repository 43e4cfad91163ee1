package scenario

import (
	"path/filepath"
	"strings"
	"testing"
	"time"

	"repro/internal/comm"
	"repro/internal/core"
	"repro/internal/geom"
	"repro/internal/grid"
	"repro/internal/lattice"
)

func TestRegistryNamesAndErrors(t *testing.T) {
	names := Names()
	for _, want := range []string{"wave", "cavity", "channel"} {
		found := false
		for _, n := range names {
			if n == want {
				found = true
			}
		}
		if !found {
			t.Errorf("scenario %q not registered (have %v)", want, names)
		}
	}
	if _, err := Get("wave"); err != nil {
		t.Errorf("Get(wave): %v", err)
	}
	_, err := Get("vortex")
	if err == nil {
		t.Fatal("unknown scenario accepted")
	}
	// The error (and the flag usage) must list every valid name — the
	// registry, not a hand-maintained string, is the source of truth.
	for _, n := range names {
		if !strings.Contains(err.Error(), n) {
			t.Errorf("unknown-scenario error %q does not list %q", err, n)
		}
		if !strings.Contains(Usage(), n) {
			t.Errorf("usage %q does not list %q", Usage(), n)
		}
	}
}

func TestWaveConfigure(t *testing.T) {
	sc, err := Get("wave")
	if err != nil {
		t.Fatal(err)
	}
	p := Params{Model: lattice.D3Q19(), N: grid.Dims{NX: 12, NY: 8, NZ: 6}, Amplitude: 0.01}
	cfg := core.Config{Model: p.Model, N: p.N, Tau: 0.8, Steps: 3, Opt: core.OptSIMD}
	if err := sc.Configure(&p, &cfg); err != nil {
		t.Fatal(err)
	}
	if cfg.Init == nil {
		t.Fatal("wave left Init nil")
	}
	if _, err := core.Run(cfg); err != nil {
		t.Fatal(err)
	}
}

func TestWaveGeomFile(t *testing.T) {
	n := grid.Dims{NX: 12, NY: 8, NZ: 6}
	mask := geom.FromFunc(n, func(ix, iy, iz int) bool { return ix == 4 && iy < 4 })
	path := filepath.Join(t.TempDir(), "m.csv")
	if err := geom.Save(path, mask); err != nil {
		t.Fatal(err)
	}
	sc, _ := Get("wave")
	p := Params{Model: lattice.D3Q19(), N: n, Amplitude: 0.01, GeomPath: path}
	cfg := core.Config{Model: p.Model, N: n, Tau: 0.8, Steps: 2, Opt: core.OptSIMD}
	if err := sc.Configure(&p, &cfg); err != nil {
		t.Fatal(err)
	}
	if cfg.Solid == nil || !cfg.Solid.Equal(mask) {
		t.Fatal("geom file not loaded into Config.Solid")
	}
	// A mask of the wrong shape is a configuration error.
	p.N = grid.Dims{NX: 10, NY: 8, NZ: 6}
	cfg2 := core.Config{Model: p.Model, N: p.N, Tau: 0.8, Steps: 2, Opt: core.OptSIMD}
	if err := sc.Configure(&p, &cfg2); err == nil {
		t.Fatal("mismatched -geom mask accepted")
	}
}

func TestCavityConfigure(t *testing.T) {
	sc, _ := Get("cavity")
	p := Params{Model: lattice.D3Q19(), N: grid.Dims{NX: 16, NY: 16, NZ: 2}, Re: 100, LidU: 0.1}
	cfg := core.Config{Model: p.Model, N: p.N, Tau: 0.8, Steps: 99, Opt: core.OptSIMD}
	if err := sc.Configure(&p, &cfg); err != nil {
		t.Fatal(err)
	}
	if cfg.Boundary == nil || cfg.Boundary.Faces[1][1].Kind != core.BCMovingWall {
		t.Fatal("cavity boundary not configured")
	}
	if cfg.Steps == 99 {
		t.Fatal("cavity did not apply its steady-state step default")
	}
	p.StepsSet = true
	cfg.Steps = 99
	if err := sc.Configure(&p, &cfg); err != nil {
		t.Fatal(err)
	}
	if cfg.Steps != 99 {
		t.Fatal("cavity overrode the user's -steps")
	}
}

func TestChannelConfigure(t *testing.T) {
	sc, _ := Get("channel")
	p := Params{Model: lattice.D3Q19(), N: grid.Dims{NX: 64, NY: 32, NZ: 32}, Re: 20, UMean: 0.05, D: 8}
	cfg := core.Config{Model: p.Model, N: p.N, Tau: 0.8, Steps: 100, Opt: core.OptSIMD}
	if err := sc.Configure(&p, &cfg); err != nil {
		t.Fatal(err)
	}
	if cfg.N.NX != 22*8 {
		t.Fatalf("channel domain %v, want NX = %d", cfg.N, 22*8)
	}
	if cfg.Solid == nil || cfg.Solid.Empty() {
		t.Fatal("channel has no cylinder")
	}
	if !cfg.MeasureForces {
		t.Fatal("channel does not measure forces")
	}
	if cfg.Boundary == nil || cfg.Boundary.Faces[0][0].Kind != core.BCInlet {
		t.Fatal("channel inlet missing")
	}
	// Without -collision the channel defaults to TRT.
	if cfg.Collision.IsBGK() {
		t.Fatal("channel did not default to TRT")
	}
	// A very short run end to end, with the scenario's report.
	p.StepsSet = true
	cfg2 := core.Config{Model: p.Model, N: p.N, Tau: 0.8, Steps: 90, Opt: core.OptSIMD}
	if err := sc.Configure(&p, &cfg2); err != nil {
		t.Fatal(err)
	}
	res, err := core.Run(cfg2)
	if err != nil {
		t.Fatal(err)
	}
	if sc.Report == nil {
		t.Fatal("channel has no report")
	}
	lines := sc.Report(&p, &cfg2, res)
	if len(lines) == 0 {
		t.Fatal("channel report empty")
	}
}

// TestConfigureKeepsExecutionSettings: a scenario writes its flow, never
// the run's execution settings. Every registered scenario configures a
// small problem from a config whose execution fields all hold non-default
// values, and each must come out of Configure as it went in.
func TestConfigureKeepsExecutionSettings(t *testing.T) {
	type execution struct {
		Opt            core.OptLevel
		Ranks          int
		Decomp         [3]int
		Threads        int
		GhostDepth     int
		GhostDepthAxes [3]int
		Stream         core.StreamScheme
		Balance        core.Balance
		Sparse         bool
		KeepField      bool
		StepJitter     time.Duration
		Observe        bool
		Trace          bool
		Fabric         *comm.Fabric
	}
	of := func(c *core.Config) execution {
		return execution{
			c.Opt, c.Ranks, c.Decomp, c.Threads, c.GhostDepth, c.GhostDepthAxes,
			c.Stream, c.Balance, c.Sparse, c.KeepField, c.StepJitter,
			c.Observe, c.Trace, c.Fabric,
		}
	}
	for _, name := range Names() {
		sc, _ := Get(name)
		p := Params{
			Model: lattice.D3Q19(), N: grid.Dims{NX: 16, NY: 16, NZ: 4},
			Amplitude: 0.01, Re: 20, LidU: 0.1, UMean: 0.05, D: 8,
		}
		cfg := core.Config{
			Model: p.Model, N: p.N, Tau: 0.8, Steps: 10,
			Opt: core.OptGCC, Ranks: 2, Decomp: [3]int{2, 1, 1}, Threads: 3,
			GhostDepth: 2, GhostDepthAxes: [3]int{2, 1, 1},
			Stream: core.StreamAA, Balance: core.BalanceFluid, Sparse: true,
			KeepField: true, StepJitter: time.Millisecond,
			Observe: true, Trace: true, Fabric: comm.NewFabric(2),
		}
		want := of(&cfg)
		if err := sc.Configure(&p, &cfg); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if got := of(&cfg); got != want {
			t.Errorf("%s changed the execution settings:\n got %+v\nwant %+v", name, got, want)
		}
	}
}
