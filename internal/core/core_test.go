package core

import (
	"math"
	"strings"
	"testing"

	"repro/internal/collision"
	"repro/internal/comm"
	"repro/internal/geom"
	"repro/internal/grid"
	"repro/internal/lattice"
)

// waveInit is a smooth, fully 3-D initial condition exercising all velocity
// directions.
func waveInit(n grid.Dims) InitFunc {
	return func(ix, iy, iz int) (rho, ux, uy, uz float64) {
		x := 2 * math.Pi * float64(ix) / float64(n.NX)
		y := 2 * math.Pi * float64(iy) / float64(n.NY)
		z := 2 * math.Pi * float64(iz) / float64(n.NZ)
		rho = 1 + 0.04*math.Sin(x)*math.Cos(y)
		ux = 0.02 * math.Sin(y+z)
		uy = -0.015 * math.Cos(x) * math.Sin(z)
		uz = 0.01 * math.Sin(x+y)
		return
	}
}

const eqTol = 1e-12

// runAndCompare executes cfg with KeepField and compares against the oracle.
func runAndCompare(t *testing.T, cfg Config) *Result {
	t.Helper()
	cfg.KeepField = true
	if cfg.Init == nil {
		cfg.Init = waveInit(cfg.N)
	}
	res, err := Run(cfg)
	if err != nil {
		t.Fatalf("%s ranks=%d threads=%d depth=%d: %v", cfg.Opt, cfg.Ranks, cfg.Threads, cfg.GhostDepth, err)
	}
	want := refSolverBounded(cfg.Model, cfg.N, cfg.Tau, cfg.Steps, cfg.Init, nil, nil, [3]float64{})
	if d := grid.MaxAbsDiff(res.Field, want); d > eqTol {
		t.Errorf("%s %s ranks=%d threads=%d depth=%d: max |Δf| = %g (tol %g)",
			cfg.Model.Name, cfg.Opt, cfg.Ranks, cfg.Threads, cfg.GhostDepth, d, eqTol)
	}
	return res
}

func TestAllOptLevelsSingleRankQ19(t *testing.T) {
	n := grid.Dims{NX: 12, NY: 6, NZ: 5}
	for _, opt := range Levels() {
		runAndCompare(t, Config{
			Model: lattice.D3Q19(), N: n, Tau: 0.8, Steps: 5,
			Opt: opt, Ranks: 1, Threads: 1, GhostDepth: 1,
		})
	}
}

func TestAllOptLevelsSingleRankQ39(t *testing.T) {
	n := grid.Dims{NX: 9, NY: 7, NZ: 6}
	for _, opt := range Levels() {
		runAndCompare(t, Config{
			Model: lattice.D3Q39(), N: n, Tau: 0.9, Steps: 4,
			Opt: opt, Ranks: 1, Threads: 1, GhostDepth: 1,
		})
	}
}

func TestAllOptLevelsMultiRankQ19(t *testing.T) {
	n := grid.Dims{NX: 16, NY: 5, NZ: 6}
	for _, opt := range Levels() {
		for _, ranks := range []int{2, 4} {
			runAndCompare(t, Config{
				Model: lattice.D3Q19(), N: n, Tau: 0.7, Steps: 6,
				Opt: opt, Ranks: ranks, Threads: 1, GhostDepth: 1,
			})
		}
	}
}

func TestAllOptLevelsMultiRankQ39(t *testing.T) {
	n := grid.Dims{NX: 16, NY: 6, NZ: 7}
	for _, opt := range Levels() {
		runAndCompare(t, Config{
			Model: lattice.D3Q39(), N: n, Tau: 1.1, Steps: 4,
			Opt: opt, Ranks: 2, Threads: 1, GhostDepth: 1,
		})
	}
}

func TestDeepHaloDepthsQ19(t *testing.T) {
	n := grid.Dims{NX: 24, NY: 5, NZ: 5}
	for _, opt := range []OptLevel{OptGC, OptNBC, OptGCC, OptSIMD} {
		for _, depth := range []int{1, 2, 3, 4} {
			for _, ranks := range []int{1, 3} {
				runAndCompare(t, Config{
					Model: lattice.D3Q19(), N: n, Tau: 0.8, Steps: 8,
					Opt: opt, Ranks: ranks, Threads: 1, GhostDepth: depth,
				})
			}
		}
	}
}

func TestDeepHaloDepthsQ39(t *testing.T) {
	n := grid.Dims{NX: 24, NY: 6, NZ: 6}
	for _, opt := range []OptLevel{OptGC, OptGCC, OptSIMD} {
		for _, depth := range []int{1, 2} {
			for _, ranks := range []int{1, 2} {
				runAndCompare(t, Config{
					Model: lattice.D3Q39(), N: n, Tau: 0.9, Steps: 5,
					Opt: opt, Ranks: ranks, Threads: 1, GhostDepth: depth,
				})
			}
		}
	}
}

func TestStepsNotMultipleOfDepth(t *testing.T) {
	n := grid.Dims{NX: 18, NY: 5, NZ: 5}
	for _, steps := range []int{1, 5, 7} {
		runAndCompare(t, Config{
			Model: lattice.D3Q19(), N: n, Tau: 0.8, Steps: steps,
			Opt: OptGCC, Ranks: 3, Threads: 1, GhostDepth: 3,
		})
	}
}

func TestThreading(t *testing.T) {
	n := grid.Dims{NX: 16, NY: 6, NZ: 8}
	for _, threads := range []int{2, 3, 4} {
		for _, opt := range []OptLevel{OptOrig, OptDH, OptGCC, OptSIMD} {
			runAndCompare(t, Config{
				Model: lattice.D3Q19(), N: n, Tau: 0.85, Steps: 4,
				Opt: opt, Ranks: 2, Threads: threads, GhostDepth: depthFor(opt, 2),
			})
		}
	}
}

// depthFor picks a legal ghost depth for a level (Orig requires 1).
func depthFor(opt OptLevel, d int) int {
	if opt == OptOrig {
		return 1
	}
	return d
}

func TestUnevenDecomposition(t *testing.T) {
	// 17 planes over 3 ranks: 6,6,5.
	n := grid.Dims{NX: 17, NY: 5, NZ: 5}
	for _, opt := range []OptLevel{OptOrig, OptGC, OptNBC, OptSIMD} {
		runAndCompare(t, Config{
			Model: lattice.D3Q19(), N: n, Tau: 0.75, Steps: 5,
			Opt: opt, Ranks: 3, Threads: 1, GhostDepth: depthFor(opt, 2),
		})
	}
}

func TestConservation(t *testing.T) {
	n := grid.Dims{NX: 12, NY: 6, NZ: 6}
	for _, m := range []*lattice.Model{lattice.D3Q19(), lattice.D3Q39()} {
		init := waveInit(n)
		var mass0, mx0, my0, mz0 float64
		for ix := 0; ix < n.NX; ix++ {
			for iy := 0; iy < n.NY; iy++ {
				for iz := 0; iz < n.NZ; iz++ {
					rho, ux, uy, uz := init(ix, iy, iz)
					mass0 += rho
					mx0 += rho * ux
					my0 += rho * uy
					mz0 += rho * uz
				}
			}
		}
		res, err := Run(Config{
			Model: m, N: n, Tau: 0.8, Steps: 20,
			Opt: OptSIMD, Ranks: 2, Threads: 2, GhostDepth: 1, Init: init,
		})
		if err != nil {
			t.Fatalf("%s: %v", m.Name, err)
		}
		scale := mass0
		if math.Abs(res.Mass-mass0) > 1e-10*scale {
			t.Errorf("%s: mass %0.12f, want %0.12f", m.Name, res.Mass, mass0)
		}
		for _, c := range []struct {
			got, want float64
			name      string
		}{{res.MomX, mx0, "px"}, {res.MomY, my0, "py"}, {res.MomZ, mz0, "pz"}} {
			if math.Abs(c.got-c.want) > 1e-10*scale {
				t.Errorf("%s: %s = %g, want %g", m.Name, c.name, c.got, c.want)
			}
		}
	}
}

func TestEquilibriumIsFixedPoint(t *testing.T) {
	// A uniform equilibrium state must be exactly stationary.
	n := grid.Dims{NX: 8, NY: 6, NZ: 6}
	for _, m := range []*lattice.Model{lattice.D3Q19(), lattice.D3Q39()} {
		res, err := Run(Config{
			Model: m, N: n, Tau: 1.0, Steps: 10,
			Opt: OptSIMD, Ranks: 2, Threads: 1, GhostDepth: 1,
			Init:      func(ix, iy, iz int) (float64, float64, float64, float64) { return 1.25, 0, 0, 0 },
			KeepField: true,
		})
		if err != nil {
			t.Fatalf("%s: %v", m.Name, err)
		}
		for v := 0; v < m.Q; v++ {
			want := 1.25 * m.W[v]
			for c := 0; c < n.Cells(); c++ {
				if math.Abs(res.Field.Data[res.Field.Idx(v, c)]-want) > 1e-13 {
					t.Fatalf("%s: uniform state drifted at v=%d", m.Name, v)
				}
			}
		}
	}
}

func TestGhostUpdatesAccounting(t *testing.T) {
	n := grid.Dims{NX: 24, NY: 5, NZ: 5}
	m := lattice.D3Q19()
	// depth 1: no ghost recomputation.
	res1, err := Run(Config{Model: m, N: n, Tau: 0.8, Steps: 4, Opt: OptGC, Ranks: 2, GhostDepth: 1})
	if err != nil {
		t.Fatal(err)
	}
	if res1.GhostUpdates != 0 {
		t.Errorf("depth 1 ghost updates = %d, want 0", res1.GhostUpdates)
	}
	// depth 2, k=1: each cycle's first step computes 2·k extra planes per
	// rank; 4 steps = 2 cycles, 2 ranks.
	res2, err := Run(Config{Model: m, N: n, Tau: 0.8, Steps: 4, Opt: OptGC, Ranks: 2, GhostDepth: 2})
	if err != nil {
		t.Fatal(err)
	}
	want := int64(2 * 2 * 2 * n.PlaneCells())
	if res2.GhostUpdates != want {
		t.Errorf("depth 2 ghost updates = %d, want %d", res2.GhostUpdates, want)
	}
	// Message count drops with depth: depth 2 sends half as many messages.
	if m1, m2 := res1.PerRank[0].Messages, res2.PerRank[0].Messages; m2*2 != m1 {
		t.Errorf("messages: depth1=%d depth2=%d, want halving", m1, m2)
	}
	// The paper's "the same amount of data is passed" holds among deep
	// halos: depth d ≥ 2 sends all Q populations of its d·k layers every d
	// steps, Q·k layers' worth per step whatever d. Depth 1 sends less: its
	// k layers are only ever read by upwind pulls, so a face carries the
	// CrossPlaneVels[0] populations directed out of its ghost (5 of 19).
	perStep := func(vels int) int64 { return int64(2 * vels * n.PlaneCells() * 8) }
	if b1, want := res1.PerRank[0].BytesSent, 4*perStep(5); b1 != want {
		t.Errorf("bytes: depth 1 sent %d, want %d (5 directed populations per face)", b1, want)
	}
	res4, err := Run(Config{Model: m, N: n, Tau: 0.8, Steps: 4, Opt: OptGC, Ranks: 2, GhostDepth: 4})
	if err != nil {
		t.Fatal(err)
	}
	for d, res := range map[int]*Result{2: res2, 4: res4} {
		if b, want := res.PerRank[0].BytesSent, 4*perStep(m.Q); b != want {
			t.Errorf("bytes: depth %d sent %d, want %d (all %d populations)", d, b, want, m.Q)
		}
	}
}

func TestMFlupsPositive(t *testing.T) {
	res, err := Run(Config{
		Model: lattice.D3Q19(), N: grid.Dims{NX: 16, NY: 8, NZ: 8},
		Tau: 0.8, Steps: 5, Opt: OptSIMD, Ranks: 2, GhostDepth: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.MFlups <= 0 {
		t.Errorf("MFlups = %g, want > 0", res.MFlups)
	}
	if res.InteriorUpdates != 5*16*8*8 {
		t.Errorf("InteriorUpdates = %d", res.InteriorUpdates)
	}
	if res.WallTime <= 0 {
		t.Errorf("WallTime = %v", res.WallTime)
	}
}

// TestConfigValidation holds the restriction matrix in one table: every
// rejection Config.check and Config.init make, each with the reason its
// error must name.
func TestConfigValidation(t *testing.T) {
	base := Config{Model: lattice.D3Q19(), N: grid.Dims{NX: 8, NY: 4, NZ: 4}, Tau: 0.8, Steps: 1}
	var twoOpen BoundarySpec
	twoOpen.Faces[0] = [2]Face{{Kind: BCInlet, U: [3]float64{0.02, 0, 0}}, {Kind: BCOutflow}}
	twoOpen.Faces[1] = [2]Face{{Kind: BCWall}, {Kind: BCOutflow}}
	cases := []struct {
		name   string
		mod    func(c *Config)
		reason string
	}{
		{"nil model", func(c *Config) { c.Model = nil }, "Model is nil"},
		{"tau too small", func(c *Config) { c.Tau = 0.5 }, "relaxation time"},
		{"tau NaN", func(c *Config) { c.Tau = math.NaN() }, "relaxation time"},
		{"tau +Inf", func(c *Config) { c.Tau = math.Inf(1) }, "relaxation time"},
		{"MRT ghost rate NaN", func(c *Config) { c.Collision = collision.Spec{Kind: collision.MRT, GhostRates: []float64{math.NaN()}} }, "ghost rate"},
		{"TRT magic NaN", func(c *Config) { c.Collision = collision.Spec{Kind: collision.TRT, Magic: math.NaN()} }, "magic parameter"},
		{"TRT magic +Inf", func(c *Config) { c.Collision = collision.Spec{Kind: collision.TRT, Magic: math.Inf(1)} }, "magic parameter"},
		{"negative steps", func(c *Config) { c.Steps = -1 }, "negative Steps"},
		{"orig with depth", func(c *Config) { c.Opt = OptOrig; c.GhostDepth = 2 }, "GhostDepth must be 1"},
		{"fused with Orig", func(c *Config) { c.Opt, c.Fused = OptOrig, true }, "fused kernel requires ghost cells"},
		{"AA with Orig", func(c *Config) { c.Opt, c.Stream = OptOrig, StreamAA }, "AA streaming requires ghost cells"},
		{"AA with fused", func(c *Config) { c.Opt, c.Stream, c.Fused = OptGC, StreamAA, true }, "inherently fused"},
		{"AA with open faces on two axes", func(c *Config) { c.Opt, c.Stream, c.Boundary = OptGC, StreamAA, &twoOpen }, "at most one axis"},
		{"mask dims not N", func(c *Config) { c.Solid = geom.NewMask(grid.Dims{NX: 8, NY: 4, NZ: 5}) }, "solid mask dims"},
		{"decomposition not Ranks", func(c *Config) { c.Opt, c.Ranks, c.Decomp = OptGC, 2, [3]int{2, 2, 1} }, "covers 4 ranks"},
		{"per-axis depth below 1", func(c *Config) { c.Opt, c.GhostDepthAxes = OptGC, [3]int{1, 0, 1} }, "GhostDepthAxes[1] = 0"},
		{"fabric size not Ranks", func(c *Config) { c.Fabric = comm.NewFabric(3) }, "fabric has 3 ranks"},
		{"orig off the paper's geometry", func(c *Config) { c.Opt, c.Ranks, c.Decomp = OptOrig, 2, [3]int{1, 2, 1} }, "paper's geometry"},
		{"slab too small", func(c *Config) { c.Opt, c.Ranks, c.GhostDepth = OptGC, 4, 3 }, "smallest block"},
		{"tiny NY for Q39", func(c *Config) { c.Model = lattice.D3Q39() }, "must be >= 2k"},
		{"more ranks than planes", func(c *Config) { c.Ranks = 9 }, "every rank needs at least one cell"},
	}
	for _, tc := range cases {
		cfg := base
		tc.mod(&cfg)
		if _, err := Run(cfg); err == nil {
			t.Errorf("%s: invalid config accepted", tc.name)
		} else if !strings.Contains(err.Error(), tc.reason) {
			t.Errorf("%s: error %q does not name %q", tc.name, err, tc.reason)
		}
	}
	if _, err := Run(base); err != nil {
		t.Errorf("base config rejected: %v", err)
	}
}

func TestOptLevelNames(t *testing.T) {
	for _, lvl := range Levels() {
		name := lvl.String()
		back, err := ParseOptLevel(name)
		if err != nil || back != lvl {
			t.Errorf("round trip failed for %v (%q)", lvl, name)
		}
	}
	if _, err := ParseOptLevel("turbo"); err == nil {
		t.Error("unknown level accepted")
	}
	if s := OptLevel(99).String(); s != "OptLevel(99)" {
		t.Errorf("unknown level String = %q", s)
	}
}

func TestCommSummary(t *testing.T) {
	res, err := Run(Config{
		Model: lattice.D3Q19(), N: grid.Dims{NX: 12, NY: 4, NZ: 4},
		Tau: 0.8, Steps: 4, Opt: OptNBC, Ranks: 4, GhostDepth: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	s := res.CommSummary()
	if s.N != 4 || s.Min < 0 || s.Max < s.Min {
		t.Errorf("CommSummary = %+v", s)
	}
}

// TestD3Q27Solver: the generic solver machinery must handle the 27-velocity
// lattice end-to-end (all kernels are model-parametric).
func TestD3Q27Solver(t *testing.T) {
	n := grid.Dims{NX: 12, NY: 5, NZ: 6}
	for _, opt := range []OptLevel{OptOrig, OptDH, OptGCC, OptSIMD} {
		runAndCompare(t, Config{
			Model: lattice.D3Q27(), N: n, Tau: 0.8, Steps: 4,
			Opt: opt, Ranks: 2, Threads: 1, GhostDepth: depthFor(opt, 2),
		})
	}
}
