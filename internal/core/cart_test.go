package core

import (
	"math"
	"testing"

	"repro/internal/geom"
	"repro/internal/grid"
	"repro/internal/lattice"
)

// Multi-axis decomposition tests: the oracle comparisons reuse the
// independent refSolverBounded of bounded_test.go, so a 2-D or 3-D run is
// held to the same 1e-12 standard as every slab configuration.

func TestCartOptLevelsAgainstOracleQ19(t *testing.T) {
	n := grid.Dims{NX: 8, NY: 6, NZ: 6}
	for _, opt := range []OptLevel{OptGC, OptDH, OptCF, OptLoBr, OptNBC, OptGCC, OptSIMD} {
		for _, p := range [][3]int{{2, 2, 1}, {1, 2, 2}, {2, 2, 2}} {
			runAndCompare(t, Config{
				Model: lattice.D3Q19(), N: n, Tau: 0.8, Steps: 5,
				Opt: opt, Ranks: p[0] * p[1] * p[2], Decomp: p, Threads: 1, GhostDepth: 1,
			})
		}
	}
}

func TestCartOptLevelsAgainstOracleQ39(t *testing.T) {
	// k = 3 for D3Q39: every axis needs at least w = depth·3 owned cells.
	n := grid.Dims{NX: 8, NY: 8, NZ: 6}
	for _, opt := range []OptLevel{OptGC, OptDH, OptSIMD} {
		runAndCompare(t, Config{
			Model: lattice.D3Q39(), N: n, Tau: 0.9, Steps: 4,
			Opt: opt, Ranks: 4, Decomp: [3]int{2, 2, 1}, Threads: 1, GhostDepth: 1,
		})
	}
}

func TestCartDeepHalo(t *testing.T) {
	n := grid.Dims{NX: 12, NY: 8, NZ: 8}
	for _, depth := range []int{2, 3} {
		for _, steps := range []int{4, 7} {
			runAndCompare(t, Config{
				Model: lattice.D3Q19(), N: n, Tau: 0.8, Steps: steps,
				Opt: OptSIMD, Ranks: 8, Decomp: [3]int{2, 2, 2}, Threads: 1, GhostDepth: depth,
			})
		}
	}
}

func TestCartUnevenBlocks(t *testing.T) {
	// 17×9×11 over 3×2×2: blocks of 6/6/5, 5/4 and 6/5 cells.
	n := grid.Dims{NX: 17, NY: 9, NZ: 11}
	runAndCompare(t, Config{
		Model: lattice.D3Q19(), N: n, Tau: 0.75, Steps: 5,
		Opt: OptSIMD, Ranks: 12, Decomp: [3]int{3, 2, 2}, Threads: 1, GhostDepth: 2,
	})
}

func TestCartThreading(t *testing.T) {
	n := grid.Dims{NX: 10, NY: 8, NZ: 8}
	for _, threads := range []int{2, 4} {
		runAndCompare(t, Config{
			Model: lattice.D3Q19(), N: n, Tau: 0.85, Steps: 4,
			Opt: OptSIMD, Ranks: 4, Decomp: [3]int{2, 2, 1}, Threads: threads, GhostDepth: 2,
		})
	}
}

// TestCrossDecompositionEquivalence is the acceptance experiment: the
// same problem solved with 1-D, 2-D and 3-D rank grids must agree on the
// final field to within float reassociation, and the 3-D 2×2×2 run's
// conserved sums must match the 8-rank slab's to 1e-12.
func TestCrossDecompositionEquivalence(t *testing.T) {
	n := grid.Dims{NX: 32, NY: 32, NZ: 32}
	steps := 50
	if testing.Short() {
		steps = 10
	}
	base := Config{
		Model: lattice.D3Q19(), N: n, Tau: 0.8, Steps: steps,
		Opt: OptSIMD, Ranks: 8, Threads: 1, GhostDepth: 1,
		Init: waveInit(n), KeepField: true,
	}
	shapes := [][3]int{{8, 1, 1}, {4, 2, 1}, {2, 2, 2}}
	results := make([]*Result, len(shapes))
	for i, p := range shapes {
		cfg := base
		cfg.Decomp = p
		res, err := Run(cfg)
		if err != nil {
			t.Fatalf("decomp %v: %v", p, err)
		}
		results[i] = res
	}
	ref := results[0]
	for i, p := range shapes[1:] {
		res := results[i+1]
		if d := grid.MaxAbsDiff(ref.Field, res.Field); d > 1e-12 {
			t.Errorf("decomp %v vs slab: max |Δf| = %g", p, d)
		}
		if d := math.Abs(res.Mass - ref.Mass); d > 1e-12*ref.Mass {
			t.Errorf("decomp %v: mass %0.15f vs slab %0.15f", p, res.Mass, ref.Mass)
		}
		for _, m := range []struct {
			got, want float64
			name      string
		}{
			{res.MomX, ref.MomX, "px"}, {res.MomY, ref.MomY, "py"}, {res.MomZ, ref.MomZ, "pz"},
		} {
			if math.Abs(m.got-m.want) > 1e-12*ref.Mass {
				t.Errorf("decomp %v: %s = %g vs slab %g", p, m.name, m.got, m.want)
			}
		}
	}
	// The 3-D block's per-axis surface must beat the slab's single fat
	// face: total halo bytes strictly smaller at 8 ranks.
	slabTotal := ref.HaloAxisBytes[0] + ref.HaloAxisBytes[1] + ref.HaloAxisBytes[2]
	blk := results[2].HaloAxisBytes
	blkTotal := blk[0] + blk[1] + blk[2]
	if blk[0] == 0 || blk[1] == 0 || blk[2] == 0 {
		t.Errorf("3-D run axis bytes %v: want all axes nonzero", blk)
	}
	if blkTotal >= slabTotal {
		t.Errorf("3-D halo bytes %d not below slab %d at 8 ranks", blkTotal, slabTotal)
	}
}

// TestCartSolidObstacles holds the multi-axis bounce-back to the slab
// solver's result: identical fields and exact mass conservation.
func TestCartSolidObstacles(t *testing.T) {
	n := grid.Dims{NX: 12, NY: 10, NZ: 10}
	solid := func(ix, iy, iz int) bool {
		dx, dy, dz := ix-6, iy-5, iz-5
		return dx*dx+dy*dy+dz*dz < 6
	}
	base := Config{
		Model: lattice.D3Q19(), N: n, Tau: 0.8, Steps: 8,
		Opt: OptSIMD, Ranks: 4, Threads: 1, GhostDepth: 2,
		Solid: geom.FromFunc(n, solid), Init: waveInit(n), KeepField: true,
	}
	slabCfg := base
	slabCfg.Decomp = [3]int{4, 1, 1}
	want, err := Run(slabCfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range [][3]int{{2, 2, 1}, {1, 2, 2}} {
		cfg := base
		cfg.Decomp = p
		got, err := Run(cfg)
		if err != nil {
			t.Fatalf("decomp %v: %v", p, err)
		}
		if d := grid.MaxAbsDiff(want.Field, got.Field); d > 1e-12 {
			t.Errorf("decomp %v: max |Δf| vs slab = %g", p, d)
		}
		if math.Abs(got.Mass-want.Mass) > 1e-10 {
			t.Errorf("decomp %v: mass %g vs slab %g", p, got.Mass, want.Mass)
		}
	}
}

func TestCartForcing(t *testing.T) {
	n := grid.Dims{NX: 8, NY: 8, NZ: 8}
	base := Config{
		Model: lattice.D3Q19(), N: n, Tau: 0.9, Steps: 6,
		Opt: OptSIMD, Ranks: 8, Threads: 1, GhostDepth: 1,
		Accel: [3]float64{1e-4, 0, 0}, KeepField: true,
	}
	slabCfg := base
	slabCfg.Decomp = [3]int{8, 1, 1}
	want, err := Run(slabCfg)
	if err != nil {
		t.Fatal(err)
	}
	cfg := base
	cfg.Decomp = [3]int{2, 2, 2}
	got, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if d := grid.MaxAbsDiff(want.Field, got.Field); d > 1e-12 {
		t.Errorf("forced 3-D vs slab: max |Δf| = %g", d)
	}
	if got.MomX <= 0 {
		t.Errorf("forced momentum not positive: %g", got.MomX)
	}
}

func TestCartGhostUpdatesAccounting(t *testing.T) {
	n := grid.Dims{NX: 16, NY: 16, NZ: 16}
	res, err := Run(Config{
		Model: lattice.D3Q19(), N: n, Tau: 0.8, Steps: 4,
		Opt: OptGC, Ranks: 8, Decomp: [3]int{2, 2, 2}, GhostDepth: 2,
	})
	if err != nil {
		t.Fatal(err)
	}
	// Each cycle's first step computes a box grown by 2k on every axis:
	// 10³ − 8³ = 488 extra cells per rank per cycle; 2 cycles, 8 ranks.
	want := int64(2 * 8 * (10*10*10 - 8*8*8))
	if res.GhostUpdates != want {
		t.Errorf("ghost updates = %d, want %d", res.GhostUpdates, want)
	}
}

// TestXOnlyGeometryUnchanged: the periodic slab is a choice of ghost
// widths, not a second stepper, and that choice must stay exactly what the
// slab stepper it replaced had — local dims (own+2w, NY, NZ), no halo on y
// and z — because the allocation, the halo bytes and the ghost work of the
// paper's own configurations follow from it. The counters are the values
// the slab stepper produced on these runs at the commit that deleted it —
// but for the depth-1 NB-C run's bytes: its faces carry the 5 of 19
// populations with c_x pointing out of each ghost (DirectedFaces), 2 sides
// × 5 × 80 cells × 8 B = 6400 B per exchange where all 19 were 24320 B,
// which is to the byte what the no-ghost Orig protocol below ships.
func TestXOnlyGeometryUnchanged(t *testing.T) {
	n := grid.Dims{NX: 24, NY: 8, NZ: 10}
	type rank struct{ bytes, msgs int64 }
	for _, c := range []struct {
		cfg    Config
		ghosts int64
		axis   [3]int64
		per    rank
		dims   grid.Dims
	}{
		{Config{Model: lattice.D3Q39(), N: n, Tau: 0.8, Steps: 5, Opt: OptGCC, Ranks: 2, Threads: 1, GhostDepth: 2},
			2880, [3]int64{299520, 0, 0}, rank{898560, 6}, grid.Dims{NX: 12 + 2*6, NY: 8, NZ: 10}},
		{Config{Model: lattice.D3Q39(), N: n, Tau: 0.8, Steps: 5, Opt: OptSIMD, Ranks: 1, Threads: 1, GhostDepth: 2},
			1440, [3]int64{}, rank{}, grid.Dims{NX: 24 + 2*6, NY: 8, NZ: 10}},
		{Config{Model: lattice.D3Q19(), N: n, Tau: 0.8, Steps: 5, Opt: OptNBC, Ranks: 3, Threads: 1, GhostDepth: 1},
			0, [3]int64{6400, 0, 0}, rank{32000, 10}, grid.Dims{NX: 8 + 2, NY: 8, NZ: 10}},
		{Config{Model: lattice.D3Q19(), N: n, Tau: 0.8, Steps: 5, Opt: OptOrig, Ranks: 2, Threads: 1, GhostDepth: 1},
			0, [3]int64{}, rank{32000, 10}, grid.Dims{NX: 12 + 2, NY: 8, NZ: 10}},
	} {
		name := c.cfg.Model.Name + " " + c.cfg.Opt.String()
		res, err := Run(c.cfg)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if res.GhostUpdates != c.ghosts || res.HaloAxisBytes != c.axis {
			t.Errorf("%s: ghost updates %d, halo bytes %v; want %d, %v", name, res.GhostUpdates, res.HaloAxisBytes, c.ghosts, c.axis)
		}
		for r, pr := range res.PerRank {
			if pr.BytesSent != c.per.bytes || pr.Messages != c.per.msgs {
				t.Errorf("%s rank %d: sent %d B in %d messages, want %d in %d", name, r, pr.BytesSent, pr.Messages, c.per.bytes, c.per.msgs)
			}
		}
		one := c.cfg
		one.N.NX, one.Ranks = n.NX/c.cfg.Ranks, 1 // one rank owning what each rank of the run owns
		cs := buildStepper(t, one)
		if cs.d != c.dims || cs.w[1] != 0 || cs.w[2] != 0 {
			t.Errorf("%s: local dims %v widths %v, want %v with ghosts on x only", name, cs.d, cs.w, c.dims)
		}
		if got := cs.ex.Messaging(1) || cs.ex.Messaging(2) || cs.ex.BytesPerExchange(1)+cs.ex.BytesPerExchange(2) != 0; got {
			t.Errorf("%s: the exchanger carries y or z faces", name)
		}
		cs.close()
	}
}

// TestCartFusedEquivalence: the fused kernel on pencil and block
// decompositions — the box form with no wrap arithmetic — must match the
// oracle at every exchange protocol, including the overlapped schedule.
func TestCartFusedEquivalence(t *testing.T) {
	n := grid.Dims{NX: 12, NY: 8, NZ: 7}
	for _, opt := range []OptLevel{OptGC, OptNBC, OptGCC, OptSIMD} {
		for _, p := range [][3]int{{2, 2, 1}, {1, 2, 2}, {2, 2, 2}} {
			runAndCompare(t, Config{
				Model: lattice.D3Q19(), N: n, Tau: 0.8, Steps: 5,
				Opt: opt, Ranks: p[0] * p[1] * p[2], Decomp: p, Threads: 1, GhostDepth: 1,
				Fused: true,
			})
		}
	}
	// D3Q39 (k = 3) on a pencil.
	n39 := grid.Dims{NX: 8, NY: 8, NZ: 6}
	runAndCompare(t, Config{
		Model: lattice.D3Q39(), N: n39, Tau: 0.9, Steps: 4,
		Opt: OptGCC, Ranks: 4, Decomp: [3]int{2, 2, 1}, Threads: 1, GhostDepth: 1,
		Fused: true,
	})
}

// TestCartFusedDeepHalo: the fused box kernel under the deep-halo
// schedule, overlapped and threaded.
func TestCartFusedDeepHalo(t *testing.T) {
	n := grid.Dims{NX: 12, NY: 12, NZ: 8}
	for _, depth := range []int{2, 3} {
		for _, threads := range []int{1, 4} {
			runAndCompare(t, Config{
				Model: lattice.D3Q19(), N: n, Tau: 0.75, Steps: 7,
				Opt: OptGCC, Ranks: 4, Decomp: [3]int{2, 2, 1}, Threads: threads, GhostDepth: depth,
				Fused: true,
			})
		}
	}
}

// TestCartPerAxisDepth: per-axis ghost depths — each axis refreshed on
// its own cadence with its own halo width — must match the oracle on
// every path that supports them, split and fused, overlapped or not.
func TestCartPerAxisDepth(t *testing.T) {
	n := grid.Dims{NX: 12, NY: 10, NZ: 8}
	for _, opt := range []OptLevel{OptGC, OptNBC, OptGCC, OptSIMD} {
		for _, depths := range [][3]int{{2, 1, 1}, {1, 2, 1}, {1, 2, 3}} {
			for _, p := range [][3]int{{2, 2, 1}, {2, 1, 2}} {
				runAndCompare(t, Config{
					Model: lattice.D3Q19(), N: n, Tau: 0.8, Steps: 7,
					Opt: opt, Ranks: p[0] * p[1] * p[2], Decomp: p, Threads: 1,
					GhostDepthAxes: depths,
				})
			}
		}
	}
	// On a slab-shaped rank grid y and z are wrap axes with no depth, so
	// {2,1,1} is the depth-2 slab; fused rides along.
	for _, fused := range []bool{false, true} {
		runAndCompare(t, Config{
			Model: lattice.D3Q19(), N: n, Tau: 0.8, Steps: 6,
			Opt: OptGCC, Ranks: 2, Decomp: [3]int{2, 1, 1}, Threads: 2,
			GhostDepthAxes: [3]int{2, 1, 1}, Fused: fused,
		})
	}
}

// TestCartPerAxisDepthBounded: per-axis depths against the bounded
// oracle (walls fix up every step, so any refresh cadence must agree).
func TestCartPerAxisDepthBounded(t *testing.T) {
	n := grid.Dims{NX: 12, NY: 12, NZ: 6}
	for _, opt := range []OptLevel{OptNBC, OptGCC} {
		runAndCompareBounded(t, Config{
			Model: lattice.D3Q19(), N: n, Tau: 0.8, Steps: 7,
			Opt: opt, Ranks: 4, Decomp: [3]int{2, 2, 1}, Threads: 1,
			GhostDepthAxes: [3]int{2, 2, 1}, Boundary: CavitySpec(0.08),
		})
	}
}

// TestCartOverlapLadderDepthSweep pins the overlapped box schedule per
// ladder level × depth against the slab reference on the same problem:
// GC-C and Fused now run on every decomposition, and their fields must
// stay within reassociation of the 1-D slab path.
func TestCartOverlapLadderDepthSweep(t *testing.T) {
	n := grid.Dims{NX: 16, NY: 8, NZ: 8}
	for _, fused := range []bool{false, true} {
		for _, depth := range []int{1, 2} {
			base := Config{
				Model: lattice.D3Q19(), N: n, Tau: 0.8, Steps: 6,
				Opt: OptGCC, Ranks: 4, Threads: 1, GhostDepth: depth,
				Fused: fused, Init: waveInit(n), KeepField: true,
			}
			slab := base
			slab.Decomp = [3]int{4, 1, 1}
			want, err := Run(slab)
			if err != nil {
				t.Fatal(err)
			}
			for _, p := range [][3]int{{2, 2, 1}, {1, 2, 2}} {
				cfg := base
				cfg.Decomp = p
				got, err := Run(cfg)
				if err != nil {
					t.Fatalf("fused=%v depth=%d decomp=%v: %v", fused, depth, p, err)
				}
				if d := grid.MaxAbsDiff(want.Field, got.Field); d > 1e-12 {
					t.Errorf("fused=%v depth=%d decomp=%v: max |Δf| vs slab = %g", fused, depth, p, d)
				}
			}
		}
	}
}

func TestCartValidation(t *testing.T) {
	base := Config{
		Model: lattice.D3Q19(), N: grid.Dims{NX: 8, NY: 8, NZ: 8},
		Tau: 0.8, Steps: 1, Ranks: 8, Decomp: [3]int{2, 2, 2}, Opt: OptGC, GhostDepth: 1,
	}
	cases := []struct {
		name string
		mod  func(c *Config)
	}{
		{"orig multi-axis", func(c *Config) { c.Opt = OptOrig }},
		{"shape/ranks mismatch", func(c *Config) { c.Ranks = 4 }},
		{"block smaller than halo", func(c *Config) { c.GhostDepth = 5 }},
		{"per-axis depth zero entry", func(c *Config) { c.GhostDepthAxes = [3]int{2, 0, 1} }},
		{"per-axis depth too deep", func(c *Config) { c.GhostDepthAxes = [3]int{1, 5, 1} }},
		{"axis overcommit", func(c *Config) { c.Decomp = [3]int{1, 1, 8}; c.N.NZ = 4; c.N.NY = 16 }},
	}
	for _, tc := range cases {
		cfg := base
		tc.mod(&cfg)
		if _, err := Run(cfg); err == nil {
			t.Errorf("%s: invalid config accepted", tc.name)
		}
	}
	if _, err := Run(base); err != nil {
		t.Errorf("base config rejected: %v", err)
	}
}
