package perfsim

import (
	"fmt"
	"math"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/decomp"
	"repro/internal/geom"
	"repro/internal/grid"
	"repro/internal/lattice"
	"repro/internal/machine"
	"repro/internal/obs"
)

// The model has one ghost-cell schedule and asks the solver's rule
// (core.GhostWidths) which axes carry ghosts. These tests tie the two
// together: geometry-derived outputs equal the real run's exactly, the
// paper's periodic-slab numbers are what the former slab schedule
// produced, and a job one side rejects the other rejects too.

// solverCase is one configuration expressed for both the solver and the
// model.
type solverCase struct {
	model    *lattice.Model
	n        [3]int
	shape    [3]int
	boundary *core.BoundarySpec
	stream   core.StreamScheme
	depth    int
	opt      core.OptLevel
}

func (c solverCase) String() string {
	return fmt.Sprintf("%s %v shape %v bounded %v %v depth %d %v",
		c.model.Name, c.n, c.shape, c.boundary.BoundedAxes(), c.stream, c.depth, c.opt)
}

func (c solverCase) ranks() int { return c.shape[0] * c.shape[1] * c.shape[2] }

func (c solverCase) config(steps int) core.Config {
	return core.Config{
		Model: c.model, N: grid.Dims{NX: c.n[0], NY: c.n[1], NZ: c.n[2]}, Tau: 0.8, Steps: steps,
		Opt: c.opt, Ranks: c.ranks(), Decomp: c.shape, Threads: 1,
		GhostDepth: c.depth, Boundary: c.boundary, Stream: c.stream,
	}
}

func (c solverCase) job(steps int) Job {
	return Job{
		Machine: machine.BGQ(), Spec: machine.SpecForQ(c.model.Q), K: c.model.MaxSpeed,
		Nodes: c.ranks(), TasksPerNode: 1, ThreadsPerTask: 1,
		NX: c.n[0], NY: c.n[1], NZ: c.n[2], Decomp: c.shape,
		Bounded: c.boundary.BoundedAxes(),
		Steps:   steps, Depth: c.depth, Opt: c.opt, Stream: c.stream, Seed: 1,
	}
}

// TestModelGeometryIsTheSolvers runs every combination of lattice, rank
// grid, domain kind, storage scheme, depth and protocol on a 24³ box for
// real and through the model: the per-axis halo payload and the ghost
// update count are functions of the ghost geometry alone, so they must
// agree exactly, slab shapes and single ranks included.
func TestModelGeometryIsTheSolvers(t *testing.T) {
	const steps = 5 // not a multiple of the depths: the last cycle is partial
	n := 0
	for _, model := range []*lattice.Model{lattice.D3Q19(), lattice.D3Q39()} {
		for _, shape := range [][3]int{{1, 1, 1}, {2, 1, 1}, {4, 1, 1}, {2, 2, 1}, {1, 2, 2}, {2, 2, 2}} {
			for _, boundary := range []*core.BoundarySpec{nil, core.ChannelSpec(), core.CavitySpec(0.05)} {
				for _, stream := range []core.StreamScheme{core.StreamTwoGrid, core.StreamAA} {
					for _, depth := range []int{1, 2} {
						for _, opt := range []core.OptLevel{core.OptGC, core.OptGCC} {
							n++
							if testing.Short() && n%11 != 0 {
								continue
							}
							c := solverCase{model, [3]int{24, 24, 24}, shape, boundary, stream, depth, opt}
							real, err := core.Run(c.config(steps))
							if err != nil {
								t.Fatalf("%v: solver: %v", c, err)
							}
							sim, err := Run(c.job(steps))
							if err != nil {
								t.Fatalf("%v: model: %v", c, err)
							}
							for a := 0; a < 3; a++ {
								if got, want := sim.AxisBytes[a], float64(real.HaloAxisBytes[a]); got != want {
									t.Errorf("%v: axis %d payload: model %.0f B, solver %.0f B", c, a, got, want)
								}
							}
							ghost := sim.GhostUpdateFraction * steps * 24 * 24 * 24
							if math.Abs(ghost-float64(real.GhostUpdates)) > 1e-6 {
								t.Errorf("%v: ghost updates: model %.3f, solver %d", c, ghost, real.GhostUpdates)
							}
						}
					}
				}
			}
		}
	}
}

// TestModelFacesCountTheLattice: the model counts what a depth-1 face
// carries from the lattice's own velocities (DefaultCross), so its face
// bytes are the solver's on every lattice the solver runs — D3Q27 too,
// whose 9 populations with c_x ≥ 1 a per-Q table once priced at q/4 = 6 —
// and so are its resident bytes on the packed fields.
func TestModelFacesCountTheLattice(t *testing.T) {
	for _, model := range []*lattice.Model{lattice.D3Q19(), lattice.D3Q27(), lattice.D3Q39()} {
		planes := 0 // Σ over c_x > 0 of c_x: the velocity-planes of a face
		for _, c := range model.Cx {
			planes += max(c, 0)
		}
		if got := crossVelPlanes(model.Q); got != planes {
			t.Errorf("%s: %d velocity-planes per face, the lattice crosses %d", model.Name, got, planes)
		}
		for _, shape := range [][3]int{{2, 1, 1}, {3, 1, 1}, {2, 2, 1}} {
			c := solverCase{model, [3]int{24, 24, 24}, shape, nil, core.StreamTwoGrid, 1, core.OptGCC}
			real, err := core.Run(c.config(2))
			if err != nil {
				t.Fatalf("%v: solver: %v", c, err)
			}
			sim := mustRun(t, c.job(2))
			for a := 0; a < 3; a++ {
				if got, want := sim.AxisBytes[a], float64(real.HaloAxisBytes[a]); got != want {
					t.Errorf("%v: axis %d payload: model %.0f B, solver %.0f B", c, a, got, want)
				}
			}
			var most int64
			for _, rs := range real.PerRank {
				most = max(most, rs.FieldBytes)
			}
			if got := sim.BytesPerTask; got != float64(most) {
				t.Errorf("%v: model prices %.0f B per task, the solver holds %d B", c, got, most)
			}
		}
	}
	if got := DefaultCross(27); len(got) != 1 || got[0] != 9 {
		t.Errorf("DefaultCross(27) = %v, want [9]", got)
	}
	if got := DefaultCross(15); got != nil {
		t.Errorf("DefaultCross(15) = %v for a Q no lattice has, want nil", got)
	}
	if _, err := Run(Job{Machine: machine.BGQ(), Spec: machine.SpecForQ(15), K: 1, Nodes: 1, TasksPerNode: 1, ThreadsPerTask: 1, NX: 8, NY: 8, NZ: 8, Steps: 1, Depth: 1}); err == nil || !strings.Contains(err.Error(), "no lattice has 15 velocities") {
		t.Errorf("a 15-velocity job: %v, want the no-lattice error", err)
	}
}

// TestModelFillIsTheSolvers: a boundary fill writes every population of
// every ghost plane of the face box (core's fillRuns: all Q on all w
// planes, the other axes' ghosts included), not the directed payload a
// message carries (D3Q19 5 of 19 velocity-planes at depth 1, D3Q39 18 of
// 117). On a one-rank cavity, whose walled x and y are uncut, the model's
// face time over one refresh is those bytes for both faces of both axes
// at the task's copy bandwidth — the face box sized from the solver's own
// allocation, w of the stored box's planes along the axis.
func TestModelFillIsTheSolvers(t *testing.T) {
	for _, model := range []*lattice.Model{lattice.D3Q19(), lattice.D3Q39()} {
		c := solverCase{model, [3]int{24, 24, 24}, [3]int{1, 1, 1}, core.CavitySpec(0.05), core.StreamTwoGrid, 1, core.OptGCC}
		real, err := core.Run(c.config(0))
		if err != nil {
			t.Fatalf("%v: solver: %v", c, err)
		}
		j := c.job(1)
		sim, err := Run(j)
		if err != nil {
			t.Fatalf("%v: model: %v", c, err)
		}
		k := model.MaxSpeed
		w := core.GhostWidths(c.shape, j.Bounded, c.stream, false, [3]int{k, k, k})
		perField := float64(real.PerRank[0].FieldBytes) / 2 // Q · 8 B · the stored box
		var fill float64
		for a := 0; a < 3; a++ {
			if j.Bounded[a] {
				fill += 2 * perField * float64(w[a]) / float64(c.n[a]+2*w[a])
			}
		}
		if got, want := sim.RankPhases[0][obs.Face], fill/j.deriveRates().taskBWRaw; math.Abs(got-want) > 1e-12*want {
			t.Errorf("%v: one refresh's face fills: model %.6g s, the solver's %.0f B at the copy bandwidth %.6g s", c, got, fill, want)
		}
	}
}

// TestModelMemoryIsTheSolvers: BytesPerTask is the memory the solver
// holds. A dense job is priced at exactly the busiest rank's allocation —
// uneven cuts, wrap axes (the periodic slab's y and z, the cavity's, the
// channel's and the 2×2×1 pencil's z), AA's single field included. A sparse
// job used to be priced (and OOM-judged) at the dense box the solver no
// longer allocates; it is priced at the busiest rank's fluid cells, ghost
// share included, within 10 % of what the fluid-compact fields occupy.
func TestModelMemoryIsTheSolvers(t *testing.T) {
	solverBytes := func(cfg core.Config) float64 {
		t.Helper()
		res, err := core.Run(cfg)
		if err != nil {
			t.Fatal(err)
		}
		var most int64
		for _, rs := range res.PerRank {
			most = max(most, rs.FieldBytes)
		}
		return float64(most)
	}
	for _, model := range []*lattice.Model{lattice.D3Q19(), lattice.D3Q39()} {
		for _, shape := range [][3]int{{1, 1, 1}, {3, 1, 1}, {2, 2, 1}, {2, 2, 2}} {
			for _, boundary := range []*core.BoundarySpec{nil, core.ChannelSpec(), core.CavitySpec(0.05)} {
				for _, stream := range []core.StreamScheme{core.StreamTwoGrid, core.StreamAA} {
					for _, depth := range []int{1, 2} {
						// 40 planes over 3 ranks: the busiest owns 14.
						c := solverCase{model, [3]int{40, 24, 24}, shape, boundary, stream, depth, core.OptGC}
						sim, err := Run(c.job(1))
						if err != nil {
							t.Fatalf("%v: model: %v", c, err)
						}
						if want := solverBytes(c.config(0)); sim.BytesPerTask != want {
							t.Errorf("%v: model prices %.0f B per task, the solver holds %.0f B", c, sim.BytesPerTask, want)
						}
					}
				}
			}
		}
	}

	// The benchmark's vessel at full size, then the same shape small enough
	// to also allocate densely.
	for _, d := range []grid.Dims{{NX: 192, NY: 96, NZ: 96}, {NX: 96, NY: 48, NZ: 48}} {
		mask := geom.Bifurcation(d, 0.1*float64(d.NY))
		p := [3]int{2, 1, 1}
		weights := [3][]int{mask.PlaneFluids(0)}
		dec, err := decomp.NewCartesianWeighted([3]int{d.NX, d.NY, d.NZ}, p, [3]bool{}, weights)
		if err != nil {
			t.Fatal(err)
		}
		job := Job{
			Machine: machine.BGQ(), Spec: machine.SpecD3Q19(), K: 1,
			Nodes: 1, TasksPerNode: 2, ThreadsPerTask: 1,
			NX: d.NX, NY: d.NY, NZ: d.NZ, Decomp: p,
			Steps: 1, Depth: 1, Opt: core.OptGCC, Seed: 1,
			Weights: weights, RankFluids: FluidCounts(dec, mask),
		}
		cfg := core.Config{
			Model: lattice.D3Q19(), N: d, Tau: 0.8, Opt: core.OptGCC, Ranks: 2, Decomp: p, Threads: 1,
			Solid: mask, Sparse: true, Balance: core.BalanceFluid,
		}
		got, want := mustRun(t, job).BytesPerTask, solverBytes(cfg)
		t.Logf("sparse vessel %v: model %.0f B per task, solver %.0f B", d, got, want)
		if math.Abs(got-want) > 0.1*want {
			t.Errorf("sparse vessel %v: model prices %.0f B per task, the solver holds %.0f B; want within 10 %%", d, got, want)
		}
		if d.NX > 96 {
			continue
		}
		job.RankFluids = nil
		cfg.Sparse = false
		if got, want := mustRun(t, job).BytesPerTask, solverBytes(cfg); got != want {
			t.Errorf("dense vessel %v: model prices %.0f B per task, the solver holds %.0f B", d, got, want)
		}
	}
}

// TestPerAxisDepthSlabIsPricedAsRun: the tuner's {d,1,1} slab candidates
// are priced as the uniform depth-d job (Job.Depth is scalar). Since a wrap
// axis has no depth that is the job the solver runs: payload, ghost work
// and memory agree exactly.
func TestPerAxisDepthSlabIsPricedAsRun(t *testing.T) {
	const steps = 5
	for _, c := range []solverCase{
		{lattice.D3Q19(), [3]int{24, 24, 24}, [3]int{2, 1, 1}, nil, core.StreamTwoGrid, 2, core.OptGCC},
		{lattice.D3Q19(), [3]int{24, 24, 24}, [3]int{2, 1, 1}, nil, core.StreamTwoGrid, 3, core.OptGC},
		{lattice.D3Q39(), [3]int{24, 24, 24}, [3]int{2, 1, 1}, nil, core.StreamTwoGrid, 2, core.OptGCC},
	} {
		cfg := c.config(steps)
		cfg.GhostDepth, cfg.GhostDepthAxes = 0, [3]int{c.depth, 1, 1}
		real, err := core.Run(cfg)
		if err != nil {
			t.Fatalf("%v: solver: %v", c, err)
		}
		sim := mustRun(t, c.job(steps))
		if got, want := sim.AxisBytes, [3]float64{float64(real.HaloAxisBytes[0])}; got != want {
			t.Errorf("%v {d,1,1}: payload: model %v B, solver %v B", c, got, real.HaloAxisBytes)
		}
		if ghost := sim.GhostUpdateFraction * steps * 24 * 24 * 24; math.Abs(ghost-float64(real.GhostUpdates)) > 1e-6 {
			t.Errorf("%v {d,1,1}: ghost updates: model %.3f, solver %d", c, ghost, real.GhostUpdates)
		}
		if got, want := sim.BytesPerTask, float64(real.PerRank[0].FieldBytes); got != want {
			t.Errorf("%v {d,1,1}: model prices %.0f B per task, the solver holds %.0f B", c, got, want)
		}
	}
}

// TestLegacyRungsRejectedByBoth: the no-ghost Orig protocol exists for the
// paper's geometry alone, and the solver and the model say so in one
// sentence (core.PaperGeometry) — stated, not read off the
// ghost widths: an x-walled slab has the periodic slab's widths {k,0,0},
// and a model that let Orig onto it indexed a neighbour that is not there.
func TestLegacyRungsRejectedByBoth(t *testing.T) {
	q19 := lattice.D3Q19()
	xWalls := &core.BoundarySpec{}
	xWalls.Faces[0] = [2]core.Face{{Kind: core.BCWall}, {Kind: core.BCWall}}
	n, two := [3]int{16, 16, 16}, [3]int{2, 1, 1}
	slab := solverCase{q19, n, two, nil, core.StreamTwoGrid, 1, core.OptOrig}
	for _, c := range []struct {
		name   string
		sc     solverCase
		depths [3]int
		model  bool // expressible as a Job, which has one depth
		reason string
	}{
		{"Orig × x walls", solverCase{q19, n, two, xWalls, core.StreamTwoGrid, 1, core.OptOrig}, [3]int{}, true, "paper's geometry"},
		{"Orig × pencil", solverCase{q19, n, [3]int{2, 2, 1}, nil, core.StreamTwoGrid, 1, core.OptOrig}, [3]int{}, true, "paper's geometry"},
		// The slab's one depth is x's, whichever field carries it.
		{"Orig × {2,1,1}", slab, [3]int{2, 1, 1}, false, "GhostDepth must be 1"},
	} {
		cfg := c.sc.config(2)
		cfg.GhostDepthAxes = c.depths
		cerr := cfg.Validate()
		if cerr == nil || !strings.Contains(cerr.Error(), c.reason) {
			t.Errorf("%s: solver error %v, want one naming %q", c.name, cerr, c.reason)
			continue
		}
		if !c.model {
			continue
		}
		_, perr := Run(c.sc.job(2))
		if perr == nil {
			t.Errorf("%s: the model prices a job the solver rejects (%v)", c.name, cerr)
			continue
		}
		if got, want := strings.TrimPrefix(perr.Error(), "perfsim: "), strings.TrimPrefix(cerr.Error(), "core: "); got != want {
			t.Errorf("%s: model says %q, solver says %q", c.name, got, want)
		}
	}
	// The paper's geometry itself takes Orig, at either spelling of its
	// depth.
	for _, mod := range []func(*core.Config){
		func(cfg *core.Config) {},
		func(cfg *core.Config) { cfg.GhostDepth, cfg.GhostDepthAxes = 0, [3]int{1, 2, 2} },
	} {
		cfg := slab.config(2)
		mod(&cfg)
		if err := cfg.Validate(); err != nil {
			t.Errorf("Orig on the periodic slab (depths %v): %v", cfg.GhostDepthAxes, err)
		}
	}
	if _, err := Run(slab.job(2)); err != nil {
		t.Errorf("Orig on the periodic slab: model: %v", err)
	}
}

// TestHaloWiderThanBlockRejectedByBoth: a border message must be owned
// entirely by one rank, on every ghosted axis; the model refuses exactly
// the jobs the solver refuses, in the solver's words.
func TestHaloWiderThanBlockRejectedByBoth(t *testing.T) {
	q19, q39 := lattice.D3Q19(), lattice.D3Q39()
	for _, c := range []solverCase{
		{q19, [3]int{16, 32, 32}, [3]int{2, 1, 1}, nil, core.StreamTwoGrid, 20, core.OptGC},
		{q39, [3]int{16, 16, 16}, [3]int{4, 1, 1}, nil, core.StreamTwoGrid, 2, core.OptGCC},
		// AA rounds depth 1 up to 2: 6 cells of halo on 4-cell blocks.
		{q39, [3]int{16, 16, 16}, [3]int{4, 1, 1}, nil, core.StreamAA, 1, core.OptGC},
		// A bounded axis and every axis of an AA run carry ghosts, slab
		// shapes included.
		{q19, [3]int{32, 4, 32}, [3]int{2, 1, 1}, core.ChannelSpec(), core.StreamTwoGrid, 5, core.OptGC},
		{q19, [3]int{32, 32, 6}, [3]int{2, 1, 1}, nil, core.StreamAA, 7, core.OptNBC},
		{q19, [3]int{32, 32, 8}, [3]int{2, 2, 2}, nil, core.StreamTwoGrid, 5, core.OptGCC},
	} {
		cfg := c.config(4)
		cerr := cfg.Validate()
		_, perr := Run(c.job(4))
		if cerr == nil || perr == nil {
			t.Errorf("%v: solver error %v, model error %v; want both to reject", c, cerr, perr)
			continue
		}
		if !strings.Contains(cerr.Error(), "smallest block") {
			t.Errorf("%v: solver rejected for another reason: %v", c, cerr)
		}
		if got, want := strings.TrimPrefix(perr.Error(), "perfsim: "), strings.TrimPrefix(cerr.Error(), "core: "); got != want {
			t.Errorf("%v: model says %q, solver says %q", c, got, want)
		}
	}
	// The same shapes one step inside the limit are priced.
	ok := solverCase{q19, [3]int{16, 32, 32}, [3]int{2, 1, 1}, nil, core.StreamTwoGrid, 8, core.OptGC}
	cfg := ok.config(4)
	if err := cfg.Validate(); err != nil {
		t.Errorf("%v: solver: %v", ok, err)
	}
	if _, err := Run(ok.job(4)); err != nil {
		t.Errorf("%v: model: %v", ok, err)
	}
}

// TestSingleRankNeverMessages: one rank wraps its x ghosts with local
// copies — no message, nothing to overlap — exactly as the solver, whose
// exchanger reports no messaging axis on a 1×1×1 grid.
func TestSingleRankNeverMessages(t *testing.T) {
	for _, opt := range []core.OptLevel{core.OptGC, core.OptNBC, core.OptGCC} {
		res := mustRun(t, Job{
			Machine: machine.BGQ(), Spec: machine.SpecD3Q19(), K: 1,
			Nodes: 1, TasksPerNode: 1, ThreadsPerTask: 1,
			NX: 96, NY: 96, NZ: 96,
			Steps: 20, Depth: 1, Opt: opt, Seed: 1,
		})
		ph := res.RankPhases[0]
		if ph[obs.Wire] != 0 || ph[obs.Rim] != 0 || res.AxisBytes != ([3]float64{}) || res.CommSeconds[0] != 0 {
			t.Errorf("%v: wire %g s, rim %g s, axis bytes %v, comm %g s; want all zero",
				opt, ph[obs.Wire], ph[obs.Rim], res.AxisBytes, res.CommSeconds[0])
		}
		if ph[obs.Pack] <= 0 || ph[obs.Unpack] <= 0 {
			t.Errorf("%v: the local x wrap costs nothing (pack %g s, unpack %g s)", opt, ph[obs.Pack], ph[obs.Unpack])
		}
	}
}

// slabCase names one paper-scale periodic slab job.
type slabCase struct {
	name string
	job  Job
}

// periodicSlabJobs is one job per Fig. 8 rung (alternating machine and
// lattice), the Fig. 9 spread, a Fig. 10 depth-4 D3Q39 job, a Fig. 11
// tasks×threads job and a fused deep-halo job, all with jitter.
func periodicSlabJobs() []slabCase {
	var cases []slabCase
	q19, q39 := machine.SpecD3Q19(), machine.SpecD3Q39()
	for i, opt := range core.Levels() {
		m, spec, k := machine.BGP(), q19, 1
		if i%2 == 1 {
			m, spec, k = machine.BGQ(), q39, 3
		}
		j := fig8Job(m, spec, k, opt)
		j.Steps = 50
		cases = append(cases, slabCase{"fig8/" + opt.String(), j})
	}
	for _, c := range []struct {
		opt   core.OptLevel
		depth int
	}{{core.OptOrig, 1}, {core.OptNBC, 3}, {core.OptGCC, 3}} {
		cases = append(cases, slabCase{"fig9/" + c.opt.String(), Job{
			Machine: machine.BGP(), Spec: q19, K: 1,
			Nodes: 64, TasksPerNode: 4, ThreadsPerTask: 1,
			NX: 64 * 4 * 24, NY: 96, NZ: 96,
			Steps: 300, Depth: c.depth, Opt: c.opt,
			Imbalance: 0.15, PersistentImbalance: 0.25, Seed: 11,
		}})
	}
	cases = append(cases, slabCase{"fig10/q39-depth4", Job{
		Machine: machine.BGQ(), Spec: q39, K: 3,
		Nodes: 16, TasksPerNode: 16, ThreadsPerTask: 1,
		NX: 133120, NY: 40, NZ: 40,
		Steps: 300, Depth: 4, Opt: core.OptNBC,
		Imbalance: 0.40, Seed: 5,
	}})
	cases = append(cases, slabCase{"fig11/bgq-4x16", Job{
		Machine: machine.BGQ(), Spec: q39, K: 3,
		Nodes: 16, TasksPerNode: 4, ThreadsPerTask: 16,
		NX: 800 * 16 * 16, NY: 48, NZ: 48,
		Steps: 50, Depth: 2, Opt: core.OptSIMD,
		Imbalance: 0.15, Seed: 3,
	}})
	fused := fig8Job(machine.BGQ(), q19, 1, core.OptGCC)
	fused.Fused, fused.Depth, fused.Steps = true, 2, 25
	cases = append(cases, slabCase{"fused/gcc-depth2", fused})
	return cases
}

// TestPeriodicSlabScheduleUnchanged holds the paper's own jobs — ≥ 2-rank
// periodic slabs — to the numbers the dedicated slab schedule produced at
// a043242, before it became the x-only case of the one schedule: wall
// seconds, the comm min/median/max, resident bytes, and the phase vectors
// (summed over ranks, and the last rank's) to 1e-9 relative. The seven
// depth-1 ghost-cell rows (fig8/GC … fig8/SIMD) were re-recorded when a
// depth-1 face began to carry DefaultCross(Q)[0] of Q populations
// (core.DirectedFaces): their pack, wire and unpack terms are priced at
// 5/19 (11/39) of the bytes, interior and rim unmoved, like the Orig rows
// and every depth ≥ 2 row. The four D3Q39 depth-1 rows among them (fig8/GC,
// CF, NB-C, SIMD) were re-recorded again when each plane of a depth-1 face
// began to carry only the populations that cross it: 11 + 6 + 1 = 18
// velocity-planes per face instead of 3 × 11 = 33, so their seconds, comm
// and pack, wire and unpack terms moved, interior and resident bytes did
// not. The seven depth-1 ghost-cell rows' resident bytes were re-recorded
// when the model began to price the packed fields the solver allocates
// there (core.LivePlanes: each velocity holds its owned planes and the
// upwind ghost planes it reads), at exactly the solver's allocation
// (TestModelMemoryIsTheSolvers); no time moved.
func TestPeriodicSlabScheduleUnchanged(t *testing.T) {
	type golden struct {
		seconds      float64
		comm         [3]float64 // min, median, max
		bytesPerTask float64
		phaseSum     obs.PhaseSeconds
		phaseLast    obs.PhaseSeconds
	}
	want := map[string]golden{
		"fig8/Orig":        {5.957250117195439, [3]float64{0.09161898786111385, 0.12507615383292142, 0.16262333317178493}, 8.2182144e+07, obs.PhaseSeconds{2975.3856260114617, 0, 2.467237647058845, 61.90410208704542, 2.467237647058845, 0, 0, 0, 0}, obs.PhaseSeconds{5.813853431386996, 0, 0.00481882352941177, 0.12314995709085784, 0.00481882352941177, 0, 0, 0, 0}},
		"fig8/GC":          {86.04711813667011, [3]float64{0.6678331543234676, 1.310343458328924, 2.041961962127029}, 1.66264832e+08, obs.PhaseSeconds{345910.77542777313, 0, 247.42896069284342, 5116.138262435514, 185.98896069288185, 0, 0, 0, 0}, obs.PhaseSeconds{84.34543598205632, 0, 0.060407461106656055, 1.326787993211264, 0.04540746110665598, 0, 0, 0, 0}},
		"fig8/DH":          {4.149934579604885, [3]float64{0.08751695162721908, 0.11363343943210666, 0.13866258986630298}, 8.0412672e+07, obs.PhaseSeconds{2058.860589427573, 0, 28.067237647059173, 30.177717846823732, 2.467237647058845, 0, 0, 0, 0}, obs.PhaseSeconds{4.022978936897252, 0, 0.054818823529411816, 0.061916591378792823, 0.00481882352941177, 0, 0, 0, 0}},
		"fig8/CF":          {19.75087283788995, [3]float64{0.20174172828444026, 0.34815813631837805, 0.5154482251883753}, 1.66264832e+08, obs.PhaseSeconds{79065.32009777706, 0, 247.42896069284342, 1178.0981236985508, 185.98896069288185, 0, 0, 0, 0}, obs.PhaseSeconds{19.278956795898587, 0, 0.060407461106656055, 0.30588355180033044, 0.04540746110665598, 0, 0, 0, 0}},
		"fig8/LoBr":        {3.6930495711850897, [3]float64{0.08501494218834102, 0.10766125568672053, 0.130106452951252}, 8.0412672e+07, obs.PhaseSeconds{1828.3675344050357, 0, 28.067237647059173, 27.132099831257708, 2.467237647058845, 0, 0, 0, 0}, obs.PhaseSeconds{3.5725993870538213, 0, 0.054818823529411816, 0.055503511830864966, 0.00481882352941177, 0, 0, 0, 0}},
		"fig8/NB-C":        {16.471056707646913, [3]float64{0.1716922077392932, 0.2944294001669415, 0.4334023107716463}, 1.66264832e+08, obs.PhaseSeconds{65887.76674814739, 0, 247.42896069284342, 957.648279899829, 185.98896069288185, 0, 0, 0, 0}, obs.PhaseSeconds{16.065797329915483, 0, 0.060407461106656055, 0.24905818934451432, 0.04540746110665598, 0, 0, 0, 0}},
		"fig8/GC-C":        {3.654149137302764, [3]float64{0.054818823529411816, 0.054818823529411816, 0.054818823529411816}, 8.0412672e+07, obs.PhaseSeconds{1771.2310489548784, 57.13648545015736, 28.067237647059173, 0, 2.467237647058845, 0, 0, 0, 0}, obs.PhaseSeconds{3.460955656208389, 0.11164373084543187, 0.054818823529411816, 0, 0.00481882352941177, 0, 0, 0, 0}},
		"fig8/SIMD":        {11.44930771076348, [3]float64{0.060407461106656055, 0.060407461106656055, 0.060407461106656055}, 1.66264832e+08, obs.PhaseSeconds{41797.552030855986, 4323.884692847158, 247.42896069284342, 0, 185.98896069288185, 0, 0, 0, 0}, obs.PhaseSeconds{10.19174018116514, 1.0543179497757034, 0.060407461106656055, 0, 0.04540746110665598, 0, 0, 0, 0}},
		"fig9/Orig":        {39.61495859620958, [3]float64{0.626170588235293, 4.188912841425919, 8.594446760082322}, 7.2843264e+07, obs.PhaseSeconds{8910.02833666422, 0, 16.653854117646944, 1085.1866288004794, 16.653854117646944, 0, 0, 0, 0}, obs.PhaseSeconds{33.984447317553084, 0, 0.06505411764705868, 4.910755671017078, 0.06505411764705868, 0, 0, 0, 0}},
		"fig9/NB-C":        {27.40794903705234, [3]float64{0.34732366117650665, 2.8592924366055796, 5.7993598615213005}, 8.404992e+07, obs.PhaseSeconds{6064.802812198571, 0, 88.88464564705903, 645.7095095431499, 63.28464564705838, 0, 0, 0, 0}, obs.PhaseSeconds{23.13047052640939, 0, 0.34720564705882356, 3.028622826080424, 0.24720564705882353, 0, 0, 0, 0}},
		"fig9/GC-C":        {26.878472636958822, [3]float64{0.34720564705882356, 2.265353214525936, 5.088855107967437}, 8.404992e+07, obs.PhaseSeconds{5599.588778710965, 465.2140334876061, 88.88464564705903, 511.47044729874847, 63.28464564705838, 0, 0, 0, 0}, obs.PhaseSeconds{21.36249408236756, 1.767976444041833, 0.34720564705882356, 2.650843046924396, 0.24720564705882353, 0, 0, 0, 0}},
		"fig10/q39-depth4": {270.3010588675996, [3]float64{10.644868272948473, 13.867839242893009, 18.241562164399483}, 5.431296e+08, obs.PhaseSeconds{65037.81764923731, 0, 134.14959627906947, 3436.9933554682875, 128.3895962790702, 0, 0, 0, 0}, obs.PhaseSeconds{254.20105328971852, 0, 0.5240218604651156, 13.18237107869632, 0.5015218604651169, 0, 0, 0, 0}},
		"fig11/bgq-4x16":   {39.52463153528174, [3]float64{0.027861787534883713, 0.027861787534883713, 0.027861787534883713}, 4.617879552e+09, obs.PhaseSeconds{2486.683500282425, 4.666210894599782, 1.7831544022325554, 0, 1.3031544022325596, 0, 0, 0, 0}, obs.PhaseSeconds{38.98893977290893, 0.07276988608975715, 0.027861787534883713, 0, 0.02036178753488373, 0, 0, 0, 0}},
		"fused/gcc-depth2": {2.3947015851869606, [3]float64{0.02882365087409783, 0.02882365087409783, 0.02882365087409783}, 8.4672512e+07, obs.PhaseSeconds{9188.321760078657, 303.4802963386695, 118.06167398031059, 0, 102.08727398031195, 0, 0, 0, 0}, obs.PhaseSeconds{2.2367217681501015, 0.07359467680718901, 0.02882365087409783, 0, 0.02492365087409784, 0, 0, 0, 0}},
	}
	near := func(got, want float64) bool {
		return math.Abs(got-want) <= 1e-9*math.Abs(want)
	}
	cases := periodicSlabJobs()
	if len(cases) != len(want) {
		t.Fatalf("%d jobs, %d golden rows", len(cases), len(want))
	}
	for _, c := range cases {
		w := want[c.name]
		res := mustRun(t, c.job)
		if !near(res.Seconds, w.seconds) {
			t.Errorf("%s: %.15g s, was %.15g", c.name, res.Seconds, w.seconds)
		}
		s := res.CommSummary()
		for i, got := range [3]float64{s.Min, s.Median, s.Max} {
			if !near(got, w.comm[i]) {
				t.Errorf("%s: comm summary[%d] %.15g s, was %.15g", c.name, i, got, w.comm[i])
			}
		}
		if res.BytesPerTask != w.bytesPerTask {
			t.Errorf("%s: %.0f B per task, was %.0f", c.name, res.BytesPerTask, w.bytesPerTask)
		}
		var sum obs.PhaseSeconds
		for _, ph := range res.RankPhases {
			for p := range sum {
				sum[p] += ph[p]
			}
		}
		last := res.RankPhases[len(res.RankPhases)-1]
		for p := obs.Phase(0); p < obs.NumPhases; p++ {
			if !near(sum[p], w.phaseSum[p]) {
				t.Errorf("%s: %v summed over ranks %.15g s, was %.15g", c.name, p, sum[p], w.phaseSum[p])
			}
			if !near(last[p], w.phaseLast[p]) {
				t.Errorf("%s: %v on the last rank %.15g s, was %.15g", c.name, p, last[p], w.phaseLast[p])
			}
		}
	}
}

// BenchmarkRun prices the three job kinds the tools issue: a paper-scale
// 2048-rank deep-halo slab under GC-C with jitter, the same ranks as a
// 16×16×8 block, and the repository benchmark's masked 2-rank sparse job.
func BenchmarkRun(b *testing.B) {
	slab := Job{
		Machine: machine.BGP(), Spec: machine.SpecD3Q39(), K: 3,
		Nodes: 512, TasksPerNode: 4, ThreadsPerTask: 1,
		NX: 2048 * 32, NY: 40, NZ: 40,
		Steps: 300, Depth: 2, Opt: core.OptGCC,
		Imbalance: 0.40, Seed: 5,
	}
	block := slab
	block.NX, block.NY, block.NZ = 16*24, 16*24, 8*24
	block.Decomp = [3]int{16, 16, 8}
	d := grid.Dims{NX: 192, NY: 96, NZ: 96}
	mask := geom.Bifurcation(d, 0.1*float64(d.NY))
	weights := [3][]int{mask.PlaneFluids(0)}
	dec, err := decomp.NewCartesianWeighted([3]int{d.NX, d.NY, d.NZ}, [3]int{2, 1, 1}, [3]bool{}, weights)
	if err != nil {
		b.Fatal(err)
	}
	sparse := Job{
		Machine: machine.BGQ(), Spec: machine.SpecD3Q19(), K: 1,
		Nodes: 1, TasksPerNode: 2, ThreadsPerTask: 1,
		NX: d.NX, NY: d.NY, NZ: d.NZ,
		Steps: 300, Depth: 1, Opt: core.OptGCC, Seed: 1,
		Weights: weights, RankFluids: FluidCounts(dec, mask),
	}
	for _, c := range []slabCase{{"slab2048", slab}, {"block16x16x8", block}, {"sparse2", sparse}} {
		b.Run(c.name, func(b *testing.B) {
			for b.Loop() {
				if _, err := Run(c.job); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
