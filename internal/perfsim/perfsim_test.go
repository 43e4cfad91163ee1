package perfsim

import (
	"math"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/decomp"
	"repro/internal/geom"
	"repro/internal/grid"
	"repro/internal/lattice"
	"repro/internal/machine"
)

// fig8Job is the paper's Fig. 8 configuration: 128 nodes, flat MPI — 4
// tasks/node (virtual node mode) on BG/P, 32 unthreaded tasks/node on BG/Q
// ("these results are from 128 nodes using 32 tasks per node with an
// unthreaded implementation", §VI).
func fig8Job(m machine.Machine, spec machine.KernelSpec, k int, opt core.OptLevel) Job {
	tasks := m.CoresPerNode
	if m.ThreadsPerCore > 1 {
		tasks = 2 * m.CoresPerNode
	}
	return Job{
		Machine: m, Spec: spec, K: k,
		Nodes: 128, TasksPerNode: tasks, ThreadsPerTask: 1,
		NX: 128 * tasks * 64, NY: 64, NZ: 64,
		Steps: 20, Depth: 1, Opt: opt,
		Imbalance: 0.05, Seed: 7,
	}
}

func mustRun(t *testing.T, j Job) *Result {
	t.Helper()
	res, err := Run(j)
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	return res
}

// TestFig8LadderMonotone: each optimization level must not be slower than
// the previous one, on both machines and both lattices.
func TestFig8LadderMonotone(t *testing.T) {
	for _, m := range []machine.Machine{machine.BGP(), machine.BGQ()} {
		for _, spec := range []machine.KernelSpec{machine.SpecD3Q19(), machine.SpecD3Q39()} {
			k := 1
			if spec.Q == 39 {
				k = 3
			}
			prev := 0.0
			for _, opt := range core.Levels() {
				res := mustRun(t, fig8Job(m, spec, k, opt))
				if res.MFlups < prev*0.98 {
					t.Errorf("%s %s: %v = %.0f MFlup/s < previous %.0f", m.Name, spec.Name, opt, res.MFlups, prev)
				}
				if res.MFlups > prev {
					prev = res.MFlups
				}
			}
		}
	}
}

// TestFig8HeadlineRatios pins the paper's headline results: ~3× overall
// improvement on BG/P and ~7.5-8× on BG/Q, with the tuned code reaching
// ~92%/83% (BG/P) and ~85%/79% (BG/Q) of the Table II bound.
func TestFig8HeadlineRatios(t *testing.T) {
	cases := []struct {
		m          machine.Machine
		spec       machine.KernelSpec
		k          int
		minR, maxR float64 // acceptable Orig→SIMD ratio window
		minF, maxF float64 // acceptable fraction of Table II bound
	}{
		{machine.BGP(), machine.SpecD3Q19(), 1, 2.4, 3.8, 0.85, 1.0},
		{machine.BGP(), machine.SpecD3Q39(), 3, 2.4, 3.8, 0.70, 0.95},
		{machine.BGQ(), machine.SpecD3Q19(), 1, 6.0, 9.5, 0.78, 0.95},
		{machine.BGQ(), machine.SpecD3Q39(), 3, 6.0, 9.5, 0.65, 0.9},
	}
	for _, c := range cases {
		orig := mustRun(t, fig8Job(c.m, c.spec, c.k, core.OptOrig))
		simd := mustRun(t, fig8Job(c.m, c.spec, c.k, core.OptSIMD))
		ratio := simd.MFlups / orig.MFlups
		if ratio < c.minR || ratio > c.maxR {
			t.Errorf("%s %s: Orig→SIMD ratio %.2f, want in [%.1f, %.1f]", c.m.Name, c.spec.Name, ratio, c.minR, c.maxR)
		}
		bound := machine.MaxMFlups(c.m, c.spec).Attainable * float64(128)
		frac := simd.MFlups / bound
		if frac < c.minF || frac > c.maxF {
			t.Errorf("%s %s: tuned at %.0f%% of bound, want %.0f%%-%.0f%%", c.m.Name, c.spec.Name, 100*frac, 100*c.minF, 100*c.maxF)
		}
	}
}

// TestQ39SlowerThanQ19: the extended model must cost roughly the Table II
// factor (~2×) in MFlup/s at equal optimization.
func TestQ39SlowerThanQ19(t *testing.T) {
	for _, m := range []machine.Machine{machine.BGP(), machine.BGQ()} {
		q19 := mustRun(t, fig8Job(m, machine.SpecD3Q19(), 1, core.OptSIMD))
		q39 := mustRun(t, fig8Job(m, machine.SpecD3Q39(), 3, core.OptSIMD))
		ratio := q19.MFlups / q39.MFlups
		if ratio < 1.6 || ratio > 3.2 {
			t.Errorf("%s: Q19/Q39 = %.2f, want ~2 (456 vs 936 bytes/cell)", m.Name, ratio)
		}
	}
}

// TestFig9CommBalance: the paper's Fig. 9 compares (a) the no-ghost-cell
// code with non-blocking messaging, (b) non-blocking + ghost cells, and
// (c) the separated ghost collide. The spread (max−min of per-rank comm
// time) and the maximum must both shrink down the ladder.
func TestFig9CommBalance(t *testing.T) {
	job := func(opt core.OptLevel, depth int) Job {
		return Job{
			Machine: machine.BGP(), Spec: machine.SpecD3Q19(), K: 1,
			Nodes: 64, TasksPerNode: 4, ThreadsPerTask: 1,
			NX: 64 * 4 * 24, NY: 96, NZ: 96,
			Steps: 60, Depth: depth, Opt: opt,
			Imbalance: 0.15, PersistentImbalance: 0.25, Seed: 11,
		}
	}
	noGC := mustRun(t, job(core.OptOrig, 1))
	nbcGC := mustRun(t, job(core.OptNBC, 3))
	gcc := mustRun(t, job(core.OptGCC, 3))
	sp1 := noGC.CommSummary()
	sp2 := nbcGC.CommSummary()
	sp3 := gcc.CommSummary()
	spread1 := sp1.Max - sp1.Min
	spread2 := sp2.Max - sp2.Min
	spread3 := sp3.Max - sp3.Min
	if !(spread3 < spread1 && spread2 < spread1) {
		t.Errorf("comm spread did not shrink: no-GC %.3g, NB-C+GC %.3g, GC-C %.3g", spread1, spread2, spread3)
	}
	if sp3.Max >= sp2.Max || sp2.Max >= sp1.Max {
		t.Errorf("max comm did not shrink: no-GC %.3g, NB-C+GC %.3g, GC-C %.3g", sp1.Max, sp2.Max, sp3.Max)
	}
}

// TestFig10DeepHaloTradeoff: at small per-rank sizes depth 1 must win (the
// ghost overhead dominates); at large sizes depth ≥ 2 must win (message
// reduction dominates) — the crossover of Fig. 10.
func TestFig10DeepHaloTradeoff(t *testing.T) {
	job := func(nx, depth int) Job {
		return Job{
			Machine: machine.BGP(), Spec: machine.SpecD3Q19(), K: 1,
			Nodes: 512, TasksPerNode: 4, ThreadsPerTask: 1,
			NX: nx, NY: 156, NZ: 156,
			Steps: 60, Depth: depth, Opt: core.OptNBC,
			Imbalance: 0.40, Seed: 5,
		}
	}
	// Small: 8k planes over 2048 ranks → ~4 planes/rank.
	smallD1 := mustRun(t, job(8192, 1))
	smallD2 := mustRun(t, job(8192, 2))
	if smallD2.Seconds < smallD1.Seconds {
		t.Errorf("small system: depth 2 (%.3gs) beat depth 1 (%.3gs); ghost overhead should dominate", smallD2.Seconds, smallD1.Seconds)
	}
	// Large: 512k planes → 256 planes/rank. (A depth-1 face carries 5 of
	// the 19 populations, core.DirectedFaces, so a deep halo pays bytes as
	// well as ghost updates for its saved messages: the crossover that sat
	// below 64 planes/rank when every face carried all Q sits between 64
	// and 256.)
	largeD1 := mustRun(t, job(524288, 1))
	largeD2 := mustRun(t, job(524288, 2))
	if largeD2.Seconds >= largeD1.Seconds {
		t.Errorf("large system: depth 2 (%.3gs) did not beat depth 1 (%.3gs)", largeD2.Seconds, largeD1.Seconds)
	}
}

// TestFig10OOM: the paper reports the 133k D3Q19 case with GC=4 exceeded
// node memory on BG/P.
func TestFig10OOM(t *testing.T) {
	j := Job{
		Machine: machine.BGP(), Spec: machine.SpecD3Q19(), K: 1,
		Nodes: 512, TasksPerNode: 4, ThreadsPerTask: 1,
		NX: 133000, NY: 512, NZ: 512,
		Steps: 1, Depth: 4, Opt: core.OptSIMD,
	}
	res := mustRun(t, j)
	if !res.OOM {
		t.Errorf("133k×512×512 over 2048 ranks with depth 4 fits in %.1f MB? bytes/task = %.0f MB",
			float64(machine.BGP().MemPerNodeBytes)/4/1e6, res.BytesPerTask/1e6)
	}
}

// TestFig11HybridQ39: for the extended model, fewer tasks with more threads
// must beat flat MPI at equal core count (ghost-cell reduction), the
// paper's key hybrid finding.
func TestFig11HybridQ39(t *testing.T) {
	job := func(tasks, threads, depth int) Job {
		return Job{
			Machine: machine.BGP(), Spec: machine.SpecD3Q39(), K: 3,
			Nodes: 32, TasksPerNode: tasks, ThreadsPerTask: threads,
			NX: 32 * 4 * 50, NY: 48, NZ: 48,
			Steps: 30, Depth: depth, Opt: core.OptSIMD,
			Imbalance: 0.15, Seed: 3,
		}
	}
	best := func(tasks, threads int) float64 {
		bestT := 0.0
		for depth := 1; depth <= 4; depth++ {
			res := mustRun(t, job(tasks, threads, depth))
			if bestT == 0 || res.Seconds < bestT {
				bestT = res.Seconds
			}
		}
		return bestT
	}
	hybrid := best(1, 4) // 1 task × 4 threads
	vn := best(4, 1)     // virtual node mode: 4 tasks × 1 thread
	if hybrid >= vn {
		t.Errorf("D3Q39: hybrid 1×4 (%.3gs) did not beat VN 4×1 (%.3gs)", hybrid, vn)
	}
}

// TestFig11BGQTasksThreads: on BG/Q, 4 tasks × 16 threads must beat both
// 64 tasks × 1 thread and 1 task × 64 threads (§VI.B: "the optimal pairing
// ... is actually four tasks per node with 16 threads").
func TestFig11BGQTasksThreads(t *testing.T) {
	job := func(tasks, threads int) Job {
		return Job{
			Machine: machine.BGQ(), Spec: machine.SpecD3Q39(), K: 3,
			Nodes: 16, TasksPerNode: tasks, ThreadsPerTask: threads,
			NX: 16 * 4 * 200, NY: 48, NZ: 48,
			Steps: 30, Depth: 2, Opt: core.OptSIMD,
			Imbalance: 0.15, Seed: 9,
		}
	}
	t4x16 := mustRun(t, job(4, 16)).Seconds
	t64x1 := mustRun(t, job(64, 1)).Seconds
	t1x64 := mustRun(t, job(1, 64)).Seconds
	if t4x16 >= t64x1 {
		t.Errorf("4×16 (%.3gs) did not beat 64×1 (%.3gs)", t4x16, t64x1)
	}
	if t4x16 >= t1x64 {
		t.Errorf("4×16 (%.3gs) did not beat 1×64 (%.3gs)", t4x16, t1x64)
	}
}

// TestThreadsScaleComputeWindow: ThreadsPerTask must scale the simulated
// compute windows through the parallel-efficiency model — more threads
// per task shrink wall time monotonically up to core count, one thread is
// exactly the unthreaded model (eff = 1), and the team never reaches
// ideal speedup (the serial fraction of chunk claims and batch barriers).
func TestThreadsScaleComputeWindow(t *testing.T) {
	if got := bgqCalibration.parallelEff(1); got != 1 {
		t.Errorf("parallelEff(1) = %g, want exactly 1", got)
	}
	prevEff := 1.0
	for _, th := range []int{2, 4, 16, 64} {
		eff := bgqCalibration.parallelEff(th)
		if eff >= prevEff || eff <= 0 {
			t.Errorf("parallelEff(%d) = %g, want in (0, %g)", th, eff, prevEff)
		}
		prevEff = eff
	}
	job := func(threads int) Job {
		return Job{
			Machine: machine.BGQ(), Spec: machine.SpecD3Q19(), K: 1,
			Nodes: 8, TasksPerNode: 1, ThreadsPerTask: threads,
			NX: 8 * 64, NY: 64, NZ: 64,
			Steps: 10, Depth: 1, Opt: core.OptSIMD, Seed: 1,
		}
	}
	t1 := mustRun(t, job(1)).Seconds
	prev := t1
	for _, th := range []int{2, 4, 8, 16} {
		cur := mustRun(t, job(th)).Seconds
		if cur >= prev {
			t.Errorf("%d threads (%.4gs) not faster than fewer (%.4gs)", th, cur, prev)
		}
		prev = cur
	}
	// Sub-ideal but substantial scaling at 16 threads on 16 cores.
	speedup := t1 / prev
	if speedup >= 16 {
		t.Errorf("speedup %.2fx at 16 threads is at or above ideal", speedup)
	}
	if speedup < 4 {
		t.Errorf("speedup %.2fx at 16 threads, want >= 4x", speedup)
	}
}

func TestValidation(t *testing.T) {
	base := fig8Job(machine.BGP(), machine.SpecD3Q19(), 1, core.OptSIMD)
	bad := base
	bad.ThreadsPerTask = 99
	if _, err := Run(bad); err == nil {
		t.Error("oversubscribed threads accepted")
	}
	bad = base
	bad.Depth = 0
	if _, err := Run(bad); err == nil {
		t.Error("depth 0 accepted")
	}
	bad = base
	bad.Opt = core.OptOrig
	bad.Depth = 2
	if _, err := Run(bad); err == nil {
		t.Error("Orig with depth 2 accepted")
	}
	bad = base
	bad.NX = 10
	if _, err := Run(bad); err == nil {
		t.Error("NX < ranks accepted")
	}
	bad = base
	bad.Steps = 0
	if _, err := Run(bad); err == nil {
		t.Error("0 steps accepted")
	}
}

func TestDeterminism(t *testing.T) {
	j := fig8Job(machine.BGQ(), machine.SpecD3Q19(), 1, core.OptNBC)
	a := mustRun(t, j)
	b := mustRun(t, j)
	if a.Seconds != b.Seconds || a.MFlups != b.MFlups {
		t.Error("same job, different results")
	}
	j.Seed++
	c := mustRun(t, j)
	if c.Seconds == a.Seconds {
		t.Error("different seed produced identical timing")
	}
}

func TestDefaultCross(t *testing.T) {
	q19 := DefaultCross(19)
	if len(q19) != 1 || q19[0] != 5 {
		t.Errorf("DefaultCross(19) = %v, want [5]", q19)
	}
	q39 := DefaultCross(39)
	if len(q39) != 3 || q39[0] != 11 || q39[1] != 6 || q39[2] != 1 {
		t.Errorf("DefaultCross(39) = %v, want [11 6 1]", q39)
	}
}

// TestGhostFractionGrowsWithDepth validates the overhead accounting.
func TestGhostFractionGrowsWithDepth(t *testing.T) {
	j := fig8Job(machine.BGP(), machine.SpecD3Q19(), 1, core.OptGC)
	j.Depth = 1
	d1 := mustRun(t, j)
	j.Depth = 3
	d3 := mustRun(t, j)
	if d1.GhostUpdateFraction != 0 {
		t.Errorf("depth 1 ghost fraction = %g, want 0", d1.GhostUpdateFraction)
	}
	if d3.GhostUpdateFraction <= 0 {
		t.Errorf("depth 3 ghost fraction = %g, want > 0", d3.GhostUpdateFraction)
	}
}

// decompJob is a BG/Q job at paper-like scale used for the decomposition
// shape comparisons.
func decompJob(ranks int, p [3]int, n int) Job {
	return Job{
		Machine: machine.BGQ(), Spec: machine.SpecD3Q19(), K: 1,
		Nodes: ranks, TasksPerNode: 1, ThreadsPerTask: 16,
		NX: n, NY: n, NZ: n, Decomp: p,
		Steps: 20, Depth: 1, Opt: core.OptNBC,
		Imbalance: 0.05, Seed: 13,
	}
}

// TestDecompSurfaceShrinks: at >= 8 ranks the 3-D block's total per-rank
// halo payload must be strictly below the slab's, and per-axis volumes
// must be populated only on decomposed axes.
func TestDecompSurfaceShrinks(t *testing.T) {
	for _, ranks := range []int{8, 64} {
		slab := mustRun(t, decompJob(ranks, [3]int{ranks, 1, 1}, 256))
		p3, err := decomp.Factor(ranks, 3, [3]int{256, 256, 256})
		if err != nil {
			t.Fatal(err)
		}
		block := mustRun(t, decompJob(ranks, p3, 256))
		if slab.AxisBytes[1] != 0 || slab.AxisBytes[2] != 0 {
			t.Errorf("ranks %d: slab reports y/z traffic %v", ranks, slab.AxisBytes)
		}
		for a := 0; a < 3; a++ {
			if p3[a] > 1 && block.AxisBytes[a] == 0 {
				t.Errorf("ranks %d: block shape %v missing axis %d traffic", ranks, p3, a)
			}
		}
		if block.SurfaceBytes() >= slab.SurfaceBytes() {
			t.Errorf("ranks %d: block surface %.0f not below slab %.0f",
				ranks, block.SurfaceBytes(), slab.SurfaceBytes())
		}
	}
}

// TestDecompBlockFasterAtScale: with a slab so thin that its faces
// dominate, the 3-D block must finish sooner.
func TestDecompBlockFasterAtScale(t *testing.T) {
	const ranks, n = 512, 512
	slab := mustRun(t, decompJob(ranks, [3]int{ranks, 1, 1}, n))
	block := mustRun(t, decompJob(ranks, [3]int{8, 8, 8}, n))
	if block.Seconds >= slab.Seconds {
		t.Errorf("512 ranks: 8x8x8 (%.4gs) did not beat slab (%.4gs)", block.Seconds, slab.Seconds)
	}
}

// TestDecompGhostAccountingMulti: deep halos on a block recompute ghost
// shells on every decomposed axis.
func TestDecompGhostAccountingMulti(t *testing.T) {
	j := decompJob(8, [3]int{2, 2, 2}, 64)
	j.Depth = 1
	d1 := mustRun(t, j)
	j.Depth = 2
	d2 := mustRun(t, j)
	if d1.GhostUpdateFraction != 0 {
		t.Errorf("depth 1 ghost fraction = %g, want 0", d1.GhostUpdateFraction)
	}
	if d2.GhostUpdateFraction <= 0 {
		t.Errorf("depth 2 ghost fraction = %g, want > 0", d2.GhostUpdateFraction)
	}
	// At 8 ranks on 64³ a slab is only 8 planes thick, so its relative
	// deep-halo recompute overhead exceeds the chunky 32³ block's — the
	// same surface-to-volume argument that shrinks the block's messages.
	js := decompJob(8, [3]int{8, 1, 1}, 64)
	js.Depth = 2
	slab := mustRun(t, js)
	if d2.GhostUpdateFraction >= slab.GhostUpdateFraction {
		t.Errorf("block ghost fraction %g not below thin-slab %g", d2.GhostUpdateFraction, slab.GhostUpdateFraction)
	}
}

func TestDecompValidation(t *testing.T) {
	j := decompJob(8, [3]int{2, 2, 1}, 64)
	if _, err := Run(j); err == nil {
		t.Error("shape/rank mismatch accepted")
	}
	j = decompJob(8, [3]int{2, 2, 2}, 64)
	j.Opt = core.OptOrig
	if _, err := Run(j); err == nil {
		t.Error("Orig with multi-axis decomposition accepted")
	}
	j = decompJob(8, [3]int{2, 2, 2}, 64)
	j.NZ = 1
	if _, err := Run(j); err == nil {
		t.Error("axis overcommit accepted")
	}
}

// TestMultiAxisOverlap: with the per-axis GC-C overlap modeled, a
// multi-axis GC-C run must expose less communication — and finish no
// later — than the same job at NB-C, on both pencil and block shapes.
func TestMultiAxisOverlap(t *testing.T) {
	for _, shape := range [][3]int{{8, 8, 1}, {4, 4, 4}} {
		base := Job{
			Machine: machine.BGP(), Spec: machine.SpecD3Q19(), K: 1,
			Nodes: 64, TasksPerNode: 1, ThreadsPerTask: 4,
			NX: 256, NY: 256, NZ: 256, Decomp: shape,
			Steps: 20, Depth: 1, Opt: core.OptNBC,
			Imbalance: 0.05, Seed: 11,
		}
		nbc := mustRun(t, base)
		gcc := base
		gcc.Opt = core.OptGCC
		over := mustRun(t, gcc)
		if over.Seconds > nbc.Seconds*1.001 {
			t.Errorf("shape %v: GC-C %.4fs slower than NB-C %.4fs", shape, over.Seconds, nbc.Seconds)
		}
		if over.CommSummary().Max >= nbc.CommSummary().Max {
			t.Errorf("shape %v: GC-C exposed comm %.4fs not below NB-C %.4fs",
				shape, over.CommSummary().Max, nbc.CommSummary().Max)
		}
	}
}

// TestBoundedAxesReduceCommunication: with bounded (non-periodic) axes,
// edge ranks skip the wraparound messages, so the simulated schedule must
// be no slower than the periodic one, strictly cheaper in exposed
// communication, and report a smaller per-axis surface when every rank of
// an axis is an edge rank (P = 2).
func TestBoundedAxesReduceCommunication(t *testing.T) {
	base := Job{
		Machine: machine.BGQ(), Spec: machine.SpecD3Q19(), K: 1,
		Nodes: 8, TasksPerNode: 2, ThreadsPerTask: 1,
		NX: 64, NY: 64, NZ: 64,
		Decomp: [3]int{4, 2, 2},
		Steps:  12, Depth: 1, Opt: core.OptNBC, Seed: 3,
	}
	periodic := mustRun(t, base)
	bounded := base
	bounded.Bounded = [3]bool{true, true, false}
	bnd := mustRun(t, bounded)

	sum := func(cs []float64) float64 {
		var s float64
		for _, c := range cs {
			s += c
		}
		return s
	}
	if sum(bnd.CommSeconds) >= sum(periodic.CommSeconds) {
		t.Errorf("bounded comm %g not below periodic %g", sum(bnd.CommSeconds), sum(periodic.CommSeconds))
	}
	if bnd.Seconds > periodic.Seconds*1.0001 {
		t.Errorf("bounded run slower than periodic: %g vs %g", bnd.Seconds, periodic.Seconds)
	}
	// y and z have P=2: every rank is an edge rank on y, so the bounded y
	// surface halves; the periodic z axis is untouched.
	if got, want := bnd.AxisBytes[1], periodic.AxisBytes[1]/2; got != want {
		t.Errorf("bounded y-axis bytes = %g, want %g", got, want)
	}
	if bnd.AxisBytes[2] != periodic.AxisBytes[2] {
		t.Errorf("periodic z-axis bytes changed: %g vs %g", bnd.AxisBytes[2], periodic.AxisBytes[2])
	}
	// x has P=4: interior x ranks still message both ways, so the busiest
	// rank's x surface is unchanged.
	if bnd.AxisBytes[0] != periodic.AxisBytes[0] {
		t.Errorf("x-axis busiest-rank bytes changed: %g vs %g", bnd.AxisBytes[0], periodic.AxisBytes[0])
	}

	// The bounded slab schedule: a 2-rank slab with a bounded x axis
	// exchanges one face per rank instead of two. y and z are uncut and
	// periodic, so they stay wrap axes as on the periodic slab and that
	// face spans 32×32 cells (what core.Run reports as HaloAxisBytes).
	slab := Job{
		Machine: machine.BGQ(), Spec: machine.SpecD3Q19(), K: 1,
		Nodes: 2, TasksPerNode: 1, ThreadsPerTask: 1,
		NX: 64, NY: 32, NZ: 32,
		Steps: 10, Depth: 1, Opt: core.OptGC, Seed: 5,
	}
	slabP := mustRun(t, slab)
	slabB := slab
	slabB.Bounded = [3]bool{true, false, false}
	slabBnd := mustRun(t, slabB)
	// A depth-1 face: the 5 populations pulled out of its ghost.
	if got, want := slabBnd.AxisBytes[0], float64(5*8*32*32); got != want {
		t.Errorf("bounded slab x bytes = %g, want %g", got, want)
	}
	if sum(slabBnd.CommSeconds) >= sum(slabP.CommSeconds) {
		t.Errorf("bounded slab comm %g not below periodic %g", sum(slabBnd.CommSeconds), sum(slabP.CommSeconds))
	}

	// Orig cannot run bounded (no ghost layer to fill).
	bad := slabB
	bad.Opt = core.OptOrig
	if _, err := Run(bad); err == nil {
		t.Error("bounded Orig accepted")
	}
}

// TestAAStreamModel: the AA in-place scheme must halve the resident field
// footprint (one field instead of two) and run at least as fast as the
// two-grid layout at the same configuration (a third less streamed
// traffic on a bandwidth-bound kernel), with odd ghost depths rounded up
// to the even pair cadence rather than rejected.
func TestAAStreamModel(t *testing.T) {
	tg := fig8Job(machine.BGP(), machine.SpecD3Q19(), 1, core.OptSIMD)
	tg.Depth = 2 // even: AA's pair-cadence rounding leaves the halo margins equal
	// Compared at like geometry: a block, cut on every axis, carries ghosts
	// on every axis under both schemes. On an uncut periodic axis the
	// two-grid run wraps in its kernels while AA, as in the solver, pays for
	// ghost copies there.
	tg.Decomp = [3]int{tg.Nodes * tg.TasksPerNode / 4, 2, 2}
	aa := tg
	aa.Stream = core.StreamAA
	rtg := mustRun(t, tg)
	raa := mustRun(t, aa)
	if got, want := raa.BytesPerTask, rtg.BytesPerTask/2; got != want {
		t.Errorf("AA BytesPerTask = %g, want half of two-grid (%g)", got, want)
	}
	if raa.MFlups < rtg.MFlups {
		t.Errorf("AA MFlups %.0f < two-grid %.0f: less traffic must not be slower", raa.MFlups, rtg.MFlups)
	}
	odd := aa
	odd.Depth = 3
	even := aa
	even.Depth = 4
	ro, re := mustRun(t, odd), mustRun(t, even)
	if ro.Seconds != re.Seconds {
		t.Errorf("AA depth 3 (rounds to 4) simulated %.3fs, depth 4 %.3fs; want equal", ro.Seconds, re.Seconds)
	}
	orig := tg
	orig.Opt = core.OptOrig
	orig.Stream = core.StreamAA
	if _, err := Run(orig); err == nil {
		t.Error("AA + OptOrig accepted; the no-ghost protocol has nowhere to exchange pairs")
	}
}

// maskedJob is an 8-rank slab over a domain whose fluid lives entirely in
// the first quarter of the x axis — the concentrated-work profile where
// equal-extent cuts leave six of eight ranks idle.
func maskedJob(fluids []int, weights [3][]int) Job {
	return Job{
		Machine: machine.BGQ(), Spec: machine.SpecD3Q19(), K: 1,
		Nodes: 8, TasksPerNode: 1, ThreadsPerTask: 1,
		NX: 128, NY: 32, NZ: 32,
		Steps: 10, Depth: 1, Opt: core.OptNBC, Seed: 1,
		Weights: weights, RankFluids: fluids,
	}
}

// TestRankFluidsBalancedCuts: with the sparse cost model (per-rank compute
// windows scale by fluid fraction), fluid-balanced cut placement must
// predict a strictly faster run than equal-extent volume cuts over the
// same mask — the observe-predict counterpart of `lbmbench -exp balance`.
func TestRankFluidsBalancedCuts(t *testing.T) {
	d := grid.Dims{NX: 128, NY: 32, NZ: 32}
	mask := geom.FromFunc(d, func(ix, iy, iz int) bool {
		return ix >= d.NX/4 // fluid quarter at low x, solid elsewhere
	})
	global := [3]int{d.NX, d.NY, d.NZ}
	p := [3]int{8, 1, 1}

	volDec, err := decomp.NewCartesian(global, p)
	if err != nil {
		t.Fatal(err)
	}
	volume := mustRun(t, maskedJob(FluidCounts(volDec, mask), [3][]int{}))

	wx := mask.PlaneFluids(0)
	balDec, err := decomp.NewCartesianWeighted(global, p, [3]bool{}, [3][]int{wx})
	if err != nil {
		t.Fatal(err)
	}
	balanced := mustRun(t, maskedJob(FluidCounts(balDec, mask), [3][]int{wx}))

	// Volume cuts concentrate all fluid on two of eight ranks; balanced
	// cuts spread it across the team, so the critical path must shrink by
	// well over the 1.5× acceptance floor of the end-to-end experiment.
	if balanced.Seconds >= volume.Seconds/1.5 {
		t.Errorf("balanced cuts %.4gs not 1.5x under volume cuts %.4gs", balanced.Seconds, volume.Seconds)
	}
	if balanced.MFlups <= volume.MFlups {
		t.Errorf("balanced MFlups %.0f not above volume %.0f", balanced.MFlups, volume.MFlups)
	}
	// Both normalize Mflup/s by fluid cells, not box volume: an all-dense
	// job of the same box at the same wall time would report 4x the rate.
	if fl, box := mask.Fluids(), d.Cells(); fl*4 != box {
		t.Fatalf("mask fluid fraction drifted: %d fluid of %d cells", fl, box)
	}
}

// TestSparseHaloBytesPredictReal: under the sparse cost model the halo is
// priced at what the solver sends — fluid spans, not dense planes. The
// prediction for the 192×96×96 bifurcation job on two fluid-balanced ranks
// (the repository benchmark's sparse workload) must land within 3× of the
// payload the real exchangers pack, where the dense face is ~16× off.
func TestSparseHaloBytesPredictReal(t *testing.T) {
	d := grid.Dims{NX: 192, NY: 96, NZ: 96}
	mask := geom.Bifurcation(d, 0.1*float64(d.NY))
	p := [3]int{2, 1, 1}
	real, err := core.Run(core.Config{
		Model: lattice.D3Q19(), N: d, Tau: 0.8, Steps: 1,
		Opt: core.OptGCC, Ranks: 2, Decomp: p, Threads: 1,
		Solid: mask, Sparse: true, Balance: core.BalanceFluid,
	})
	if err != nil {
		t.Fatal(err)
	}
	weights := [3][]int{mask.PlaneFluids(0)}
	dec, err := decomp.NewCartesianWeighted([3]int{d.NX, d.NY, d.NZ}, p, [3]bool{}, weights)
	if err != nil {
		t.Fatal(err)
	}
	job := Job{
		Machine: machine.BGQ(), Spec: machine.SpecD3Q19(), K: 1,
		Nodes: 1, TasksPerNode: 2, ThreadsPerTask: 1,
		NX: d.NX, NY: d.NY, NZ: d.NZ, Decomp: p,
		Steps: 10, Depth: 1, Opt: core.OptGCC, Seed: 1,
		Weights: weights, RankFluids: FluidCounts(dec, mask),
	}
	sparse := mustRun(t, job)
	got, want := sparse.AxisBytes[0], float64(real.HaloAxisBytes[0])
	t.Logf("predicted %.0f B, packed %.0f B", got, want)
	if want <= 0 || got > 3*want || got < want/3 {
		t.Errorf("predicted x payload %.0f B per exchange, the solver packs %.0f B; want within 3x", got, want)
	}
	job.RankFluids = nil
	if dense := mustRun(t, job).AxisBytes[0]; dense < 10*want {
		t.Errorf("dense pricing %.0f B is within 10x of the sparse payload %.0f B; the job no longer separates the two", dense, want)
	}
}

// TestRankFluidsValidation: the sparse cost model's inputs are checked —
// length, sign, emptiness, and exclusivity with the synthetic Imbalance
// knob (the mask is the imbalance).
func TestRankFluidsValidation(t *testing.T) {
	d := grid.Dims{NX: 128, NY: 32, NZ: 32}
	mask := geom.FromFunc(d, func(ix, iy, iz int) bool { return ix >= d.NX/4 })
	dec, err := decomp.NewCartesian([3]int{d.NX, d.NY, d.NZ}, [3]int{8, 1, 1})
	if err != nil {
		t.Fatal(err)
	}
	fluids := FluidCounts(dec, mask)

	bad := maskedJob(fluids, [3][]int{})
	bad.Imbalance = 0.05
	if _, err := Run(bad); err == nil {
		t.Error("RankFluids with synthetic Imbalance accepted")
	}
	bad = maskedJob(fluids[:4], [3][]int{})
	if _, err := Run(bad); err == nil {
		t.Error("short RankFluids accepted")
	}
	neg := append([]int(nil), fluids...)
	neg[0] = -1
	bad = maskedJob(neg, [3][]int{})
	if _, err := Run(bad); err == nil {
		t.Error("negative fluid count accepted")
	}
	bad = maskedJob(make([]int, 8), [3][]int{})
	if _, err := Run(bad); err == nil {
		t.Error("all-zero fluid counts accepted")
	}
}

// TestRankPhasesSumToClock: the phase decomposition must be exact — every
// term added to a rank's phase vector is a clock-delta term of the same
// schedule branch, so the vector sums to the rank's total to float
// round-off, on every protocol and decomposition.
func TestRankPhasesSumToClock(t *testing.T) {
	m := machine.BGP()
	spec := machine.SpecD3Q19()
	jobs := []Job{
		{Machine: m, Spec: spec, K: 1, Nodes: 4, TasksPerNode: 1, ThreadsPerTask: 1,
			NX: 64, NY: 32, NZ: 32, Steps: 6, Depth: 1, Opt: core.OptOrig, Seed: 3},
		{Machine: m, Spec: spec, K: 1, Nodes: 4, TasksPerNode: 1, ThreadsPerTask: 1,
			NX: 64, NY: 32, NZ: 32, Steps: 6, Depth: 1, Opt: core.OptGC, Seed: 3},
		{Machine: m, Spec: spec, K: 1, Nodes: 4, TasksPerNode: 1, ThreadsPerTask: 1,
			NX: 64, NY: 32, NZ: 32, Steps: 6, Depth: 2, Opt: core.OptNBC, Seed: 3},
		{Machine: m, Spec: spec, K: 1, Nodes: 4, TasksPerNode: 1, ThreadsPerTask: 1,
			NX: 64, NY: 32, NZ: 32, Steps: 6, Depth: 2, Opt: core.OptGCC, Imbalance: 0.05, Seed: 3},
		{Machine: m, Spec: spec, K: 1, Nodes: 8, TasksPerNode: 1, ThreadsPerTask: 1,
			NX: 64, NY: 64, NZ: 32, Decomp: [3]int{2, 2, 2}, Steps: 6, Depth: 1, Opt: core.OptGCC, Seed: 3},
		{Machine: m, Spec: spec, K: 1, Nodes: 8, TasksPerNode: 1, ThreadsPerTask: 1,
			NX: 64, NY: 64, NZ: 32, Decomp: [3]int{2, 4, 1}, Steps: 6, Depth: 1, Opt: core.OptSIMD, Seed: 3},
	}
	for _, j := range jobs {
		res := mustRun(t, j)
		if len(res.RankPhases) != len(res.PerRankSeconds) {
			t.Fatalf("%v decomp %v: %d phase vectors for %d ranks", j.Opt, j.Decomp, len(res.RankPhases), len(res.PerRankSeconds))
		}
		for r, ph := range res.RankPhases {
			want := res.PerRankSeconds[r]
			if got := ph.Total(); want == 0 || got < want*(1-1e-9) || got > want*(1+1e-9) {
				t.Errorf("%v decomp %v rank %d: phases sum to %.9f, clock %.9f", j.Opt, j.Decomp, r, got, want)
			}
		}
	}
}

// TestCoeffsValidate: every coefficient bound rejects NaN and ±Inf as
// well as out-of-range values, and the error names the key. A NaN that
// slipped through used to price NaN seconds with a nil error.
func TestCoeffsValidate(t *testing.T) {
	good := func() Coeffs {
		return Coeffs{
			MemBW: 10e9, BWSaturation: 2, CopyBW: 16e9, LinkBW: 1e8,
			Latency: 1e-4, MsgSW: 1e-5, ThreadSerialFrac: 0.002,
			KernelCost: map[string]float64{"trt": 1.3},
		}
	}
	if c := good(); c.Validate() != nil {
		t.Fatalf("baseline rejected: %v", c.Validate())
	}
	if c := (Coeffs{MemBW: 1, BWSaturation: 1, CopyBW: 1, LinkBW: 1}); c.Validate() != nil {
		t.Errorf("zero latency/msg_sw/serial frac/adjusts are legal: %v", c.Validate())
	}
	nan, inf := math.NaN(), math.Inf(1)
	fields := []struct {
		key      string
		set      func(*Coeffs, float64)
		tooSmall float64 // the largest finite value the bound still rejects
	}{
		{"mem_bw", func(c *Coeffs, v float64) { c.MemBW = v }, 0},
		{"copy_bw", func(c *Coeffs, v float64) { c.CopyBW = v }, 0},
		{"link_bw", func(c *Coeffs, v float64) { c.LinkBW = v }, 0},
		{"bw_saturation", func(c *Coeffs, v float64) { c.BWSaturation = v }, 0.5},
		{"latency", func(c *Coeffs, v float64) { c.Latency = v }, -1e-9},
		{"msg_sw", func(c *Coeffs, v float64) { c.MsgSW = v }, -1e-9},
		{"thread_serial_frac", func(c *Coeffs, v float64) { c.ThreadSerialFrac = v }, -1e-9},
		{"fused_adjust", func(c *Coeffs, v float64) { c.FusedAdjust = v }, -1},
		{"aa_adjust", func(c *Coeffs, v float64) { c.AAAdjust = v }, -1},
		{"kernel_cost[trt]", func(c *Coeffs, v float64) { c.KernelCost["trt"] = v }, -1},
	}
	for _, f := range fields {
		for _, v := range []float64{f.tooSmall, nan, inf, -inf} {
			c := good()
			f.set(&c, v)
			err := c.Validate()
			if err == nil {
				t.Errorf("%s = %g accepted", f.key, v)
				continue
			}
			if !strings.Contains(err.Error(), f.key) {
				t.Errorf("%s = %g: error %q does not name the key", f.key, v, err)
			}
			j := Job{
				Machine: machine.BGP(), Spec: machine.SpecD3Q19(), K: 1,
				Nodes: 2, TasksPerNode: 1, ThreadsPerTask: 1, NX: 64, NY: 32, NZ: 32,
				Steps: 4, Depth: 1, Opt: core.OptGCC, Coeffs: &c,
			}
			if _, err := Run(j); err == nil {
				t.Errorf("Run accepted coeffs with %s = %g", f.key, v)
			}
		}
	}
}
