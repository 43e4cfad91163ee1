// Package perfsim is a discrete-event performance simulator for the
// paper-scale experiments: it executes the solver's communication and
// computation *schedule* — the same deep-halo cycles, message sizes,
// blocking/non-blocking/overlapped exchange semantics and load imbalance
// propagation as internal/core — against the Blue Gene machine models of
// internal/machine, using virtual clocks instead of real kernels.
//
// This is the substitution layer (DESIGN.md): the repository's real kernels
// demonstrate every trade-off at laptop scale, and perfsim projects the
// same schedule onto the published hardware constants to regenerate the
// shapes of Fig. 8-11 and Tables III/IV at 128-2048 ranks.
//
// There is one ghost-cell schedule (simState.run), as there is one stepper:
// the ghost geometry is data, per-axis widths obtained from the solver's
// own rule (core.GhostWidths, fed Job.Decomp, Job.Bounded, Job.Stream and
// whether a rank fluid profile is present). The rule is per axis: a cut or
// bounded axis carries ghosts, an uncut periodic y or z is a wrap axis of
// width 0 — the paper's periodic slab is the x-only case, a cavity or a
// P×Q×1 pencil wraps z — and AA and sparse jobs carry ghosts on all three.
// What a ghost face carries is the solver's second rule
// (core.DirectedFaces): at depth 1 each plane holds only the populations
// streaming pulls out of it. Box growth, face cross-sections, local wraps
// and resident memory follow the widths — memory through the solver's
// third rule (core.LivePlanes) and grid's own field size (grid.FieldLen):
// where x alone has ghosts each velocity stores only the x-planes it
// touches — so the model prices each job on the geometry the solver runs
// it on and rejects the jobs the solver rejects. The no-ghost Orig
// protocol keeps its own per-step loop (runOrig) over the same per-rank
// geometry table.
//
// Per-optimization-level efficiency factors are calibrated once, in
// calibration.go, against the paper's own statements (e.g. "DH gained 30%
// on BG/P but 75% on BG/Q", "O3 on BG/Q produced 2.5×"); everything else —
// ghost-cell overhead, message counts and sizes, overlap windows, the
// min/median/max communication spread — emerges from the simulated
// schedule.
package perfsim

import (
	"fmt"
	"math"

	"repro/internal/core"
	"repro/internal/decomp"
	"repro/internal/geom"
	"repro/internal/grid"
	"repro/internal/lattice"
	"repro/internal/machine"
	"repro/internal/metrics"
	"repro/internal/obs"
)

// Job describes one simulated run.
type Job struct {
	Machine machine.Machine
	Spec    machine.KernelSpec
	// K is the lattice max speed (planes crossed per step): 1 for D3Q19,
	// 3 for D3Q39.
	K int

	Nodes          int
	TasksPerNode   int
	ThreadsPerTask int

	// NX, NY, NZ is the global domain, decomposed across all tasks.
	NX, NY, NZ int
	// Decomp is the rank-grid shape (Px, Py, Pz); its product must equal
	// Nodes × TasksPerNode. The zero value selects the paper's 1-D slab.
	// The shape is the first input of the ghost-geometry rule
	// (core.GhostWidths): a cut axis carries ghosts, an uncut periodic y or
	// z of a two-grid dense job carries none — a P×1×1 slab keeps ghosts on
	// x only. Ghosted axes refresh in the sequential per-axis exchange of
	// the solver; per-axis message sizes shrink with the block
	// cross-sections, which is how 3-D beats 1-D per-rank surface at scale.
	Decomp [3]int
	// Bounded marks non-periodic axes (walls, lids, outflow): the edge
	// ranks of a bounded axis have no wraparound partner, so they skip
	// the message across the global boundary and write their boundary
	// ghost faces locally instead (a memory copy, not a message) — the
	// schedule of the bounded solver. An interior rank of a bounded axis
	// communicates exactly like a periodic one. A bounded axis carries
	// ghosts whatever the shape (boundary fills live in ghost layers).
	Bounded [3]bool
	Steps   int
	Depth   int // ghost-cell depth (1 for OptOrig)
	Opt     core.OptLevel
	// Fused models the fused stream-collide kernel: one read and one
	// write of the field per step instead of the split path's three
	// accesses, so the streamed bytes per cell drop to 2/3 (the same
	// traffic argument as the AA scheme — the same gather sweep on one
	// field, so the two exclude each other). Requires a ghost-cell level;
	// composes with bounded axes, masks and every operator, as in the solver.
	Fused bool
	// Stream selects the storage scheme modeled. The two-grid layout keeps
	// two resident fields and streams three field accesses per cell per
	// step (read f, plus the write-allocate read and the write-back of
	// fadv; the collide re-reads fadv's rows from cache); the AA in-place
	// scheme keeps one field touched twice per sub-step, so the resident
	// footprint halves and the streamed traffic drops by a third. AA
	// exchanges only at pair boundaries, so Depth rounds up to even, and
	// its slot stars live in ghost layers: an AA job carries ghosts on
	// every axis whatever its shape.
	Stream core.StreamScheme

	// Weights, when non-nil on a decomposed axis, places that axis's cut
	// planes by weighted recursive bisection (decomp.NewCartesianWeighted
	// over the axis's per-plane fluid histogram, geom.PlaneFluids) instead
	// of equal extents — the solver's -balance fluid policy. The rank grid
	// and schedule are unchanged; only the per-rank extents move.
	Weights [3][]int
	// RankFluids, when non-nil, gives each rank's fluid-cell count (length
	// Nodes × TasksPerNode, e.g. from FluidCounts): compute windows and
	// halo payloads scale by each rank's fluid fraction — the
	// sparse-traversal cost model on a masked domain — and MFlups
	// normalizes by total fluid cells, the paper's Mflup/s. The sparse run
	// index lives in ghost layers, so the job carries ghosts on every
	// axis. The geometry then IS the load imbalance, so the synthetic
	// Imbalance knob is rejected alongside it (PersistentImbalance, which
	// models machine asymmetry rather than work asymmetry, still composes).
	RankFluids []int

	// Imbalance is the peak fractional per-step compute jitter (uniform in
	// [0, Imbalance], redrawn every step); PersistentImbalance is a
	// per-rank slowdown drawn once per run (uniform in [0, Persistent-
	// Imbalance]) modeling structural asymmetry — OS noise pinned to
	// certain nodes, network position — which is what stretches the
	// paper's Fig. 9 min→max span to 4.8-40 s. Seed makes both
	// reproducible.
	Imbalance           float64
	PersistentImbalance float64
	Seed                uint64

	// Coeffs, when non-nil, replaces the named-machine calibration with a
	// fitted coefficient set (see coeffs.go): the closed-loop calibration
	// path of internal/tune. The Machine then only supplies the hardware
	// envelope (core counts for validation, the flop roofline, node
	// memory for the OOM check); every rate comes from the coefficients.
	Coeffs *Coeffs
	// CellCost scales the per-cell kernel cost (bytes and flops): the
	// fitted cost of a non-BGK collision kernel or a storage-scheme
	// correction, usually Coeffs.CellCost(...). Zero means 1.
	CellCost float64
}

// FluidCounts returns each rank's fluid-cell count under dec: the
// per-rank work profile a masked job hands to Job.RankFluids, and the
// objective a candidate cut placement is priced on.
func FluidCounts(dec decomp.Cartesian, mask *geom.Mask) []int {
	out := make([]int, dec.Ranks())
	for r := range out {
		var lo, hi [3]int
		for a := 0; a < 3; a++ {
			s, n := dec.Own(r, a)
			lo[a], hi[a] = s, s+n
		}
		out[r] = mask.FluidsInBox(lo, hi)
	}
	return out
}

// lattices are the velocity sets a job's kernel spec can name, by Q.
var lattices = []*lattice.Model{lattice.D3Q19(), lattice.D3Q27(), lattice.D3Q39()}

// latticeFor returns the lattice with q velocities.
func latticeFor(q int) (*lattice.Model, error) {
	for _, m := range lattices {
		if m.Q == q {
			return m, nil
		}
	}
	return nil, fmt.Errorf("perfsim: no lattice has %d velocities (D3Q19, D3Q27 and D3Q39 do)", q)
}

// DefaultCross returns the crossing-velocity counts of the lattice with q
// velocities, counted from its velocities' x components: entry m-1 counts
// the populations with c_x ≥ m, those that cross m planes — what the naive
// protocol's message for plane m carries, and what the plane m cells out
// of a depth-1 ghost face holds (core.DirectedFaces). D3Q19 has [5], D3Q27
// [9], D3Q39 [11 6 1]; the lattices are symmetric in the two directions
// and across the axes. It is nil for a q no lattice has.
func DefaultCross(q int) []int {
	m, err := latticeFor(q)
	if err != nil {
		return nil
	}
	cross := make([]int, m.MaxSpeed)
	for _, c := range m.Cx {
		for d := 1; d <= c; d++ {
			cross[d-1]++
		}
	}
	return cross
}

// crossVelPlanes is the velocity-planes both the naive protocol and a
// depth-1 ghost face ship per face: Σ_m DefaultCross(q)[m-1].
func crossVelPlanes(q int) int {
	n := 0
	for _, c := range DefaultCross(q) {
		n += c
	}
	return n
}

// Result reports the simulated execution.
type Result struct {
	// Seconds is the slowest rank's finish time.
	Seconds float64
	// MFlups is steps × interior cells / seconds / 1e6.
	MFlups float64
	// PerRankSeconds and CommSeconds give per-rank totals; CommSeconds is
	// the exposed (non-overlapped) communication wait, the paper's Fig. 9
	// quantity.
	PerRankSeconds []float64
	CommSeconds    []float64
	// BytesPerTask is the resident field memory of the busiest task — its
	// ghosted box, or under RankFluids just that box's fluid cells, as the
	// solver stores them; OOM reports whether it exceeds the per-task share
	// of node memory (the paper's "individual nodes ran out of memory"
	// cases).
	BytesPerTask float64
	OOM          bool
	// GhostUpdateFraction is extra ghost-cell updates / interior updates.
	GhostUpdateFraction float64
	// AxisBytes is the per-rank halo payload sent along each axis per
	// full exchange (widest rank, both directions): the per-axis
	// communication surface of the decomposition shape. Zero on
	// undecomposed axes and for the no-ghost Orig protocol.
	AxisBytes [3]float64
	// RankPhases decomposes each rank's clock into the observability
	// layer's phase taxonomy (interior, rim, pack, wire, unpack, face):
	// the predicted counterpart of a real run's per-phase breakdown, the
	// observe-predict bridge of the calibration loop. The terms sum to
	// PerRankSeconds exactly by construction.
	RankPhases []obs.PhaseSeconds
}

// SurfaceBytes returns the total per-rank halo payload per exchange.
func (r *Result) SurfaceBytes() float64 {
	return r.AxisBytes[0] + r.AxisBytes[1] + r.AxisBytes[2]
}

// CommSummary returns min/median/max of per-rank exposed communication time.
func (r *Result) CommSummary() metrics.Summary { return metrics.Summarize(r.CommSeconds) }

func (j *Job) validate() error {
	if j.Nodes < 1 || j.TasksPerNode < 1 || j.ThreadsPerTask < 1 {
		return fmt.Errorf("perfsim: nodes/tasks/threads must be >= 1")
	}
	hw := j.TasksPerNode * j.ThreadsPerTask
	if maxHW := j.Machine.CoresPerNode * j.Machine.ThreadsPerCore; hw > maxHW {
		return fmt.Errorf("perfsim: %d tasks × %d threads = %d exceeds %d hardware threads on %s",
			j.TasksPerNode, j.ThreadsPerTask, hw, maxHW, j.Machine.Name)
	}
	if j.Depth < 1 {
		return fmt.Errorf("perfsim: depth %d < 1", j.Depth)
	}
	if j.Opt == core.OptOrig && j.Depth != 1 {
		return fmt.Errorf("perfsim: OptOrig requires depth 1")
	}
	if j.K < 1 {
		return fmt.Errorf("perfsim: K %d < 1", j.K)
	}
	if _, err := latticeFor(j.Spec.Q); err != nil {
		return err
	}
	ranks := j.Nodes * j.TasksPerNode
	if j.Decomp == ([3]int{}) {
		j.Decomp = [3]int{ranks, 1, 1}
	}
	if got := j.Decomp[0] * j.Decomp[1] * j.Decomp[2]; got != ranks {
		return fmt.Errorf("perfsim: decomposition %dx%dx%d covers %d ranks, job has %d",
			j.Decomp[0], j.Decomp[1], j.Decomp[2], got, ranks)
	}
	for a, n := range [3]int{j.NX, j.NY, j.NZ} {
		if n < j.Decomp[a] {
			return fmt.Errorf("perfsim: axis %d extent %d < %d ranks", a, n, j.Decomp[a])
		}
	}
	if j.Steps < 1 {
		return fmt.Errorf("perfsim: steps %d < 1", j.Steps)
	}
	if j.Fused {
		if j.Opt == core.OptOrig {
			return fmt.Errorf("perfsim: the fused kernel requires ghost cells (OptOrig is split-only)")
		}
		if j.Stream == core.StreamAA {
			return fmt.Errorf("perfsim: AA streaming is inherently fused; drop Fused")
		}
	}
	if j.CellCost < 0 {
		return fmt.Errorf("perfsim: negative cell-cost multiplier %g", j.CellCost)
	}
	if j.Coeffs != nil {
		if err := j.Coeffs.Validate(); err != nil {
			return err
		}
	}
	if j.RankFluids != nil {
		if len(j.RankFluids) != ranks {
			return fmt.Errorf("perfsim: %d rank fluid counts, job has %d ranks", len(j.RankFluids), ranks)
		}
		var sum int64
		for r, n := range j.RankFluids {
			if n < 0 {
				return fmt.Errorf("perfsim: negative fluid count %d at rank %d", n, r)
			}
			sum += int64(n)
		}
		if sum == 0 {
			return fmt.Errorf("perfsim: rank fluid counts sum to zero")
		}
		if j.Imbalance > 0 {
			return fmt.Errorf("perfsim: RankFluids and the synthetic Imbalance knob are exclusive (the mask is the imbalance)")
		}
	}
	return nil
}

// rates bundles the per-task effective rates derived from the machine
// model, thread configuration and optimization level.
type rates struct {
	taskBW    float64 // bytes/s streamed by one task's kernels
	taskBWRaw float64 // bytes/s for pack/unpack copies (no kernel penalty)
	taskFlops float64 // flop/s for one task
	linkBW    float64
	latency   float64
	intraBW   float64 // bytes/s for halo hops between tasks of one node
	msgSW     float64 // per-message software cost on the critical path
}

func (j *Job) deriveRates() rates {
	m := j.Machine
	if c := j.Coeffs; c != nil {
		// Fitted-coefficient path: one effective kernel bandwidth with a
		// worker-count saturation ramp and the Amdahl thread penalty; the
		// machine model contributes only the flop roofline (the kernels
		// are bandwidth-bound everywhere the fit applies).
		totalHW := float64(j.TasksPerNode * j.ThreadsPerTask)
		bwFrac := totalHW / c.BWSaturation
		if bwFrac > 1 {
			bwFrac = 1
		}
		eff := c.parallelEff(j.ThreadsPerTask)
		tpn := float64(j.TasksPerNode)
		return rates{
			taskBW:    c.MemBW * bwFrac / tpn * eff,
			taskBWRaw: c.CopyBW * bwFrac / tpn * eff,
			taskFlops: m.PeakFlops / tpn,
			linkBW:    c.LinkBW,
			latency:   c.Latency,
			intraBW:   c.CopyBW,
			msgSW:     c.MsgSW,
		}
	}
	cal := calibrationFor(m.Name)
	memEff := cal.memEff[j.Opt]
	flopEff := cal.flopEff(j.Opt)

	totalHW := float64(j.TasksPerNode * j.ThreadsPerTask)
	cores := float64(m.CoresPerNode)
	coreEquiv := totalHW
	if totalHW > cores {
		coreEquiv = cores + cal.smtYield*(totalHW-cores)
	}
	bwFrac := coreEquiv / cal.bwSaturationUnits
	if bwFrac > 1 {
		bwFrac = 1
	}
	flopFrac := coreEquiv / cores
	if flopFrac > 1 {
		flopFrac = 1
	}
	// The thread team's parallel efficiency scales every compute window:
	// each extra worker adds a serial fraction (chunk claims, batch
	// barriers), which is the reason 4 tasks × 16 threads beats 1 × 64
	// on BG/Q even though both saturate the node.
	eff := cal.parallelEff(j.ThreadsPerTask)

	tpn := float64(j.TasksPerNode)
	return rates{
		taskBW:    m.MemBWBytes * memEff * bwFrac / tpn * eff,
		taskBWRaw: m.MemBWBytes * bwFrac / tpn * eff,
		taskFlops: m.PeakFlops * flopEff * flopFrac / tpn * eff,
		linkBW:    m.TorusLinkBytes,
		latency:   m.LinkLatency,
		intraBW:   m.MemBWBytes / 2,
		msgSW:     cal.msgSWOverhead,
	}
}

// Run simulates the job and returns its result.
func Run(j Job) (*Result, error) {
	if err := j.validate(); err != nil {
		return nil, err
	}
	fields := 2.0
	if j.Stream == core.StreamAA {
		if j.Depth%2 == 1 {
			j.Depth++
		}
		fields = 1
		// 456 B/cell for D3Q19 is exactly 3 accesses × 8 B × 19; AA makes 2.
		j.Spec.BytesPerCell *= 2.0 / 3.0
	}
	if j.Fused {
		// One read + one write per cell instead of three accesses; the
		// resident footprint stays two fields. That assumes the write does
		// not first read the line it overwrites: true for streaming
		// stores (the solver's SIMD rung on two fields), not for ordinary
		// ones, whose write-allocate read keeps the sweep at three
		// accesses (the solver's Go bodies) — on a fitted host,
		// FusedAdjust absorbs the difference.
		j.Spec.BytesPerCell *= 2.0 / 3.0
	}
	if j.CellCost > 0 {
		j.Spec.BytesPerCell *= j.CellCost
		j.Spec.FlopsPerCell *= j.CellCost
	}
	ranks := j.Nodes * j.TasksPerNode
	dec, err := decomp.NewCartesianWeighted([3]int{j.NX, j.NY, j.NZ}, j.Decomp, j.Bounded, j.Weights)
	if err != nil {
		return nil, err
	}
	// The ghost geometry is the solver's: Job.Depth is the depth of every
	// axis that has one, a rank fluid profile means the sparse traversal.
	// Orig's transient egress margins are the depth-1 x-only case, the only
	// one it has.
	dk := j.Depth * j.K
	sparse := j.RankFluids != nil
	w := core.GhostWidths(j.Decomp, j.Bounded, j.Stream, sparse, [3]int{dk, dk, dk})
	if j.Opt == core.OptOrig {
		if err := core.PaperGeometry(j.Decomp, j.Bounded, j.Stream, sparse); err != nil {
			return nil, fmt.Errorf("perfsim: %v", err)
		}
	}
	for a := 0; a < 3; a++ {
		// A border message must be owned entirely by one rank.
		if mo := dec.MinOwn(a); mo < w[a] {
			return nil, fmt.Errorf("perfsim: axis %d smallest block (%d cells) < halo width %d (depth %d × k %d)", a, mo, w[a], j.Depth, j.K)
		}
	}

	lat, _ := latticeFor(j.Spec.Q) // validate checked it
	st := &simState{
		j: j, dec: dec, rt: j.deriveRates(), ranks: ranks, lat: lat, w: w,
		geo:   make([]rankGeom, ranks),
		clock: make([]float64, ranks),
		comm:  make([]float64, ranks),
		phase: make([]obs.PhaseSeconds, ranks),
		rng:   make([]*metrics.RNG, ranks),
	}
	for r := 0; r < ranks; r++ {
		st.rng[r] = metrics.NewRNG(j.Seed*0x9e3779b97f4a7c15 + uint64(r) + 1)
		st.geo[r] = st.rankGeometry(r, 1+j.PersistentImbalance*st.rng[r].Float64())
	}
	if j.Opt == core.OptOrig {
		st.runOrig()
	} else {
		st.run()
	}
	// Per-task memory: the scheme's resident fields (two for two-grid, one
	// for AA) of the values the busiest rank stores.
	var stored float64
	for r := range st.geo {
		stored = math.Max(stored, st.geo[r].stored)
	}
	bytesPerTask := fields * 8 * stored

	res := &Result{
		PerRankSeconds: st.clock,
		CommSeconds:    st.comm,
		BytesPerTask:   bytesPerTask,
		OOM:            bytesPerTask > j.Machine.MemPerNodeBytes/float64(j.TasksPerNode),
		AxisBytes:      st.axisBytes(),
		RankPhases:     st.phase,
	}
	for _, c := range st.clock {
		if c > res.Seconds {
			res.Seconds = c
		}
	}
	cells := j.NX * j.NY * j.NZ
	res.GhostUpdateFraction = st.ghostUpdates() / (float64(j.Steps) * float64(cells))
	if j.RankFluids != nil {
		// Mflup/s counts fluid-cell updates, the paper's normalization for
		// sparse geometries (and the solver's own MFlups on masked runs).
		cells = 0
		for _, n := range j.RankFluids {
			cells += n
		}
	}
	res.MFlups = metrics.MFlupsFromSeconds(j.Steps, cells, res.Seconds)
	return res, nil
}

// simState carries the virtual clocks through the cycle loop.
type simState struct {
	j     Job
	dec   decomp.Cartesian
	rt    rates
	ranks int
	lat   *lattice.Model // the lattice of Spec.Q
	// w is the ghost width per side per axis (core.GhostWidths): depth·k,
	// or 0 on a wrap axis — an uncut periodic y or z, which the kernels fold.
	w     [3]int
	geo   []rankGeom
	clock []float64
	comm  []float64
	phase []obs.PhaseSeconds // per-rank clock decomposition (Result.RankPhases)
	rng   []*metrics.RNG
}

// rankGeom is everything the schedule needs of one rank that depends on
// its geometry alone, computed once per Run rather than once per cycle.
type rankGeom struct {
	// step[s] is the unjittered compute time of step s of a cycle; ghost[s]
	// counts that step's cell updates beyond the owned block.
	step, ghost []float64
	axis        [3]axisGeom
	// stored is the values one of the rank's fields holds: Q per cell of
	// its ghosted box, the x-planes each velocity never touches left out
	// as the solver's packed fields leave them (core.LivePlanes,
	// grid.FieldLen) — under the sparse model at the rank's fluid
	// fraction, ghost layers included, as the solver's fluid-compact
	// fields store fluid runs only.
	stored float64
}

// axisGeom is one rank's halo along one axis.
type axisGeom struct {
	// bytes is the payload per direction: the velocity-planes a face
	// carries (core.DirectedFaces: crossVelPlanes at w = k,
	// else q · w) · cross-section · 8 B, where the cross-section spans the
	// other axes' full local extents (ghosts included — later-axis ghost
	// layers ride along in the sequential exchange, exactly as in the real
	// packer).
	// Under the sparse cost model
	// the exchanger packs, sends and unpacks only each face's fluid cells,
	// priced at the rank's own fluid fraction. Zero on a wrap axis.
	bytes float64
	// copyT is the time to pack (or unpack, or wrap) both faces; fillT the
	// time to write both dense ghost faces from boundary data — all q
	// populations of each of the w planes, not just bytes' velocity-planes
	// — charged on the refreshes the solver writes them
	// (core.ConstFacesOnce).
	copyT, fillT float64
	// nb is the neighbor rank per side (decomp.NoNeighbor across a global
	// boundary), nmsg how many sides have one, and hop[side] the posting
	// plus wire time of the message arriving from it — shared memory
	// between tasks of one node (consecutive ranks fill a node), the torus
	// otherwise. wire is the torus time of the rank's own blocking send.
	nb   [2]int
	nmsg float64
	hop  [2]float64
	wire float64
	// hide is the share of the cycle's first step GC-C can hide under this
	// axis's messages (overlapShares).
	hide float64
}

// rankGeometry builds rank r's geometry table; slow is its persistent
// slowdown factor, folded into the step times.
func (st *simState) rankGeometry(r int, slow float64) rankGeom {
	j, p := &st.j, st.dec.Shape()
	var own [3]int
	owned := 1.0
	for a := 0; a < 3; a++ {
		_, own[a] = st.dec.Own(r, a)
		owned *= float64(own[a])
	}
	// Sparse-traversal cost model: the rank's compute windows and halo
	// payloads scale by its fluid fraction — the cut placement, not a
	// random draw, decides who the straggler is.
	fluid := 1.0
	if j.RankFluids != nil {
		fluid = float64(j.RankFluids[r]) / owned
	}
	// Ghost-cell implementations additionally collide k boundary rows per
	// side of every decomposed axis every step, the overhead the paper notes
	// is "not accounted for" in its performance model ("2 extra boundary
	// rows are added around each processor boundary", §VI) — collision is
	// roughly half a cell update, so the two sides cost k face-equivalents.
	var rim float64
	if j.Opt != core.OptOrig {
		for a := 0; a < 3; a++ {
			if p[a] > 1 {
				rim += float64(j.K) * owned / float64(own[a])
			}
		}
	}
	buf := make([]float64, 2*j.Depth)
	g := rankGeom{step: buf[:j.Depth], ghost: buf[j.Depth:]}
	box := grid.Dims{NX: own[0] + 2*st.w[0], NY: own[1] + 2*st.w[1], NZ: own[2] + 2*st.w[2]}
	g.stored = float64(j.Spec.Q) * fluid * float64(box.Cells())
	if j.RankFluids == nil {
		// A Job cannot say pressure outlet, LivePlanes' whole-cell case.
		live := core.LivePlanes(st.lat.Cx, own[0], st.w, j.K, j.Bounded[0], j.Opt, false)
		g.stored = float64(grid.FieldLen(j.Spec.Q, box, live))
	}
	for s := range g.step {
		// The computed box shrinks by k per step on every ghosted axis, from
		// owned + 2(w − k) right after the refresh down to the owned block.
		box := 1.0
		for a := 0; a < 3; a++ {
			box *= float64(own[a] + 2*max(st.w[a]-(s+1)*j.K, 0))
		}
		g.ghost[s] = box - owned
		// Max of the bandwidth and flop rooflines over the computed cells.
		cells := (box + rim) * fluid
		g.step[s] = slow * math.Max(cells*j.Spec.BytesPerCell/st.rt.taskBW, cells*j.Spec.FlopsPerCell/st.rt.taskFlops)
	}
	hide := st.overlapShares(own)
	for a := 0; a < 3; a++ {
		ax := &g.axis[a]
		// What a face carries is the solver's rule too (core.DirectedFaces):
		// in a ghost layer exactly k wide the plane d cells out holds only
		// the populations that cross d planes, DefaultCross(Q)[d-1] of them;
		// all Q on each of the w planes otherwise. A Job cannot say
		// pressure outlet, the rule's whole-cell case.
		velPlanes := j.Spec.Q * st.w[a]
		if core.DirectedFaces(st.w[a], j.K, false) {
			velPlanes = crossVelPlanes(j.Spec.Q) // as runOrig ships them
		}
		cross := 8.0 // bytes per velocity-plane
		for b := 0; b < 3; b++ {
			if b != a {
				cross *= float64(own[b] + 2*st.w[b])
			}
		}
		ax.bytes = float64(velPlanes) * cross * fluid
		ax.copyT = 2 * ax.bytes / st.rt.taskBWRaw
		// A boundary fill writes every population of every ghost plane of
		// the face box (core's fillRuns), whatever a message would carry.
		ax.fillT = 2 * float64(j.Spec.Q*st.w[a]) * cross / st.rt.taskBWRaw
		ax.wire = st.rt.latency + ax.bytes/st.rt.linkBW
		ax.hide = hide[a]
		for side, dir := range [2]int{-1, +1} {
			nb := st.dec.Neighbor(r, a, dir)
			ax.nb[side] = nb
			if nb == decomp.NoNeighbor {
				continue
			}
			ax.nmsg++
			ax.hop[side] = st.rt.msgSW + ax.wire
			if st.sameNode(r, nb) {
				ax.hop[side] = st.rt.msgSW + ax.bytes/st.rt.intraBW
			}
		}
	}
	return g
}

// sameNode reports whether two ranks are tasks of one node (consecutive
// ranks fill a node). Intra-node halo traffic bypasses the torus.
func (st *simState) sameNode(a, b int) bool {
	return a/st.j.TasksPerNode == b/st.j.TasksPerNode
}

// stepSeconds returns the jittered compute time of step s of a cycle on rank r.
func (st *simState) stepSeconds(r, s int) float64 {
	return st.geo[r].step[s] * (1 + st.j.Imbalance*st.rng[r].Float64())
}

// ghostUpdates returns the run's total ghost-region cell updates: position
// s of the cycle is computed once per full cycle, and once more when the
// trailing partial cycle reaches it.
func (st *simState) ghostUpdates() float64 {
	var ghost float64
	for r := range st.geo {
		for s, g := range st.geo[r].ghost {
			n := st.j.Steps / st.j.Depth
			if s < st.j.Steps%st.j.Depth {
				n++
			}
			ghost += float64(n) * g
		}
	}
	return ghost
}

// axisBytes reports the busiest rank's per-axis halo payload per full
// exchange (message-carrying faces only); zero on undecomposed axes and
// for Orig.
func (st *simState) axisBytes() [3]float64 {
	var out [3]float64
	if st.j.Opt == core.OptOrig {
		return out
	}
	p := st.dec.Shape()
	for a := 0; a < 3; a++ {
		if p[a] == 1 {
			continue
		}
		for r := range st.geo {
			if b := st.geo[r].axis[a].nmsg * st.geo[r].axis[a].bytes; b > out[a] {
				out[a] = b
			}
		}
	}
	return out
}

// overlapShares returns, for a rank owning block own, the share of the
// cycle's first step the GC-C phased schedule can hide under each
// decomposed axis's messages: the interior box computes while the first
// messaging axis's data flies, and each later axis's wire time hides the
// previous axis's rim slabs — in proportion to the box schedule's cell
// counts (exposed comm per axis is then max(0, wire − hidden compute)).
func (st *simState) overlapShares(own [3]int) [3]float64 {
	p := st.dec.Shape()
	var full, cur [3]float64
	total := 1.0
	for a := 0; a < 3; a++ {
		full[a] = float64(own[a] + 2*max(st.w[a]-st.j.K, 0))
		cur[a] = full[a]
		if p[a] > 1 {
			cur[a] = math.Max(float64(own[a]-2*st.j.K), 0)
		}
		total *= full[a]
	}
	cells := func(x [3]float64) float64 { return x[0] * x[1] * x[2] }
	var out [3]float64
	prev := cells(cur) // the interior box, hidden under the first axis
	for a := 0; a < 3; a++ {
		if p[a] == 1 {
			continue
		}
		out[a] = prev / total
		before := cells(cur)
		cur[a] = full[a]
		prev = cells(cur) - before // axis a's rim, hidden under the next
	}
	return out
}

// run simulates the deep-halo schedule, the only ghost-cell schedule there
// is: one sequential per-axis refresh per cycle — a wrap axis (width 0)
// has nothing to refresh, an undecomposed ghosted axis wraps or
// boundary-fills with local copies, a decomposed axis messages its ring
// neighbors — then runLen compute steps on the shrinking box. NB-C and
// above post receives early; GC-C and above additionally overlap each
// axis's wire time with the box schedule's compute (interior box for the
// first messaging axis, the previous axis's rims for the rest), mirroring
// internal/core's phased stepper. The paper's periodic slab is the case
// w = {depth·k, 0, 0}.
func (st *simState) run() {
	j := st.j
	p := st.dec.Shape()
	sw := st.rt.msgSW
	nonblocking := j.Opt >= core.OptNBC
	overlap := j.Opt >= core.OptGCC
	sendAt := make([]float64, st.ranks)
	t0 := make([]float64, st.ranks)
	used := make([]float64, st.ranks)
	// The first decomposed axis's messages fly over the interior box; each
	// later axis's fly over the previous axis's rims (overlapShares) —
	// which phase the hidden compute belongs to in the decomposition.
	firstMsg := -1
	for a := 2; a >= 0; a-- {
		if p[a] > 1 {
			firstMsg = a
		}
	}
	for done := 0; done < j.Steps; {
		runLen := min(j.Depth, j.Steps-done)
		if overlap {
			for r := 0; r < st.ranks; r++ {
				t0[r] = st.stepSeconds(r, 0)
				used[r] = 0
			}
		}
		for axis := 0; axis < 3; axis++ {
			switch {
			case st.w[axis] == 0:
				// Wrap axis: the kernels wrap across it themselves.
				continue
			case p[axis] == 1 && j.Bounded[axis]:
				// Bounded undecomposed axis: both ghost faces are
				// boundary-filled in place — one write per face, no
				// border pack and no message — on the refreshes the
				// solver writes them: a depth-1 two-grid job writes its
				// constant faces into each of its two fields once. A Job
				// cannot say open face, whose runs refill every time.
				if done >= 2 && core.ConstFacesOnce(j.Depth, j.Stream, false) {
					continue
				}
				for r := 0; r < st.ranks; r++ {
					dt := st.geo[r].axis[axis].fillT
					st.clock[r] += dt
					st.phase[r][obs.Face] += dt
				}
				continue
			case p[axis] == 1:
				// Local periodic wrap: pack+unpack copies on both sides.
				for r := 0; r < st.ranks; r++ {
					dt := st.geo[r].axis[axis].copyT
					st.clock[r] += 2 * dt
					st.phase[r][obs.Pack] += dt
					st.phase[r][obs.Unpack] += dt
				}
				continue
			}
			for r := 0; r < st.ranks; r++ {
				// Two face-sized copies per cycle regardless of geometry:
				// borders packed toward neighbors, boundary ghost faces
				// written from boundary data (edge ranks swap one for the
				// other).
				sendAt[r] = st.clock[r] + st.geo[r].axis[axis].copyT
			}
			for r := 0; r < st.ranks; r++ {
				ax := &st.geo[r].axis[axis]
				// A bounded-axis edge rank has fewer messages: nothing
				// crosses the global boundary in either direction.
				recvReady := math.Inf(-1)
				for side, nb := range ax.nb {
					if nb != decomp.NoNeighbor {
						recvReady = math.Max(recvReady, sendAt[nb]+ax.hop[side])
					}
				}
				// Phase decomposition (Result.RankPhases): each branch's
				// terms are exactly the clock-delta terms, so phases sum to
				// the clock by construction. The posting software cost
				// joins Pack (it is send-side work); a blocked send's wire
				// joins Wire.
				posted := sendAt[r] + ax.nmsg*sw
				ph := &st.phase[r]
				ph[obs.Pack] += ax.copyT + ax.nmsg*sw
				ph[obs.Unpack] += ax.copyT
				if overlap {
					// The axis's wire time is (partially) hidden behind the
					// schedule's compute window; only the remainder — and the
					// unhideable posting cost and unpack — is exposed.
					hide := ax.hide * t0[r]
					wait := math.Max(recvReady-posted-hide, 0)
					st.comm[r] += ax.nmsg*sw + wait + ax.copyT
					st.clock[r] = posted + hide + wait + ax.copyT
					used[r] += hide
					if axis == firstMsg {
						ph[obs.Interior] += hide
					} else {
						ph[obs.Rim] += hide
					}
					ph[obs.Wire] += wait
					continue
				}
				// Non-blocking sends are DMA'd: the rank pays the posting
				// software cost and then waits only for the receives.
				// Blocking sends return only after delivery: the software
				// costs of the directions serialize, then the wire.
				ready := posted
				if !nonblocking && ax.nmsg > 0 {
					ready += ax.wire
				}
				ready = math.Max(ready, recvReady)
				// Pack time is compute, not comm.
				st.comm[r] += (ready - sendAt[r]) + ax.copyT
				st.clock[r] = ready + ax.copyT
				ph[obs.Wire] += ready - posted
			}
		}
		for r := 0; r < st.ranks; r++ {
			ph := &st.phase[r]
			first := 0
			if overlap {
				// The first step's compute already ran inside the overlap
				// windows; add only what remains of it — the trailing rims
				// after the last axis's unpack (interior when nothing
				// messaged).
				if rest := t0[r] - used[r]; rest > 0 {
					st.clock[r] += rest
					if firstMsg >= 0 {
						ph[obs.Rim] += rest
					} else {
						ph[obs.Interior] += rest
					}
				}
				first = 1
			}
			for s := first; s < runLen; s++ {
				dt := st.stepSeconds(r, s)
				st.clock[r] += dt
				ph[obs.Interior] += dt
			}
		}
		done += runLen
	}
}

// runOrig simulates the naive protocol: stream, blocking exchange of the
// crossed populations, collide — every step.
func (st *simState) runOrig() {
	j := st.j
	msgBytes := float64(crossVelPlanes(j.Spec.Q)*j.NY*j.NZ) * 8
	wire := st.rt.latency + msgBytes/st.rt.linkBW
	wireIntra := msgBytes / st.rt.intraBW
	packT := 2 * msgBytes / st.rt.taskBWRaw
	// The naive code sends one message per crossed plane per direction
	// (before the message-aggregation tuning), each paying the software
	// cost.
	nmsg := float64(j.K)
	sw := st.rt.msgSW
	sendAt := make([]float64, st.ranks)
	stepT := make([]float64, st.ranks)
	for s := 0; s < j.Steps; s++ {
		for r := 0; r < st.ranks; r++ {
			stepT[r] = st.stepSeconds(r, 0)
			sendAt[r] = st.clock[r] + 0.5*stepT[r] + packT
		}
		for r := 0; r < st.ranks; r++ {
			recvReady := math.Inf(-1)
			for _, nb := range st.geo[r].axis[decomp.AxisX].nb {
				w := wire
				if st.sameNode(r, nb) {
					w = wireIntra
				}
				recvReady = math.Max(recvReady, sendAt[nb]+nmsg*sw+w)
			}
			sendDone := sendAt[r] + 2*nmsg*sw + wire
			ready := math.Max(sendDone, recvReady)
			st.comm[r] += (ready - sendAt[r]) + packT
			st.clock[r] = ready + packT + 0.5*stepT[r]
			// Phases: stream + collide halves → Interior; egress pack →
			// Pack; send/recv exposure → Wire; the merge copy → Unpack.
			ph := &st.phase[r]
			ph[obs.Interior] += stepT[r]
			ph[obs.Pack] += packT
			ph[obs.Wire] += ready - sendAt[r]
			ph[obs.Unpack] += packT
		}
	}
}
