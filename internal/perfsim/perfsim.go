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
	// CrossPlaneVels[m-1] counts velocities with cx ≥ m (populations that
	// cross m planes), sizing the naive protocol's per-step messages. Use
	// DefaultCross. Symmetric in the two directions.
	CrossPlaneVels []int

	Nodes          int
	TasksPerNode   int
	ThreadsPerTask int

	// NX, NY, NZ is the global domain, decomposed across all tasks.
	NX, NY, NZ int
	// Decomp is the rank-grid shape (Px, Py, Pz); its product must equal
	// Nodes × TasksPerNode. The zero value selects the paper's 1-D slab.
	// Multi-axis shapes model the sequential per-axis exchange of the
	// real cart solver: per-axis message sizes shrink with the block
	// cross-sections, which is how 3-D beats 1-D per-rank surface at
	// scale.
	Decomp [3]int
	// Bounded marks non-periodic axes (walls, lids, outflow): the edge
	// ranks of a bounded axis have no wraparound partner, so they skip
	// the message across the global boundary and write their boundary
	// ghost faces locally instead (a memory copy, not a message) — the
	// schedule of the bounded solver. An interior rank of a bounded axis
	// communicates exactly like a periodic one.
	Bounded [3]bool
	Steps   int
	Depth   int // ghost-cell depth (1 for OptOrig)
	Opt     core.OptLevel
	// Fused models the fused stream-collide kernel: one read and one
	// write of the field per step instead of the split path's three
	// accesses, so the streamed bytes per cell drop to 2/3 (the same
	// traffic argument as the AA scheme, which it is incompatible with).
	// Requires a ghost-cell level.
	Fused bool
	// Stream selects the storage scheme modeled. The two-grid layout keeps
	// two resident fields and streams three field accesses per cell per
	// step (read f, write fadv, re-read for the collide); the AA in-place
	// scheme keeps one field touched twice per sub-step, so the resident
	// footprint halves and the streamed traffic drops by a third. AA
	// exchanges only at pair boundaries, so Depth rounds up to even.
	Stream core.StreamScheme

	// Weights, when non-nil on a decomposed axis, places that axis's cut
	// planes by weighted recursive bisection (decomp.NewCartesianWeighted
	// over the axis's per-plane fluid histogram, geom.PlaneFluids) instead
	// of equal extents — the solver's -balance fluid policy. The rank grid
	// and schedule are unchanged; only the per-rank extents move.
	Weights [3][]int
	// RankFluids, when non-nil, gives each rank's fluid-cell count (length
	// Nodes × TasksPerNode, e.g. from FluidCounts): compute windows scale
	// by each rank's fluid fraction — the sparse-traversal cost model on a
	// masked domain — and MFlups normalizes by total fluid cells, the
	// paper's Mflup/s. The geometry then IS the load imbalance, so the
	// synthetic Imbalance knob is rejected alongside it (Persistent-
	// Imbalance, which models machine asymmetry rather than work
	// asymmetry, still composes).
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

// DefaultCross returns the crossing-velocity counts for the two lattices of
// the paper: D3Q19 has 5 populations with cx ≥ 1; D3Q39 has 11 with cx ≥ 1,
// 6 with cx ≥ 2 and 1 with cx ≥ 3.
func DefaultCross(q int) []int {
	switch q {
	case 19:
		return []int{5}
	case 39:
		return []int{11, 6, 1}
	default:
		return []int{q / 4}
	}
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
	// BytesPerTask is the resident field memory per task; OOM reports
	// whether it exceeds the per-task share of node memory (the paper's
	// "individual nodes ran out of memory" cases).
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
	ranks := j.Nodes * j.TasksPerNode
	if j.Decomp == ([3]int{}) {
		j.Decomp = [3]int{ranks, 1, 1}
	}
	if got := j.Decomp[0] * j.Decomp[1] * j.Decomp[2]; got != ranks {
		return fmt.Errorf("perfsim: decomposition %dx%dx%d covers %d ranks, job has %d",
			j.Decomp[0], j.Decomp[1], j.Decomp[2], got, ranks)
	}
	if j.Opt == core.OptOrig && !(j.Decomp[1] == 1 && j.Decomp[2] == 1) {
		return fmt.Errorf("perfsim: the no-ghost Orig protocol is slab-only")
	}
	if j.Opt == core.OptOrig && j.Bounded != ([3]bool{}) {
		return fmt.Errorf("perfsim: the no-ghost Orig protocol is periodic-only (boundaries need ghost cells)")
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
	if j.CrossPlaneVels == nil {
		j.CrossPlaneVels = DefaultCross(j.Spec.Q)
	}
	fields := 2.0
	if j.Stream == core.StreamAA {
		if j.Opt == core.OptOrig {
			return nil, fmt.Errorf("perfsim: AA streaming requires ghost cells (OptOrig is two-grid-only)")
		}
		if j.Depth%2 == 1 {
			j.Depth++
		}
		fields = 1
		// 456 B/cell for D3Q19 is exactly 3 accesses × 8 B × 19; AA makes 2.
		j.Spec.BytesPerCell *= 2.0 / 3.0
	}
	if j.Fused {
		// One read + one write per cell instead of three accesses; the
		// resident footprint stays two fields.
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
	rt := j.deriveRates()
	w := j.Depth * j.K
	plane := float64(j.NY * j.NZ)
	q := float64(j.Spec.Q)

	// Per-task memory: the scheme's resident fields (two for two-grid, one
	// for AA) over the owned block plus margins — 2W per decomposed-path
	// axis (slab: x only; multi-axis: all three), 2k for OptOrig.
	var bytesPerTask float64
	if dec.IsSlab() {
		maxOwn := float64(dec.MaxOwn(0))
		margins := float64(2 * w)
		if j.Opt == core.OptOrig {
			margins = float64(2 * j.K)
		}
		bytesPerTask = fields * 8 * q * (maxOwn + margins) * plane
	} else {
		cells := 1.0
		for a := 0; a < 3; a++ {
			cells *= float64(dec.MaxOwn(a) + 2*w)
		}
		bytesPerTask = fields * 8 * q * cells
	}
	oom := bytesPerTask > j.Machine.MemPerNodeBytes/float64(j.TasksPerNode)

	st := &simState{
		j: j, dec: dec, rt: rt, ranks: ranks,
		w: w, plane: plane, q: q,
		clock: make([]float64, ranks),
		comm:  make([]float64, ranks),
		phase: make([]obs.PhaseSeconds, ranks),
		rng:   make([]*metrics.RNG, ranks),
		slow:  make([]float64, ranks),
	}
	for r := 0; r < ranks; r++ {
		st.rng[r] = metrics.NewRNG(j.Seed*0x9e3779b97f4a7c15 + uint64(r) + 1)
		st.slow[r] = 1 + j.PersistentImbalance*st.rng[r].Float64()
	}
	if j.RankFluids != nil {
		// Sparse-traversal cost model: each rank's compute window scales by
		// its fluid fraction — the cut placement, not a random draw, decides
		// who the straggler is.
		st.ffrac = make([]float64, ranks)
		for r := 0; r < ranks; r++ {
			var vol float64 = 1
			for a := 0; a < 3; a++ {
				_, n := dec.Own(r, a)
				vol *= float64(n)
			}
			st.ffrac[r] = float64(j.RankFluids[r]) / vol
		}
	}
	ghost := st.run()

	res := &Result{
		PerRankSeconds: st.clock,
		CommSeconds:    st.comm,
		BytesPerTask:   bytesPerTask,
		OOM:            oom,
		AxisBytes:      st.axisBytes(),
		RankPhases:     st.phase,
	}
	for _, c := range st.clock {
		if c > res.Seconds {
			res.Seconds = c
		}
	}
	interior := float64(j.Steps) * float64(j.NX) * plane
	cells := j.NX * j.NY * j.NZ
	if j.RankFluids != nil {
		// Mflup/s counts fluid-cell updates, the paper's normalization for
		// sparse geometries (and the solver's own MFlups on masked runs).
		cells = 0
		for _, n := range j.RankFluids {
			cells += n
		}
	}
	res.MFlups = metrics.MFlupsFromSeconds(j.Steps, cells, res.Seconds)
	res.GhostUpdateFraction = ghost / interior
	return res, nil
}

// simState carries the virtual clocks through the cycle loop.
type simState struct {
	j     Job
	dec   decomp.Cartesian
	rt    rates
	ranks int
	w     int
	plane float64
	q     float64
	clock []float64
	comm  []float64
	phase []obs.PhaseSeconds // per-rank clock decomposition (Result.RankPhases)
	rng   []*metrics.RNG
	slow  []float64 // per-rank persistent slowdown factor
	ffrac []float64 // per-rank fluid fraction (nil = dense, fraction 1)
}

// fluidScale returns rank r's compute-window scale: its fluid fraction
// under the sparse cost model, 1 on dense jobs.
func (st *simState) fluidScale(r int) float64 {
	if st.ffrac == nil {
		return 1
	}
	return st.ffrac[r]
}

// sameNode reports whether two ranks are tasks of one node (consecutive
// ranks fill a node). Intra-node halo traffic bypasses the torus.
func (st *simState) sameNode(a, b int) bool {
	return a/st.j.TasksPerNode == b/st.j.TasksPerNode
}

// stepTime returns the jittered compute time of step s of a cycle on rank
// r: max of the bandwidth and flop rooflines over the computed planes.
// Ghost-cell implementations additionally collide k boundary rows per side
// every step, the overhead the paper notes is "not accounted for" in its
// performance model ("2 extra boundary rows are added around each
// processor boundary", §VI) — collision is roughly half a cell update, so
// the two sides cost k plane-equivalents.
func (st *simState) stepTime(r, s int) float64 {
	_, own := st.dec.Own(r, decomp.AxisX)
	extra := float64(2 * (st.j.Depth - s - 1) * st.j.K)
	if st.j.Opt != core.OptOrig {
		extra += float64(st.j.K)
	}
	cells := (float64(own) + extra) * st.plane * st.fluidScale(r)
	tb := cells * st.j.Spec.BytesPerCell / st.rt.taskBW
	tf := cells * st.j.Spec.FlopsPerCell / st.rt.taskFlops
	t := tb
	if tf > t {
		t = tf
	}
	return t * st.slow[r] * (1 + st.j.Imbalance*st.rng[r].Float64())
}

// ghostExtraCells returns the per-cycle ghost-region updates of rank r.
func (st *simState) ghostExtraCells(runLen int) float64 {
	var extra float64
	for s := 0; s < runLen; s++ {
		extra += float64(2 * (st.j.Depth - s - 1) * st.j.K)
	}
	return extra * st.plane
}

// run executes all cycles and returns total ghost-cell updates.
func (st *simState) run() float64 {
	j := st.j
	if j.Opt == core.OptOrig {
		return st.runOrig()
	}
	if !st.dec.IsSlab() {
		return st.runMulti()
	}
	var ghost float64
	sw := st.rt.msgSW

	sendAt := make([]float64, st.ranks)
	for done := 0; done < j.Steps; {
		runLen := j.Depth
		if rest := j.Steps - done; rest < runLen {
			runLen = rest
		}
		// Borders are ready at cycle start; every protocol packs first.
		for r := 0; r < st.ranks; r++ {
			sendAt[r] = st.clock[r] + 2*st.slabHaloBytes(r)/st.rt.taskBWRaw
		}
		for r := 0; r < st.ranks; r++ {
			haloBytes := st.slabHaloBytes(r)
			wire := st.rt.latency + haloBytes/st.rt.linkBW
			// Halo traffic between tasks of one node moves through shared
			// memory, not the torus.
			wireIntra := haloBytes / st.rt.intraBW
			// Each cycle touches two border faces (packed toward neighbors,
			// or written in place from boundary data on a bounded edge —
			// same copy cost either way) and two ghost faces (unpacked or
			// boundary-filled).
			packT := 2 * haloBytes / st.rt.taskBWRaw
			unpackT := packT
			left := st.dec.Neighbor(r, decomp.AxisX, -1)
			right := st.dec.Neighbor(r, decomp.AxisX, +1)
			// A bounded-axis edge rank has fewer messages: nothing crosses
			// the global boundary in either direction.
			nmsg := 0.0
			recvReady := math.Inf(-1)
			if left != decomp.NoNeighbor {
				nmsg++
				wl := wire
				if st.sameNode(r, left) {
					wl = wireIntra
				}
				if t := sendAt[left] + sw + wl; t > recvReady {
					recvReady = t
				}
			}
			if right != decomp.NoNeighbor {
				nmsg++
				wr := wire
				if st.sameNode(r, right) {
					wr = wireIntra
				}
				if t := sendAt[right] + sw + wr; t > recvReady {
					recvReady = t
				}
			}
			// Phase decomposition (Result.RankPhases): each branch's terms
			// are exactly the clock-delta terms, so phases sum to the clock
			// by construction. The posting software cost joins Pack (it is
			// send-side work); a blocked send's wire joins Wire.
			ph := &st.phase[r]
			ph[obs.Pack] += packT + nmsg*sw
			ph[obs.Unpack] += unpackT
			switch {
			case j.Opt >= core.OptGCC:
				// Overlap: interior of the first step hides the wait; the
				// posting software cost is not hideable.
				t0 := st.stepTime(r, 0)
				_, own := st.dec.Own(r, decomp.AxisX)
				interior := float64(own-2*j.K) / (float64(own) + float64(2*(j.Depth-1)*j.K))
				if interior < 0 {
					interior = 0
				}
				rimStart := sendAt[r] + nmsg*sw + interior*t0
				wait := recvReady - rimStart
				if wait < 0 || math.IsInf(wait, -1) {
					wait = 0
				}
				st.comm[r] += nmsg*sw + wait + unpackT
				st.clock[r] = rimStart + wait + unpackT + (1-interior)*t0
				ph[obs.Interior] += interior * t0
				ph[obs.Rim] += (1 - interior) * t0
				ph[obs.Wire] += wait
				for s := 1; s < runLen; s++ {
					dt := st.stepTime(r, s)
					st.clock[r] += dt
					ph[obs.Interior] += dt
				}
			case j.Opt >= core.OptNBC:
				// Non-blocking: sends are DMA'd; the rank pays the posting
				// software cost and then waits only for the receives.
				ready := sendAt[r] + nmsg*sw
				if recvReady > ready {
					ready = recvReady
				}
				st.comm[r] += (ready - sendAt[r]) + unpackT
				st.clock[r] = ready + unpackT
				ph[obs.Wire] += ready - sendAt[r] - nmsg*sw
				for s := 0; s < runLen; s++ {
					dt := st.stepTime(r, s)
					st.clock[r] += dt
					ph[obs.Interior] += dt
				}
			default:
				// Blocking sends return only after delivery: the software
				// costs of the directions serialize, then the wire.
				sendDone := sendAt[r] + nmsg*sw
				if nmsg > 0 {
					sendDone += wire
				}
				ready := sendDone
				if recvReady > ready {
					ready = recvReady
				}
				st.comm[r] += (ready - st.clock[r] - packT) + unpackT
				st.clock[r] = ready + unpackT
				ph[obs.Wire] += ready - sendAt[r] - nmsg*sw
				for s := 0; s < runLen; s++ {
					dt := st.stepTime(r, s)
					st.clock[r] += dt
					ph[obs.Interior] += dt
				}
			}
			ghost += st.ghostExtraCells(runLen)
		}
		done += runLen
	}
	return ghost
}

// runOrig simulates the naive protocol: stream, blocking exchange of the
// crossed populations, collide — every step.
func (st *simState) runOrig() float64 {
	j := st.j
	var crossVals float64
	for _, c := range j.CrossPlaneVels {
		crossVals += float64(c)
	}
	msgBytes := crossVals * st.plane * 8
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
			stepT[r] = st.stepTime(r, 0)
			sendAt[r] = st.clock[r] + 0.5*stepT[r] + packT
		}
		for r := 0; r < st.ranks; r++ {
			left := st.dec.Neighbor(r, decomp.AxisX, -1)
			right := st.dec.Neighbor(r, decomp.AxisX, +1)
			wl, wr := wire, wire
			if st.sameNode(r, left) {
				wl = wireIntra
			}
			if st.sameNode(r, right) {
				wr = wireIntra
			}
			recvReady := sendAt[left] + nmsg*sw + wl
			if t := sendAt[right] + nmsg*sw + wr; t > recvReady {
				recvReady = t
			}
			sendDone := sendAt[r] + 2*nmsg*sw + wire
			ready := sendDone
			if recvReady > ready {
				ready = recvReady
			}
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
	return 0
}

// ownBlock returns rank r's owned extents on all three axes.
func (st *simState) ownBlock(r int) [3]int {
	var own [3]int
	for a := 0; a < 3; a++ {
		_, own[a] = st.dec.Own(r, a)
	}
	return own
}

// axisFaceBytes returns the bytes of one dense ghost face of rank r
// normal to axis: q · w · cross-section, where the cross-section spans the
// other axes' full local extents (ghosts included — later-axis ghost
// layers ride along in the sequential exchange, exactly as in the real
// packer). Multi-axis only: the slab schedule has slabHaloBytes.
func (st *simState) axisFaceBytes(r, axis int) float64 {
	own := st.ownBlock(r)
	cross := 1.0
	for b := 0; b < 3; b++ {
		if b != axis {
			cross *= float64(own[b] + 2*st.w)
		}
	}
	return st.q * float64(st.w) * cross * 8
}

// axisHaloBytes returns rank r's halo payload per direction along axis:
// the dense face on dense jobs. Under the sparse cost model the exchanger
// packs, sends and unpacks only each face's fluid cells, priced here at
// the rank's own fluid fraction.
func (st *simState) axisHaloBytes(r, axis int) float64 {
	return st.axisFaceBytes(r, axis) * st.fluidScale(r)
}

// slabHaloBytes is axisHaloBytes for the slab schedule: q · w x-planes
// per direction, at the rank's fluid fraction under the sparse cost model.
func (st *simState) slabHaloBytes(r int) float64 {
	return st.q * float64(st.w) * st.plane * 8 * st.fluidScale(r)
}

// faces returns how many of rank r's two faces on axis carry a message
// (0, 1 or 2): bounded-axis edge ranks lose the wraparound face.
func (st *simState) faces(r, axis int) float64 {
	n := 0.0
	for _, dir := range [2]int{-1, +1} {
		if st.dec.Neighbor(r, axis, dir) != decomp.NoNeighbor {
			n++
		}
	}
	return n
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
		for r := 0; r < st.ranks; r++ {
			var face float64
			if st.dec.IsSlab() {
				face = st.slabHaloBytes(r)
			} else {
				face = st.axisHaloBytes(r, a)
			}
			if b := st.faces(r, a) * face; b > out[a] {
				out[a] = b
			}
		}
	}
	return out
}

// stepTimeMulti is stepTime for a multi-axis block: the computed box
// grows by 2·(depth−s−1)·k on every axis, plus the k-cell-equivalent
// boundary-collide overhead per decomposed axis.
func (st *simState) stepTimeMulti(r, s int) float64 {
	own := st.ownBlock(r)
	e := 2 * (st.j.Depth - s - 1) * st.j.K
	cells := 1.0
	for a := 0; a < 3; a++ {
		cells *= float64(own[a] + e)
	}
	p := st.dec.Shape()
	for a := 0; a < 3; a++ {
		if p[a] == 1 {
			continue
		}
		cross := 1.0
		for b := 0; b < 3; b++ {
			if b != a {
				cross *= float64(own[b])
			}
		}
		cells += float64(st.j.K) * cross
	}
	cells *= st.fluidScale(r)
	tb := cells * st.j.Spec.BytesPerCell / st.rt.taskBW
	tf := cells * st.j.Spec.FlopsPerCell / st.rt.taskFlops
	t := tb
	if tf > t {
		t = tf
	}
	return t * st.slow[r] * (1 + st.j.Imbalance*st.rng[r].Float64())
}

// ghostExtraMulti returns rank r's per-cycle ghost-box updates.
func (st *simState) ghostExtraMulti(r, runLen int) float64 {
	own := st.ownBlock(r)
	interior := float64(own[0]) * float64(own[1]) * float64(own[2])
	var extra float64
	for s := 0; s < runLen; s++ {
		e := 2 * (st.j.Depth - s - 1) * st.j.K
		cells := 1.0
		for a := 0; a < 3; a++ {
			cells *= float64(own[a] + e)
		}
		extra += cells - interior
	}
	return extra
}

// overlapWindows returns, for rank r, the compute seconds the GC-C
// phased schedule can hide under each decomposed axis's messages: the
// interior box computes while the first messaging axis's data flies, and
// each later axis's wire time hides the previous axis's rim slabs —
// shares of the first step's compute time t0, in proportion to the box
// schedule's cell counts (exposed comm per axis is then max(0, wire −
// hidden compute)).
func (st *simState) overlapWindows(r int, t0 float64) [3]float64 {
	p := st.dec.Shape()
	own := st.ownBlock(r)
	e := float64(2 * (st.j.Depth - 1) * st.j.K)
	var full, cur [3]float64
	total := 1.0
	for a := 0; a < 3; a++ {
		full[a] = float64(own[a]) + e
		cur[a] = full[a]
		if p[a] > 1 {
			v := float64(own[a]) - 2*float64(st.j.K)
			if v < 0 {
				v = 0
			}
			cur[a] = v
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
		out[a] = t0 * prev / total
		before := cells(cur)
		cur[a] = full[a]
		prev = cells(cur) - before // axis a's rim, hidden under the next
	}
	return out
}

// runMulti simulates the multi-axis deep-halo schedule: one sequential
// per-axis exchange per cycle (undecomposed axes wrap with local copies,
// decomposed axes message their ring neighbors), then runLen compute
// steps on the shrinking box. NB-C and above post receives early; GC-C
// and above additionally overlap each axis's wire time with the box
// schedule's compute (interior box for the first messaging axis, the
// previous axis's rims for the rest), mirroring internal/core's phased
// cart stepper.
func (st *simState) runMulti() float64 {
	j := st.j
	p := st.dec.Shape()
	sw := st.rt.msgSW
	nonblocking := j.Opt >= core.OptNBC
	overlap := j.Opt >= core.OptGCC
	var ghost float64
	sendAt := make([]float64, st.ranks)
	t0 := make([]float64, st.ranks)
	used := make([]float64, st.ranks)
	wins := make([][3]float64, st.ranks)
	// The first decomposed axis's messages fly over the interior box; each
	// later axis's fly over the previous axis's rims (overlapWindows) —
	// which phase the hidden compute belongs to in the decomposition.
	firstMsg := -1
	for a := 0; a < 3; a++ {
		if p[a] > 1 {
			firstMsg = a
			break
		}
	}
	for done := 0; done < j.Steps; {
		runLen := j.Depth
		if rest := j.Steps - done; rest < runLen {
			runLen = rest
		}
		if overlap {
			for r := 0; r < st.ranks; r++ {
				t0[r] = st.stepTimeMulti(r, 0)
				used[r] = 0
				wins[r] = st.overlapWindows(r, t0[r])
			}
		}
		for axis := 0; axis < 3; axis++ {
			if p[axis] == 1 {
				if j.Bounded[axis] {
					// Bounded undecomposed axis: both ghost faces are
					// boundary-filled in place — one write per face, no
					// border pack and no message.
					for r := 0; r < st.ranks; r++ {
						dt := 2 * st.axisFaceBytes(r, axis) / st.rt.taskBWRaw
						st.clock[r] += dt
						st.phase[r][obs.Face] += dt
					}
					continue
				}
				// Local periodic wrap: pack+unpack copies on both sides.
				for r := 0; r < st.ranks; r++ {
					dt := 4 * st.axisHaloBytes(r, axis) / st.rt.taskBWRaw
					st.clock[r] += dt
					st.phase[r][obs.Pack] += dt / 2
					st.phase[r][obs.Unpack] += dt / 2
				}
				continue
			}
			for r := 0; r < st.ranks; r++ {
				// Two face-sized copies per cycle regardless of geometry:
				// borders packed toward neighbors, boundary ghost faces
				// written from boundary data (edge ranks swap one for the
				// other).
				packT := 2 * st.axisHaloBytes(r, axis) / st.rt.taskBWRaw
				sendAt[r] = st.clock[r] + packT
				st.phase[r][obs.Pack] += packT
			}
			for r := 0; r < st.ranks; r++ {
				bytes := st.axisHaloBytes(r, axis)
				wire := st.rt.latency + bytes/st.rt.linkBW
				wireIntra := bytes / st.rt.intraBW
				nmsg := 0.0
				recvReady := math.Inf(-1)
				for _, dir := range [2]int{-1, +1} {
					nb := st.dec.Neighbor(r, axis, dir)
					if nb == decomp.NoNeighbor {
						continue
					}
					nmsg++
					w := wire
					if st.sameNode(r, nb) {
						w = wireIntra
					}
					if t := sendAt[nb] + sw + w; t > recvReady {
						recvReady = t
					}
				}
				unpackT := 2 * bytes / st.rt.taskBWRaw
				ph := &st.phase[r]
				ph[obs.Pack] += nmsg * sw
				ph[obs.Unpack] += unpackT
				if overlap {
					// The axis's wire time is (partially) hidden behind the
					// schedule's compute window; only the remainder — and the
					// unhideable posting cost and unpack — is exposed.
					hide := wins[r][axis]
					hidden := sendAt[r] + nmsg*sw + hide
					wait := recvReady - hidden
					if wait < 0 || math.IsInf(wait, -1) {
						wait = 0
					}
					st.comm[r] += nmsg*sw + wait + unpackT
					st.clock[r] = hidden + wait + unpackT
					used[r] += hide
					if axis == firstMsg {
						ph[obs.Interior] += hide
					} else {
						ph[obs.Rim] += hide
					}
					ph[obs.Wire] += wait
				} else if nonblocking {
					ready := sendAt[r] + nmsg*sw
					if recvReady > ready {
						ready = recvReady
					}
					st.comm[r] += (ready - sendAt[r]) + unpackT
					st.clock[r] = ready + unpackT
					ph[obs.Wire] += ready - sendAt[r] - nmsg*sw
				} else {
					sendDone := sendAt[r] + nmsg*sw
					if nmsg > 0 {
						sendDone += wire
					}
					ready := sendDone
					if recvReady > ready {
						ready = recvReady
					}
					// Pack time is compute, not comm — same accounting
					// as the slab path.
					st.comm[r] += (ready - sendAt[r]) + unpackT
					st.clock[r] = ready + unpackT
					ph[obs.Wire] += ready - sendAt[r] - nmsg*sw
				}
			}
		}
		for r := 0; r < st.ranks; r++ {
			ph := &st.phase[r]
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
				for s := 1; s < runLen; s++ {
					dt := st.stepTimeMulti(r, s)
					st.clock[r] += dt
					ph[obs.Interior] += dt
				}
			} else {
				for s := 0; s < runLen; s++ {
					dt := st.stepTimeMulti(r, s)
					st.clock[r] += dt
					ph[obs.Interior] += dt
				}
			}
			ghost += st.ghostExtraMulti(r, runLen)
		}
		done += runLen
	}
	return ghost
}
