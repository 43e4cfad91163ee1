package main

import (
	"encoding/json"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"repro/internal/collision"
	"repro/internal/core"
	"repro/internal/lattice"
	"repro/internal/machine"
	"repro/internal/obs"
)

// span is one timed interval of the traced run: its name, its start and
// end since the tracer's epoch, and the span that caused it (-1 for the
// root). All spans stay in memory until the run ends.
type span struct {
	Name       string
	Start, End time.Duration
	Parent     int
}

type tracer struct {
	epoch time.Time
	spans []span
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

func (t *tracer) begin(name string, parent int) int {
	t.spans = append(t.spans, span{Name: name, Start: time.Since(t.epoch), Parent: parent})
	return len(t.spans) - 1
}

func (t *tracer) end(id int) { t.spans[id].End = time.Since(t.epoch) }

// add records a span whose interval is already known.
func (t *tracer) add(name string, parent int, start, end time.Duration) {
	t.spans = append(t.spans, span{Name: name, Start: start, End: end, Parent: parent})
}

// timed runs fn inside a span and returns its duration in seconds.
func (t *tracer) timed(name string, parent int, fn func()) float64 {
	id := t.begin(name, parent)
	fn()
	t.end(id)
	return (t.spans[id].End - t.spans[id].Start).Seconds()
}

// write renders the spans as Chrome trace events (the object form that
// chrome://tracing and ui.perfetto.dev load), one complete event per span.
func (t *tracer) write(path string) error {
	type event struct {
		Name string         `json:"name"`
		Ph   string         `json:"ph"`
		Ts   float64        `json:"ts"`
		Dur  float64        `json:"dur"`
		Pid  int            `json:"pid"`
		Tid  int            `json:"tid"`
		Args map[string]int `json:"args"`
	}
	events := make([]event, len(t.spans))
	for i, s := range t.spans {
		events[i] = event{
			Name: s.Name, Ph: "X", Pid: 1, Tid: 1,
			Ts:   float64(s.Start.Nanoseconds()) / 1e3,
			Dur:  float64((s.End - s.Start).Nanoseconds()) / 1e3,
			Args: map[string]int{"id": i, "parent": s.Parent},
		}
	}
	b, err := json.Marshal(map[string]any{"traceEvents": events, "displayTimeUnit": "ms"})
	if err != nil {
		return err
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}

// tracedOp is one op of the traced run with the allocator's counters
// around it.
type tracedOp struct {
	opSample
	Steps      int
	AllocBytes uint64
	Mallocs    uint64
	Res        *core.Result
}

// opWithSpans runs one op under an "op" span with "set-up" and "step"
// children. core.Run does not say where inside the call its stepping loop
// sat, so the set-up span is drawn first and the step span after it: the
// few reductions that follow the loop are drawn as if they preceded it.
func opWithSpans(tr *tracer, parent int, kind string, cfg core.Config) tracedOp {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	id := tr.begin("op "+kind, parent)
	s, res := runOp(cfg)
	tr.end(id)
	runtime.ReadMemStats(&after)
	sp := tr.spans[id]
	// runOp collects garbage before its clock starts; the op proper is the
	// tail of the span.
	call := time.Duration(s.CallSeconds * float64(time.Second))
	step := time.Duration(s.StepSeconds * float64(time.Second))
	tr.add("set-up", id, sp.End-call, sp.End-step)
	tr.add("step", id, sp.End-step, sp.End)
	return tracedOp{
		opSample: s, Steps: cfg.Steps, Res: res,
		AllocBytes: after.TotalAlloc - before.TotalAlloc,
		Mallocs:    after.Mallocs - before.Mallocs,
	}
}

// rate is the aggregate MFlup/s of a set of ops.
func rate(ops []tracedOp, fluid int) float64 {
	var updates []int64
	var secs []float64
	for _, o := range ops {
		updates = append(updates, int64(o.Steps)*int64(fluid))
		secs = append(secs, o.StepSeconds)
	}
	return aggregateRate(updates, secs)
}

// variant is one rung of the ladder measured on the workload marked
// Ladder: the same problem with one switch changed.
type variant struct {
	metric string
	apply  func(*core.Config)
}

var variants = []variant{
	{"core.variant.orig_rel", func(c *core.Config) { c.Opt = core.OptOrig }},
	{"core.variant.fused_rel", func(c *core.Config) { c.Fused = true }},
	{"core.variant.aa_rel", func(c *core.Config) { c.Stream = core.StreamAA }},
	{"core.variant.trt_rel", func(c *core.Config) { c.Collision = collision.Spec{Kind: collision.TRT} }},
	{"core.variant.mrt_rel", func(c *core.Config) { c.Collision = collision.Spec{Kind: collision.MRT} }},
	{"core.variant.q39_rel", func(c *core.Config) { c.Model = lattice.D3Q39() }},
}

// variantSteps keeps the ladder affordable: rates come from the stepping
// time alone, so a short op measures the same thing as a long one.
const variantSteps = 2

// tracedRun produces every per-layer metric: the host probe, ops
// interleaved with observation on and off (and single-worker ops of the
// same problem), the field check, and the replayed layer calls.
func tracedRun(w *workload, cfg core.Config, limit time.Duration, rec *record, spansPath string) error {
	tr := newTracer()
	root := tr.begin("run "+w.Name, -1)
	m := map[string]float64{}

	tr.timed("host.probe", root, func() { probeHost(&rec.Host) })
	m["host.triad_gbs"], m["host.copy_gbs"], m["host.spin_ns"] = rec.Host.TriadGBs, rec.Host.CopyGBs, rec.Host.SpinBeforeNS
	// The yardstick of the untraced run, read once: per-layer numbers are
	// reported as the clock read them, and this says what the host was
	// doing at the time.
	tr.timed("host.reference", root, func() { m["host.ref_mflups"] = refReading(1) })

	cfg.Steps = w.StepsPerOp
	fluid := core.FluidCells(cfg.N, cfg.Solid)
	rec.FluidCells = fluid

	// The warm-up op is half as long as the others: the difference in
	// malloc counts between it and a full op is what the extra steps
	// allocated.
	shortCfg := cfg
	shortCfg.Steps = w.StepsPerOp / 2
	short := opWithSpans(tr, root, "short warm-up", shortCfg)

	// Interleaved ops. A round is one op of each kind, so slow stretches of
	// the host fall on every kind alike.
	observedCfg, singleCfg := cfg, cfg
	observedCfg.Observe = true
	singleCfg.Ranks, singleCfg.Threads, singleCfg.Decomp = 1, 1, [3]int{}
	var plain, observed, single []tracedOp
	start := time.Now()
	for len(plain) < 2 || time.Since(start) < limit*3/10 {
		observed = append(observed, opWithSpans(tr, root, "observed", observedCfg))
		plain = append(plain, opWithSpans(tr, root, "plain", cfg))
		if workers(cfg) > 1 {
			single = append(single, opWithSpans(tr, root, "single-worker", singleCfg))
		}
	}
	for _, o := range append(append(append([]tracedOp{short}, plain...), observed...), single...) {
		if o.Err != "" {
			return fmt.Errorf("traced op: %s", o.Err)
		}
	}
	var samples []opSample
	var stepSecs, allocMB []float64
	for _, o := range plain {
		samples = append(samples, o.opSample)
		stepSecs = append(stepSecs, o.StepSeconds)
		allocMB = append(allocMB, float64(o.AllocBytes)/1e6)
	}
	plainRate := rate(plain, fluid)
	m["core.op_s.p50"], m["core.op_s.p75"] = quantile(stepSecs, 0.5), quantile(stepSecs, 0.75)
	m["core.alloc_mb_per_op"] = median(allocMB)
	m["core.mallocs_per_step"] = (float64(plain[0].Mallocs) - float64(short.Mallocs)) / float64(cfg.Steps-shortCfg.Steps)
	res := plain[0].Res
	m["core.ghost_frac"] = float64(res.GhostUpdates) / float64(res.InteriorUpdates)
	var maxBytes, maxMsgs int64
	for _, pr := range res.PerRank {
		maxBytes, maxMsgs = max(maxBytes, pr.BytesSent), max(maxMsgs, pr.Messages)
	}
	m["halo.bytes_per_step"] = float64(maxBytes) / float64(cfg.Steps)
	m["halo.msgs_per_step"] = float64(maxMsgs) / float64(cfg.Steps)
	m["core.scale_eff"] = 1
	if len(single) > 0 {
		m["core.scale_eff"] = plainRate / (float64(workers(cfg)) * rate(single, fluid))
	}
	m["obs.overhead_frac"] = 1 - rate(observed, fluid)/plainRate
	phaseMetrics(observed, m)

	// Bytes per update, computed from the scheme, not measured: the split
	// kernels read f, write fNew and rewrite f; fused and AA touch each
	// population once for reading and once for writing.
	m["core.bytes_per_flup"] = float64(3 * 8 * cfg.Model.Q)
	if cfg.Fused || cfg.Stream == core.StreamAA {
		m["core.bytes_per_flup"] = float64(2 * 8 * cfg.Model.Q)
	}
	m["core.roofline_frac"] = 0
	if !rec.Host.RooflineOmitted {
		local := machine.Machine{Name: "local", MemBWBytes: rec.Host.TriadGBs * 1e9, PeakFlops: math.Inf(1)}
		m["core.roofline_frac"] = plainRate / machine.MaxMFlups(local, machine.SpecForQ(cfg.Model.Q)).Attainable
	}

	for _, v := range variants {
		m[v.metric] = 0
	}
	if w.Ladder {
		variantLadder(tr, root, cfg, fluid, m)
	}

	// The field check doubles as the source of the field the
	// post-processing layers are replayed on.
	checkID := tr.begin("check", root)
	diff, field, err := fieldCheck(cfg)
	tr.end(checkID)
	if err != nil {
		return err
	}
	if err := replayLayers(tr, root, cfg, field, m); err != nil {
		return fmt.Errorf("layer replay: %w", err)
	}

	rec.Host.SpinAfterNS = spinNS()
	rec.Noisy = noisy(rec.Host.SpinBeforeNS, rec.Host.SpinAfterNS)
	tr.end(root)

	rec.Ops = len(samples)
	rec.Samples = samples
	rec.FieldDiff = diff
	rec.OpsFailed, rec.Failures = countFailures(samples, float64(fluid), diff <= fieldTol)
	rec.Correct = rec.OpsFailed == 0
	for k, v := range m {
		rec.Metrics[k] = metricValue{Value: v}
	}
	return tr.write(spansPath)
}

// phaseMetrics turns the observed ops' recorder totals into shares of the
// stepping time. Each op contributes its slowest rank — the one whose
// phases add up to the most — because that rank sets the op's wall time.
func phaseMetrics(observed []tracedOp, m map[string]float64) {
	var phases obs.PhaseSeconds
	var wall, comm float64
	var fluidBal, workerBal float64 = 1, 1
	for _, o := range observed {
		wall += o.StepSeconds
		slowest := 0
		var fluids []int64
		for i := range o.Res.Observations {
			ro := &o.Res.Observations[i]
			if ro.Vector().Total() > o.Res.Observations[slowest].Vector().Total() {
				slowest = i
			}
			fluids = append(fluids, ro.FluidCells)
			if len(ro.WorkerWeights) > 0 {
				workerBal = math.Max(workerBal, maxOverMean(ro.WorkerWeights))
			}
		}
		fluidBal = maxOverMean(fluids)
		vec := o.Res.Observations[slowest].Vector()
		for p := range vec {
			phases[p] += vec[p]
		}
		comm += o.Res.Observations[slowest].CommSeconds
	}
	for p := obs.Phase(0); p < obs.NumPhases; p++ {
		m["core.phase."+p.String()+"_frac"] = phases[p] / wall
	}
	m["core.phase.sum_frac"] = phases.Total() / wall
	m["comm.wait_frac"] = comm / wall
	m["core.fluid_balance"] = fluidBal
	m["core.worker_balance"] = workerBal
}

// variantLadder measures every variant once against the workload's own
// configuration at the same short step count, one after the other. One
// round is all a traced run has time for; the ratios carry the host's
// noise and are for orientation, not for claims.
func variantLadder(tr *tracer, root int, cfg core.Config, fluid int, m map[string]float64) {
	cfg.Steps = variantSteps
	id := tr.begin("variant ladder", root)
	defer tr.end(id)
	base := opWithSpans(tr, id, "variant base", cfg)
	if base.Err != "" {
		return
	}
	for _, v := range variants {
		vc := cfg
		v.apply(&vc)
		if o := opWithSpans(tr, id, v.metric, vc); o.Err == "" {
			m[v.metric] = rate([]tracedOp{o}, fluid) / rate([]tracedOp{base}, fluid)
		}
	}
}
