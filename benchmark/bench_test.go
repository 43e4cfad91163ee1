package main

import (
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"regexp"
	"testing"

	"repro/internal/core"
	"repro/internal/grid"
)

func tinyConfig(w *workload) core.Config {
	return w.config(w.dims(true), 7)
}

// Every workload builds, runs and passes its own checks at a tiny grid.
func TestWorkloadsPassTheirChecks(t *testing.T) {
	for i := range workloads {
		w := &workloads[i]
		t.Run(w.Name, func(t *testing.T) {
			r, err := measure(w, tinyConfig(w), 0)
			if err != nil {
				t.Fatal(err)
			}
			if len(r.Samples) != minOps {
				t.Errorf("ops = %d, want the minimum %d under a zero time limit", len(r.Samples), minOps)
			}
			if r.Failed != 0 {
				t.Errorf("failed ops: %v", r.Reasons)
			}
			if r.FieldDiff > fieldTol {
				t.Errorf("field differs from the reference by %g", r.FieldDiff)
			}
			for _, d := range endToEnd {
				if v, ok := r.Metrics[d.Name]; !ok || !(v > 0) {
					t.Errorf("metric %s = %v, want a positive number", d.Name, v)
				}
			}
		})
	}
}

// The seed moves the initial fields and nothing else.
func TestSeedChangesOnlyInitialFields(t *testing.T) {
	for i := range workloads {
		w := &workloads[i]
		a, b := w.config(w.dims(true), 1), w.config(w.dims(true), 2)
		if a.N != b.N || a.Ranks != b.Ranks || a.Threads != b.Threads || a.Opt != b.Opt || a.Tau != b.Tau {
			t.Errorf("%s: the seed changed the geometry or the execution switches", w.Name)
		}
		if (a.Solid == nil) != (b.Solid == nil) || (a.Solid != nil && !a.Solid.Equal(b.Solid)) {
			t.Errorf("%s: the seed changed the mask", w.Name)
		}
		a.Steps, b.Steps = 2, 2
		ra, err := core.Run(a)
		if err != nil {
			t.Fatal(err)
		}
		rb, err := core.Run(b)
		if err != nil {
			t.Fatal(err)
		}
		if ra.MomX == rb.MomX && ra.MomZ == rb.MomZ {
			t.Errorf("%s: seeds 1 and 2 produced the same momentum — the seed is not used", w.Name)
		}
	}
}

func TestPerturbedMassIsAFailedOp(t *testing.T) {
	good := opSample{Sums: [4]float64{4096, 0.5, 0, -0.25}}
	if why := opFailure(good, good, 4096); why != "" {
		t.Fatalf("a clean op failed: %s", why)
	}
	drifted := good
	drifted.Sums[0] = 4096 * (1 + 2e-10)
	nan := good
	nan.Sums[0] = math.NaN()
	lastBit := good
	lastBit.Sums[1] = math.Nextafter(good.Sums[1], 1)
	errored := opSample{Err: "boom"}
	for name, s := range map[string]opSample{"drift": drifted, "nan": nan, "last bit": lastBit, "error": errored} {
		// The drifted and NaN ops are judged against themselves as first op,
		// so only the mass rule can catch them.
		first := good
		if name == "drift" || name == "nan" {
			first = s
		}
		if opFailure(first, s, 4096) == "" {
			t.Errorf("%s: op counted as correct", name)
		}
	}
	failed, reasons := countFailures([]opSample{good, drifted, good}, 4096, true)
	if failed != 1 || len(reasons) != 1 {
		t.Errorf("countFailures = %d %v, want exactly the drifted op", failed, reasons)
	}
}

// gatheredField runs the masked workload briefly and returns its field.
func gatheredField(t *testing.T) (*grid.Field, core.Config) {
	t.Helper()
	cfg := tinyConfig(workloadByName("bifurcation-sparse"))
	cfg.Steps, cfg.KeepField = 2, true
	res, err := core.Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return res.Field, cfg
}

func TestCorruptedFieldFailsEveryOp(t *testing.T) {
	field, cfg := gatheredField(t)
	bad := field.Clone()
	// Find a fluid cell and flip one population by far more than 1e-12.
	var at [3]int
search:
	for ix := 0; ix < cfg.N.NX; ix++ {
		for iy := 0; iy < cfg.N.NY; iy++ {
			for iz := 0; iz < cfg.N.NZ; iz++ {
				if !cfg.Solid.At(ix, iy, iz) {
					at = [3]int{ix, iy, iz}
					break search
				}
			}
		}
	}
	bad.Set(3, at[0], at[1], at[2], bad.At(3, at[0], at[1], at[2])+1e-9)
	diff := fluidMaxAbsDiff(field, bad, cfg.Solid)
	if diff <= fieldTol {
		t.Fatalf("corrupted fluid cell not seen: diff %g", diff)
	}
	good := opSample{Sums: [4]float64{100, 0, 0, 0}}
	failed, _ := countFailures([]opSample{good, good, good}, 100, diff <= fieldTol)
	if failed != 3 {
		t.Errorf("failed = %d, want every op failed when the field check fails", failed)
	}
}

func TestFluidOnlyComparisonIgnoresSolidCells(t *testing.T) {
	field, cfg := gatheredField(t)
	scribbled := field.Clone()
	solids := 0
	for ix := 0; ix < cfg.N.NX; ix++ {
		for iy := 0; iy < cfg.N.NY; iy++ {
			for iz := 0; iz < cfg.N.NZ; iz++ {
				if cfg.Solid.At(ix, iy, iz) {
					scribbled.Set(0, ix, iy, iz, 42)
					solids++
				}
			}
		}
	}
	if solids == 0 {
		t.Fatal("the tiny mask has no solid cell")
	}
	if d := fluidMaxAbsDiff(field, scribbled, cfg.Solid); d != 0 {
		t.Errorf("solid cells leaked into the fluid-only comparison: diff %g", d)
	}
	if d := grid.MaxAbsDiff(field, scribbled); d == 0 {
		t.Error("the whole-field comparison should see the scribbled solid cells")
	}
}

func TestQuantilesOnKnownSeries(t *testing.T) {
	// statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
	xs := []float64{10, 1, 9, 2, 8, 3, 7, 4, 6, 5}
	q1, q2, q3 := quartiles(xs)
	if q1 != 2.75 || q2 != 5.5 || q3 != 8.25 {
		t.Errorf("quartiles = %g %g %g, want 2.75 5.5 8.25", q1, q2, q3)
	}
	// statistics.quantiles([1, 2, 3], n=4) == [1.0, 2.0, 3.0]
	q1, q2, q3 = quartiles([]float64{3, 1, 2})
	if q1 != 1 || q2 != 2 || q3 != 3 {
		t.Errorf("quartiles of three = %g %g %g, want 1 2 3", q1, q2, q3)
	}
	if got := relSpread(xs); got != 1 {
		t.Errorf("relSpread = %g, want (8.25-2.75)/5.5 = 1", got)
	}
	if !math.IsNaN(median(nil)) {
		t.Error("median of nothing should be NaN")
	}
}

func TestAggregateRateWeightsBySeconds(t *testing.T) {
	// 10 M updates in 1 s and 10 M in 3 s: 20 M over 4 s, not the mean of
	// 10 and 3.33.
	got := aggregateRate([]int64{10e6, 10e6}, []float64{1, 3})
	if got != 5 {
		t.Errorf("aggregateRate = %g, want 5", got)
	}
	if got := maxOverMean([]int64{30, 10}); got != 1.5 {
		t.Errorf("maxOverMean = %g, want 1.5", got)
	}
	if got := maxOverMean(nil); got != 1 {
		t.Errorf("maxOverMean(nil) = %g, want 1", got)
	}
}

// Two ops of the same work: one on a host at nominal speed, one on a host
// at half speed that took twice as long. Scaled to the nominal host they
// are the same op, and the metrics must say so.
func TestTimingsAreScaledToTheNominalHost(t *testing.T) {
	r := &runResult{Samples: []opSample{
		{CallSeconds: 2.5, StepSeconds: 2, RefMflups: refNominal},
		{CallSeconds: 5, StepSeconds: 4, RefMflups: refNominal / 2},
	}}
	if err := r.summarize(6e6, 100); err != nil {
		t.Fatal(err)
	}
	if got := r.Metrics["mflups"]; got != 3 {
		t.Errorf("mflups = %g, want 3 (6 M updates per 2 nominal seconds)", got)
	}
	if got := r.Metrics["setup_s"]; got != 0.5 {
		t.Errorf("setup_s = %g, want 0.5", got)
	}
	if got := r.RawMflups; got != 2 {
		t.Errorf("unscaled mflups = %g, want 2 (12 M updates in 6 s)", got)
	}
	if r.HostFactor != 0.75 || r.Metrics["peak_rss_mb"] != 100 {
		t.Errorf("host factor %g, peak rss %g", r.HostFactor, r.Metrics["peak_rss_mb"])
	}
	failedOnly := &runResult{Samples: []opSample{{Err: "boom"}}, Reasons: []string{"op 0: boom"}}
	if failedOnly.summarize(6e6, 100) == nil {
		t.Error("a run without a single good op must not produce metrics")
	}
}

func TestReferenceReading(t *testing.T) {
	for _, workers := range []int{1, 2} {
		if r := refReading(workers); !(r > 0) || math.IsInf(r, 0) {
			t.Errorf("%d workers: reading %g", workers, r)
		}
	}
	// The kernel conserves mass: a reference that drifted would still time
	// something, but not a lattice Boltzmann step.
	l := newRefLattice()
	mass := func() float64 {
		m := 0.0
		for _, f := range l.f {
			m += sum(f)
		}
		return m
	}
	before := mass()
	l.step()
	l.step()
	if after := mass(); math.Abs(after-before) > 1e-9*before {
		t.Errorf("reference kernel lost mass: %g -> %g", before, after)
	}
}

func TestJudge(t *testing.T) {
	steady := []float64{100, 101, 99}
	cases := []struct {
		name    string
		b       []float64
		better  string
		verdict string
	}{
		{"same", []float64{100, 100.5, 99.5}, "higher", verdictOK},
		{"slower throughput", []float64{85, 86, 84}, "higher", verdictRegressed},
		{"faster throughput", []float64{120, 121, 119}, "higher", verdictOK},
		{"more memory", []float64{115, 116, 114}, "lower", verdictRegressed},
		{"wide and overlapping", []float64{80, 100, 120}, "higher", verdictUnresolved},
	}
	for _, c := range cases {
		if _, _, v := judge(steady, c.b, c.better, 0.10); v != c.verdict {
			t.Errorf("%s: verdict %q, want %q", c.name, v, c.verdict)
		}
	}
}

// benchmarkFile mirrors BENCHMARK.json at the repository root.
type benchmarkFile struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct{ Name, Why string }
	EndToEnd   []struct {
		Name, Unit, Better string
		Bound              float64
	} `json:"end_to_end"`
	PerLayer []struct{ Name, Unit, Better string } `json:"per_layer"`
}

// Every workload and metric BENCHMARK.json names is one the code emits,
// and the reverse, with the same unit, direction and bound.
func TestBenchmarkJSONMatchesCode(t *testing.T) {
	b, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var f benchmarkFile
	if err := json.Unmarshal(b, &f); err != nil {
		t.Fatal(err)
	}
	name := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unit := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)

	if len(f.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json has %d workloads, the code %d", len(f.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if f.Workloads[i].Name != w.Name || f.Workloads[i].Why != w.Why {
			t.Errorf("workload %d: BENCHMARK.json %q / code %q (or their reasons) differ", i, f.Workloads[i].Name, w.Name)
		}
		if !name.MatchString(w.Name) || len(w.Why) > 200 {
			t.Errorf("workload %q: bad name or a reason over 200 characters", w.Name)
		}
	}
	if len(f.EndToEnd) != len(endToEnd) {
		t.Fatalf("BENCHMARK.json has %d end-to-end metrics, the code %d", len(f.EndToEnd), len(endToEnd))
	}
	for i, d := range endToEnd {
		g := f.EndToEnd[i]
		if g.Name != d.Name || g.Unit != d.Unit || g.Better != d.Better || g.Bound != d.Bound {
			t.Errorf("end-to-end metric %d: BENCHMARK.json %+v, code %+v", i, g, d)
		}
		if d.Bound <= 0 || d.Bound > 0.25 {
			t.Errorf("%s: bound %g outside (0, 0.25]", d.Name, d.Bound)
		}
	}
	if len(f.PerLayer) != len(perLayer) {
		t.Fatalf("BENCHMARK.json has %d per-layer metrics, the code %d", len(f.PerLayer), len(perLayer))
	}
	if len(perLayer) > 128 {
		t.Errorf("%d per-layer metrics, at most 128 allowed", len(perLayer))
	}
	for i, d := range perLayer {
		g := f.PerLayer[i]
		if g.Name != d.Name || g.Unit != d.Unit || g.Better != d.Better {
			t.Errorf("per-layer metric %d: BENCHMARK.json %+v, code %+v", i, g, d)
		}
	}
	seen := map[string]bool{}
	for _, d := range append(append([]metricDef{}, endToEnd...), perLayer...) {
		if !name.MatchString(d.Name) || !unit.MatchString(d.Unit) {
			t.Errorf("metric %q (%q): name or unit outside the allowed alphabet", d.Name, d.Unit)
		}
		if d.Better != "higher" && d.Better != "lower" {
			t.Errorf("metric %q: better = %q", d.Name, d.Better)
		}
		if seen[d.Name] {
			t.Errorf("metric %q named twice", d.Name)
		}
		seen[d.Name] = true
	}
	if len(f.Paths) != 1 || f.Paths[0] != "benchmark" {
		t.Errorf("paths = %v, want [benchmark]", f.Paths)
	}
	if f.RunSeconds < 1 || f.RunSeconds > 60 {
		t.Errorf("run_seconds = %d", f.RunSeconds)
	}
}

// The replayed layer calls and the op-derived numbers together produce
// every per-layer metric but the host's and the op loop's own, on every
// workload, and the spans load as a Chrome trace.
func TestLayerReplaysCoverEveryMetric(t *testing.T) {
	fromOps := map[string]bool{
		"host.triad_gbs": true, "host.copy_gbs": true, "host.spin_ns": true, "host.ref_mflups": true,
		"core.op_s.p50": true, "core.op_s.p75": true, "core.ghost_frac": true,
		"core.alloc_mb_per_op": true, "core.mallocs_per_step": true, "core.scale_eff": true,
		"core.bytes_per_flup": true, "core.roofline_frac": true,
		"halo.bytes_per_step": true, "halo.msgs_per_step": true, "obs.overhead_frac": true,
	}
	for _, v := range variants {
		fromOps[v.metric] = true
	}
	for i := range workloads {
		w := &workloads[i]
		t.Run(w.Name, func(t *testing.T) {
			cfg := tinyConfig(w)
			cfg.Steps = 2
			tr := newTracer()
			root := tr.begin("run", -1)
			m := map[string]float64{}
			obsCfg := cfg
			obsCfg.Observe = true
			phaseMetrics([]tracedOp{opWithSpans(tr, root, "observed", obsCfg)}, m)
			diff, field, err := fieldCheck(cfg)
			if err != nil || diff > fieldTol {
				t.Fatalf("field check: diff %g err %v", diff, err)
			}
			if err := replayLayers(tr, root, cfg, field, m); err != nil {
				t.Fatal(err)
			}
			tr.end(root)
			for _, d := range perLayer {
				v, ok := m[d.Name]
				if fromOps[d.Name] {
					continue
				}
				if !ok || math.IsNaN(v) || math.IsInf(v, 0) || v < 0 {
					t.Errorf("%s = %v (present %v)", d.Name, v, ok)
				}
			}
			if s := m["core.phase.sum_frac"]; s < 0.5 || s > 1.05 {
				t.Errorf("phase shares sum to %g of the stepping time", s)
			}
			path := filepath.Join(t.TempDir(), "spans.json")
			if err := tr.write(path); err != nil {
				t.Fatal(err)
			}
			b, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			var trace struct {
				TraceEvents []struct {
					Name, Ph string
					Ts, Dur  float64
					Args     map[string]int
				} `json:"traceEvents"`
			}
			if err := json.Unmarshal(b, &trace); err != nil {
				t.Fatal(err)
			}
			if len(trace.TraceEvents) != len(tr.spans) || trace.TraceEvents[0].Args["parent"] != -1 {
				t.Errorf("trace has %d events for %d spans", len(trace.TraceEvents), len(tr.spans))
			}
			for _, e := range trace.TraceEvents {
				if e.Ph != "X" || e.Dur < 0 {
					t.Errorf("event %q: ph %q dur %g", e.Name, e.Ph, e.Dur)
				}
			}
		})
	}
}

func TestHostProbePieces(t *testing.T) {
	if got := parseCacheSize("266240K"); got != 266240<<10 {
		t.Errorf("parseCacheSize = %d", got)
	}
	// Four caches per array when memory allows...
	if n, ok := probeArrayLen(32<<20, 16<<30); !ok || n != 4*(32<<20)/8 {
		t.Errorf("probeArrayLen = %d %v", n, ok)
	}
	// ...shrunk, and flagged, when three arrays would take over a quarter
	// of what is available.
	if n, ok := probeArrayLen(260<<20, 4<<30); ok || 3*8*n > (4<<30)/4 {
		t.Errorf("probeArrayLen under pressure = %d %v", n, ok)
	}
	c, tri := bandwidthProbe(1<<16, 1)
	if !(c > 0) || !(tri > 0) {
		t.Errorf("bandwidthProbe = %g %g", c, tri)
	}
	if noisy(0.40, 0.45) || !noisy(0.36, 0.60) {
		t.Error("noisy: a 12% change is quiet, a 67% change is not")
	}
}
