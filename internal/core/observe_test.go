package core

import (
	"testing"
	"time"

	"repro/internal/grid"
	"repro/internal/lattice"
	"repro/internal/obs"
)

// TestObserveBitIdentity: the instrumentation layer is purely
// observational — with Observe and Trace on, every stepper path must
// reproduce the uninstrumented field to the last bit. Covers the full
// nine-path matrix plus the AA in-place streaming paths the recorder
// also hooks.
func TestObserveBitIdentity(t *testing.T) {
	cases := stepperPathCases()
	n := grid.Dims{NX: 24, NY: 16, NZ: 16}
	cases = append(cases,
		struct {
			name string
			cfg  Config
		}{"slab-aa-gcc", Config{
			Model: lattice.D3Q19(), N: n, Tau: 0.8, Steps: 5,
			Opt: OptGCC, Ranks: 2, GhostDepth: 1, Stream: StreamAA,
		}},
		struct {
			name string
			cfg  Config
		}{"pencil-aa-gcc", Config{
			Model: lattice.D3Q19(), N: n, Tau: 0.8, Steps: 5,
			Opt: OptGCC, Ranks: 4, Decomp: [3]int{2, 2, 1}, GhostDepth: 1, Stream: StreamAA,
		}},
	)
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			plain := tc.cfg
			plain.Threads = 2
			instr := plain
			instr.Observe = true
			instr.Trace = true
			a := runField(t, plain)
			b := runField(t, instr)
			if d := grid.MaxAbsDiff(a, b); d != 0 {
				t.Errorf("observed run differs from plain: max |Δf| = %g, want bit-exact", d)
			}
		})
	}
}

// TestObservationContents: an observed run must deliver one observation
// per rank with the phases its schedule actually executes, wire traffic
// on the exchanged axes, and per-worker chunk counts when threaded.
func TestObservationContents(t *testing.T) {
	n := grid.Dims{NX: 24, NY: 16, NZ: 16}
	res, err := Run(Config{
		Model: lattice.D3Q19(), N: n, Tau: 0.8, Steps: 5,
		Opt: OptGCC, Ranks: 4, Decomp: [3]int{2, 2, 1}, Threads: 2,
		GhostDepth: 1, Init: waveInit(n), Observe: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Observations) != 4 {
		t.Fatalf("got %d observations, want 4", len(res.Observations))
	}
	wall := res.WallTime.Seconds()
	for r := range res.Observations {
		o := &res.Observations[r]
		if o.Rank != r {
			t.Errorf("observation %d has rank %d", r, o.Rank)
		}
		for _, p := range []obs.Phase{obs.Interior, obs.Rim, obs.Pack, obs.Unpack} {
			if o.Seconds(p) <= 0 {
				t.Errorf("rank %d: phase %s recorded no time", r, p)
			}
		}
		// Spans never nest, so the per-phase total is bounded by the wall.
		if tot := o.Vector().Total(); tot > wall {
			t.Errorf("rank %d: phase seconds %.4f exceed wall %.4f", r, tot, wall)
		}
		// The pencil decomposes x and y: payload counters on both axes.
		if o.CommBytes[0] <= 0 || o.CommBytes[1] <= 0 || o.CommBytes[2] != 0 {
			t.Errorf("rank %d: comm bytes %v, want x,y > 0 and z = 0", r, o.CommBytes)
		}
		if o.CommMsgs[0] <= 0 || o.CommMsgs[1] <= 0 {
			t.Errorf("rank %d: comm msgs %v, want x,y > 0", r, o.CommMsgs)
		}
		if len(o.WorkerChunks) != 2 {
			t.Fatalf("rank %d: worker chunks %v, want 2 workers", r, o.WorkerChunks)
		}
		if o.WorkerChunks[0]+o.WorkerChunks[1] <= 0 {
			t.Errorf("rank %d: no chunks drained: %v", r, o.WorkerChunks)
		}
	}
	// Single-threaded ranks omit the chunk view.
	res1, err := Run(Config{
		Model: lattice.D3Q19(), N: n, Tau: 0.8, Steps: 2,
		Opt: OptGC, Ranks: 1, Threads: 1, GhostDepth: 1,
		Init: waveInit(n), Observe: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	if wc := res1.Observations[0].WorkerChunks; wc != nil {
		t.Errorf("single-threaded rank reported worker chunks %v, want nil", wc)
	}
	if res1.Observations[0].Events != nil {
		t.Error("untraced run retained trace events")
	}
}

// TestTraceEventsRetained: with Trace set, the observations carry the raw
// spans, stamped against a common epoch so ranks align on one timeline.
func TestTraceEventsRetained(t *testing.T) {
	n := grid.Dims{NX: 24, NY: 16, NZ: 16}
	res, err := Run(Config{
		Model: lattice.D3Q19(), N: n, Tau: 0.8, Steps: 3,
		Opt: OptGCC, Ranks: 2, Threads: 1, GhostDepth: 1,
		Init: waveInit(n), Trace: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	for r := range res.Observations {
		evs := res.Observations[r].Events
		if len(evs) == 0 {
			t.Fatalf("rank %d retained no trace events", r)
		}
		for _, e := range evs {
			if e.Start < 0 || e.Dur < 0 {
				t.Errorf("rank %d: event %s starts %v for %v, want non-negative", r, e.Phase, e.Start, e.Dur)
			}
		}
	}
}

// BenchmarkRecorderOverhead fences the disabled-path cost: a nil recorder
// must make every Begin/End pair a branch on a nil pointer, and a whole
// uninstrumented step must not regress measurably against the pre-obs
// kernels (compare the off/on sub-benchmarks for the enabled cost).
func BenchmarkRecorderOverhead(b *testing.B) {
	b.Run("nil-span", func(b *testing.B) {
		var r *obs.Recorder
		for i := 0; i < b.N; i++ {
			t0 := r.Begin()
			r.End(obs.Interior, t0)
		}
	})
	b.Run("live-span", func(b *testing.B) {
		r := obs.New(0, time.Now(), false)
		for i := 0; i < b.N; i++ {
			t0 := r.Begin()
			r.End(obs.Interior, t0)
		}
	})
	n := grid.Dims{NX: 32, NY: 16, NZ: 16}
	for _, observe := range []bool{false, true} {
		name := "step-off"
		if observe {
			name = "step-on"
		}
		b.Run(name, func(b *testing.B) {
			cfg := Config{
				Model: lattice.D3Q19(), N: n, Tau: 0.8, Steps: 1,
				Opt: OptGCC, Ranks: 2, Threads: 1, GhostDepth: 1,
				Init: waveInit(n), Observe: observe,
			}
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := Run(cfg); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// TestReportDepthIsRunDepth: a report's config.depth is what the run
// stepped with, per axis — under AA the configured depths rounded up to
// even — so a depth-1 AA run reports depth 2 and does the ghost work and
// sends the bytes of the run configured at depth 2.
func TestReportDepthIsRunDepth(t *testing.T) {
	n := grid.Dims{NX: 32, NY: 16, NZ: 16}
	run := func(stream StreamScheme, depth int, axes [3]int) (*Config, *Result) {
		t.Helper()
		cfg := &Config{
			Model: lattice.D3Q19(), N: n, Tau: 0.8, Steps: 4, Opt: OptGCC, Ranks: 2, Threads: 1,
			GhostDepth: depth, GhostDepthAxes: axes, Stream: stream, Init: waveInit(n),
		}
		res, err := Run(*cfg)
		if err != nil {
			t.Fatal(err)
		}
		return cfg, res
	}
	for _, tc := range []struct {
		stream StreamScheme
		depth  int
		axes   [3]int
		want   [3]int
	}{
		{StreamAA, 1, [3]int{}, [3]int{2, 2, 2}},
		{StreamAA, 0, [3]int{3, 1, 2}, [3]int{4, 2, 2}},
		{StreamTwoGrid, 0, [3]int{3, 1, 2}, [3]int{3, 1, 2}},
		{StreamTwoGrid, 1, [3]int{}, [3]int{1, 1, 1}},
	} {
		cfg, res := run(tc.stream, tc.depth, tc.axes)
		if got := NewReport(cfg, res).Config.Depth; got != tc.want {
			t.Errorf("%s depth %d axes %v: report says depth %v, want %v", tc.stream, tc.depth, tc.axes, got, tc.want)
		}
	}
	_, one := run(StreamAA, 1, [3]int{})
	_, two := run(StreamAA, 2, [3]int{})
	if one.GhostUpdates != two.GhostUpdates || one.HaloAxisBytes != two.HaloAxisBytes {
		t.Errorf("AA at depth 1: ghost work %d, axis bytes %v; at depth 2: %d, %v — want the same run",
			one.GhostUpdates, one.HaloAxisBytes, two.GhostUpdates, two.HaloAxisBytes)
	}
}
