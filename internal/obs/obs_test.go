package obs

import (
	"bytes"
	"encoding/json"
	"testing"
	"time"
)

func TestPhaseNamesRoundTrip(t *testing.T) {
	for p := Phase(0); p < NumPhases; p++ {
		got, ok := PhaseByName(p.String())
		if !ok || got != p {
			t.Errorf("PhaseByName(%q) = %v, %v", p.String(), got, ok)
		}
	}
	if _, ok := PhaseByName("no-such-phase"); ok {
		t.Error("PhaseByName accepted an unknown name")
	}
}

func TestNilRecorderNoOps(t *testing.T) {
	var r *Recorder
	t0 := r.Begin()
	if !t0.IsZero() {
		t.Error("nil Begin read the clock")
	}
	r.End(Interior, t0)
	r.EndAxis(Rim, 1, t0)
	r.AddComm(0, 100, 1)
	if o := r.Observation(); o.Phases != nil || o.CommBytes != [3]int64{} {
		t.Errorf("nil Observation = %+v, want zero", o)
	}
}

func TestRecorderAccounting(t *testing.T) {
	r := New(3, time.Now(), false)
	t0 := r.Begin()
	time.Sleep(time.Millisecond)
	r.End(Interior, t0)
	t0 = r.Begin()
	r.EndAxis(Rim, 1, t0)
	t0 = r.Begin()
	r.EndAxis(Rim, 1, t0)
	r.AddComm(1, 512, 2)
	r.AddComm(0, 64, 1)

	o := r.Observation()
	if o.Rank != 3 {
		t.Errorf("rank = %d, want 3", o.Rank)
	}
	if s := o.Seconds(Interior); s < 0.5e-3 {
		t.Errorf("interior seconds = %g, want >= 0.5ms", s)
	}
	if o.CommBytes != [3]int64{64, 512, 0} || o.CommMsgs != [3]int64{1, 2, 0} {
		t.Errorf("comm = %v / %v", o.CommBytes, o.CommMsgs)
	}
	var rim *PhaseObs
	for i := range o.Phases {
		if o.Phases[i].Phase == Rim.String() {
			rim = &o.Phases[i]
		}
	}
	if rim == nil || rim.Axis != 1 || rim.Count != 2 {
		t.Fatalf("rim row = %+v, want axis 1 count 2", rim)
	}
	// Untouched phases must not appear.
	for _, po := range o.Phases {
		if po.Phase == Sponge.String() {
			t.Error("unrecorded phase present in observation")
		}
	}
}

func TestVectorMatchesSeconds(t *testing.T) {
	r := New(0, time.Now(), false)
	for axis := 0; axis < 3; axis++ {
		t0 := r.Begin()
		r.EndAxis(Face, axis, t0)
	}
	o := r.Observation()
	v := o.Vector()
	if v[Face] != o.Seconds(Face) {
		t.Errorf("Vector()[Face] = %g, Seconds(Face) = %g", v[Face], o.Seconds(Face))
	}
	if v.Total() != o.Seconds(Face) {
		t.Errorf("Total() = %g, want %g", v.Total(), o.Seconds(Face))
	}
}

// TestReportGoldenShape pins the run-report JSON layout: the schema tag
// and the top-level keys a later reader (CI trajectory, calibration fit)
// depends on.
func TestReportGoldenShape(t *testing.T) {
	r := New(0, time.Now(), false)
	t0 := r.Begin()
	r.End(Interior, t0)
	t0 = r.Begin()
	r.EndAxis(Pack, 0, t0)
	r.AddComm(0, 1024, 4)

	cfg := RunConfig{Model: "D3Q19", NX: 8, NY: 8, NZ: 8, Steps: 2, Opt: "GC",
		Ranks: 1, Decomp: [3]int{1, 1, 1}, Threads: 1, Depth: [3]int{1, 1, 1}}
	st := RunStats{WallSeconds: 0.5, MFlups: 10, InteriorUpdates: 1024,
		CommSeconds: []float64{0.1}}
	o := r.Observation()
	o.BytesSent, o.Messages, o.SlotBytes, o.FieldBytes = 1024, 4, 2048, 4096 // the harness fills these from the fabric and the stepper
	rep := BuildReport(cfg, st, []RankObservation{o})

	var buf bytes.Buffer
	if err := WriteReport(&buf, rep); err != nil {
		t.Fatal(err)
	}
	var m map[string]any
	if err := json.Unmarshal(buf.Bytes(), &m); err != nil {
		t.Fatal(err)
	}
	if m["schema"] != ReportSchema {
		t.Errorf("schema = %v, want %q", m["schema"], ReportSchema)
	}
	for _, key := range []string{"machine", "config", "wall_seconds", "mflups",
		"interior_updates", "ghost_updates", "comm", "field_bytes", "phases", "ranks"} {
		if _, ok := m[key]; !ok {
			t.Errorf("report missing top-level key %q", key)
		}
	}
	phases, ok := m["phases"].([]any)
	if !ok || len(phases) != 2 {
		t.Fatalf("phases = %v, want 2 rows (interior, pack[x])", m["phases"])
	}
	row := phases[0].(map[string]any)
	for _, key := range []string{"phase", "axis", "seconds", "count"} {
		if _, ok := row[key]; !ok {
			t.Errorf("phase row missing key %q", key)
		}
	}
	secs := row["seconds"].(map[string]any)
	for _, key := range []string{"min", "median", "max", "mean", "n"} {
		if _, ok := secs[key]; !ok {
			t.Errorf("spread missing key %q", key)
		}
	}
	if bs := m["comm"].(map[string]any)["bytes_sent"]; bs != float64(1024) {
		t.Errorf("comm.bytes_sent = %v, want 1024", bs)
	}
	if sb := m["comm"].(map[string]any)["slot_bytes"]; sb != float64(2048) {
		t.Errorf("comm.slot_bytes = %v, want 2048", sb)
	}
	if fb := m["field_bytes"]; fb != float64(4096) {
		t.Errorf("field_bytes = %v, want 4096", fb)
	}
	if fb := m["ranks"].([]any)[0].(map[string]any)["field_bytes"]; fb != float64(4096) {
		t.Errorf("ranks[0].field_bytes = %v, want 4096", fb)
	}
}

// TestTraceGoldenShape pins the Chrome trace-event layout: complete "X"
// events with microsecond timestamps, one pid per rank.
func TestTraceGoldenShape(t *testing.T) {
	epoch := time.Now()
	r := New(2, epoch, true)
	t0 := r.Begin()
	r.End(Interior, t0)
	t0 = r.Begin()
	r.EndAxis(Wire, 1, t0)

	var buf bytes.Buffer
	if err := WriteTrace(&buf, []RankObservation{r.Observation()}); err != nil {
		t.Fatal(err)
	}
	var tf struct {
		TraceEvents []map[string]any `json:"traceEvents"`
		Unit        string           `json:"displayTimeUnit"`
	}
	if err := json.Unmarshal(buf.Bytes(), &tf); err != nil {
		t.Fatal(err)
	}
	if len(tf.TraceEvents) != 2 {
		t.Fatalf("got %d events, want 2", len(tf.TraceEvents))
	}
	for _, ev := range tf.TraceEvents {
		if ev["ph"] != "X" || ev["cat"] != "lbm" {
			t.Errorf("event = %v, want complete-event ph X cat lbm", ev)
		}
		if ev["pid"] != float64(2) {
			t.Errorf("pid = %v, want rank 2", ev["pid"])
		}
		for _, key := range []string{"name", "ts", "dur", "tid"} {
			if _, ok := ev[key]; !ok {
				t.Errorf("event missing key %q", key)
			}
		}
	}
	if name := tf.TraceEvents[1]["name"]; name != "wire[y]" {
		t.Errorf("axis event name = %v, want wire[y]", name)
	}
	if args, ok := tf.TraceEvents[1]["args"].(map[string]any); !ok || args["axis"] != "y" {
		t.Errorf("axis args = %v, want axis y", tf.TraceEvents[1]["args"])
	}

	// An untraced recorder still yields a valid, empty trace.
	buf.Reset()
	if err := WriteTrace(&buf, nil); err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(buf.Bytes(), &tf); err != nil || len(tf.TraceEvents) != 0 {
		t.Errorf("empty trace = %s (err %v)", buf.Bytes(), err)
	}
}

// TestMeanPhases: the across-rank mean is per phase, takes observed and
// predicted vectors alike, and no ranks means the zero vector (not NaN).
func TestMeanPhases(t *testing.T) {
	ranks := []RankObservation{
		{Phases: []PhaseObs{{Phase: "interior", Seconds: 1}, {Phase: "wire", Seconds: 2}, {Phase: "wire", Axis: 1, Seconds: 4}}},
		{Phases: []PhaseObs{{Phase: "interior", Seconds: 3}}},
	}
	got := MeanPhases(Vectors(ranks))
	var want PhaseSeconds
	want[Interior], want[Wire] = 2, 3
	if got != want {
		t.Errorf("MeanPhases = %v, want %v", got, want)
	}
	if got := MeanPhases(nil); got != (PhaseSeconds{}) {
		t.Errorf("MeanPhases(nil) = %v, want zero", got)
	}
}
