package tune

import (
	"encoding/json"
	"math"
	"testing"

	"repro/internal/obs"
	"repro/internal/perfsim"
)

// syntheticSweep generates observations from perfsim itself under a known
// coefficient set: the round-trip ground truth (simulate → fit → recover).
func syntheticSweep(t *testing.T, truth *perfsim.Coeffs) *Sweep {
	t.Helper()
	sw := &Sweep{
		Model:   "D3Q19",
		Dims:    [3]int{64, 32, 32},
		Steps:   8,
		Machine: obs.HostInfo(),
	}
	for _, pt := range Points() {
		phases, total, err := PricePoint(sw, pt, truth)
		if err != nil {
			t.Fatalf("synthetic %s: %v", pt.Label, err)
		}
		sw.Obs = append(sw.Obs, Observation{Point: pt, Phases: phases, Total: total})
	}
	return sw
}

func truthCoeffs() *perfsim.Coeffs {
	return &perfsim.Coeffs{
		MemBW:            12e9,
		BWSaturation:     3,
		CopyBW:           20e9,
		LinkBW:           1.3e8,
		Latency:          1.7e-4,
		MsgSW:            5e-5,
		ThreadSerialFrac: 0.04,
		KernelCost:       map[string]float64{"trt": 1.4, "mrt": 1.9},
		FusedAdjust:      1.1,
		AAAdjust:         0.95,
	}
}

// TestFitRoundTrip is the calibration loop's regression anchor: perfsim
// generates a sweep with known machine coefficients, and the fit must
// recover each searched coefficient within 5% (and each closed-form
// kernel cost almost exactly).
func TestFitRoundTrip(t *testing.T) {
	truth := truthCoeffs()
	sw := syntheticSweep(t, truth)
	res, err := Fit(sw)
	if err != nil {
		t.Fatal(err)
	}
	within := func(name string, got, want, tol float64) {
		t.Helper()
		if want == 0 {
			t.Fatalf("%s: zero truth", name)
		}
		if rel := math.Abs(got-want) / want; rel > tol {
			t.Errorf("%s: fitted %g, truth %g (%.1f%% off, want <= %.0f%%)",
				name, got, want, 100*rel, 100*tol)
		}
	}
	c := res.Coeffs
	within("mem_bw", c.MemBW, truth.MemBW, 0.05)
	within("bw_saturation", c.BWSaturation, truth.BWSaturation, 0.05)
	within("copy_bw", c.CopyBW, truth.CopyBW, 0.05)
	within("link_bw", c.LinkBW, truth.LinkBW, 0.05)
	within("latency", c.Latency, truth.Latency, 0.05)
	within("msg_sw", c.MsgSW, truth.MsgSW, 0.05)
	within("thread_serial_frac", c.ThreadSerialFrac, truth.ThreadSerialFrac, 0.05)
	within("kernel_cost[trt]", c.KernelCost["trt"], truth.KernelCost["trt"], 0.02)
	within("kernel_cost[mrt]", c.KernelCost["mrt"], truth.KernelCost["mrt"], 0.02)
	within("fused_adjust", c.FusedAdjust, truth.FusedAdjust, 0.02)
	within("aa_adjust", c.AAAdjust, truth.AAAdjust, 0.02)
	if res.FittedMAPE >= res.SeedMAPE && res.SeedMAPE > 0 {
		t.Errorf("search did not improve: seed MAPE %g, fitted %g", res.SeedMAPE, res.FittedMAPE)
	}
	if res.FittedMAPE > 0.01 {
		t.Errorf("fitted MAPE %g on self-generated data, want ~0", res.FittedMAPE)
	}
	if res.Coeffs.Validate() != nil {
		t.Errorf("fitted coefficients fail validation: %v", res.Coeffs.Validate())
	}
}

// TestFitDeterministic pins the no-wall-clock/no-randomness contract:
// fitting the same sweep twice yields byte-identical results.
func TestFitDeterministic(t *testing.T) {
	sw := syntheticSweep(t, truthCoeffs())
	a, err := Fit(sw)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Fit(sw)
	if err != nil {
		t.Fatal(err)
	}
	ja, _ := json.Marshal(a)
	jb, _ := json.Marshal(b)
	if string(ja) != string(jb) {
		t.Errorf("two fits of one sweep differ:\n%s\n%s", ja, jb)
	}
}

// TestFitBeatsUnfitted: on data the coefficient model can represent, the
// fitted objective must strictly beat the unfitted generic calibration —
// the model Price(…, nil, …) gives a user without a fit file.
func TestFitBeatsUnfitted(t *testing.T) {
	sw := syntheticSweep(t, truthCoeffs())
	res, err := Fit(sw)
	if err != nil {
		t.Fatal(err)
	}
	if res.FittedMAPE >= res.UnfittedMAPE {
		t.Errorf("fitted MAPE %g does not beat unfitted %g", res.FittedMAPE, res.UnfittedMAPE)
	}
}

// TestDefaultThreadSerialFracRoundTrip ties the shipped generic default
// to the fit machinery: a sweep generated at the default value must fit
// back to it within 5%, so the constant can only ever be replaced by a
// value the fit reproduces.
func TestDefaultThreadSerialFracRoundTrip(t *testing.T) {
	truth := truthCoeffs()
	truth.ThreadSerialFrac = perfsim.DefaultThreadSerialFrac
	sw := syntheticSweep(t, truth)
	res, err := Fit(sw)
	if err != nil {
		t.Fatal(err)
	}
	got := res.Coeffs.ThreadSerialFrac
	want := perfsim.DefaultThreadSerialFrac
	if rel := math.Abs(got-want) / want; rel > 0.05 {
		t.Errorf("thread_serial_frac round-trip: fitted %g, default %g (%.1f%% off)",
			got, want, 100*rel)
	}
}

// TestFitGoldenShape is the bridge's contract on a tiny real sweep — what
// `lbmbench -exp fit` writes and CI uploads: every sweep point paired
// with a prediction (positive totals and interior on both sides), finite
// agreement scores, and every top-level key of lbm-fit/v1 present.
func TestFitGoldenShape(t *testing.T) {
	sw, err := Collect("D3Q19", 2)
	if err != nil {
		t.Fatal(err)
	}
	res, err := Fit(sw)
	if err != nil {
		t.Fatal(err)
	}
	if res.Schema != FitSchema {
		t.Errorf("schema = %q, want %q", res.Schema, FitSchema)
	}
	if len(res.Points) != len(Points()) {
		t.Fatalf("%d bridge rows, want one per sweep point (%d)", len(res.Points), len(Points()))
	}
	for i, row := range res.Points {
		if row.Label != Points()[i].Label {
			t.Errorf("row %d is %q, want %q", i, row.Label, Points()[i].Label)
		}
		if row.ObservedTotal <= 0 || row.PredictedTotal <= 0 {
			t.Errorf("%s: totals obs %g / pred %g, want > 0", row.Label, row.ObservedTotal, row.PredictedTotal)
		}
		if row.Observed["interior"] <= 0 || row.Predicted["interior"] <= 0 {
			t.Errorf("%s: interior obs %g / pred %g, want > 0", row.Label, row.Observed["interior"], row.Predicted["interior"])
		}
	}
	scores := map[string]float64{
		"seed": res.SeedMAPE, "fitted": res.FittedMAPE, "unfitted": res.UnfittedMAPE, "total": res.TotalMAPE,
	}
	if len(res.PhaseMAPE) == 0 {
		t.Error("no per-phase MAPE entries")
	}
	for name, v := range res.PhaseMAPE {
		scores["phase "+name] = v
	}
	for name, v := range scores {
		if math.IsNaN(v) || math.IsInf(v, 0) || v < 0 {
			t.Errorf("%s MAPE = %g, want finite and non-negative", name, v)
		}
	}

	blob, err := json.Marshal(res)
	if err != nil {
		t.Fatal(err)
	}
	var m map[string]any
	if err := json.Unmarshal(blob, &m); err != nil {
		t.Fatal(err)
	}
	keys := []string{"schema", "machine", "model", "steps", "coeffs", "seed_mape", "fitted_mape",
		"unfitted_mape", "points", "phase_mape", "total_mape", "pearson_r", "evals"}
	for _, key := range keys {
		if _, ok := m[key]; !ok {
			t.Errorf("fit result missing key %q", key)
		}
	}
	if len(m) != len(keys) {
		t.Errorf("fit result has %d top-level keys, want exactly %v", len(m), keys)
	}
}
