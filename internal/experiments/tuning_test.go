package experiments

import (
	"strings"
	"testing"

	"repro/internal/tune"
)

// TestFitTableRendersBridge: the fit's terminal rendering is the bridge
// report — an observed and a predicted row per sweep point, and the
// per-phase MAPE and fitted-vs-unfitted notes.
func TestFitTableRendersBridge(t *testing.T) {
	ph := map[string]float64{"interior": 0.02, "rim": 0.004, "pack": 0.001, "wire": 0.003, "unpack": 0.001}
	r := &tune.FitResult{
		Model: "D3Q19", Steps: 2,
		FittedMAPE: 0.2, UnfittedMAPE: 0.6,
		PhaseMAPE: map[string]float64{"interior": 0.1, "wire": 0.3},
	}
	for _, pt := range tune.Points() {
		r.Points = append(r.Points, tune.FitPoint{
			Label: pt.Label, Observed: ph, Predicted: ph, ObservedTotal: 0.03, PredictedTotal: 0.029,
		})
	}
	text := FitTable(r).Render()
	for _, kind := range []string{"obs", "pred"} {
		if got := strings.Count(text, "  "+kind+" "); got != len(r.Points) {
			t.Errorf("rendered table has %d %s rows, want %d", got, kind, len(r.Points))
		}
	}
	for _, want := range []string{"per-phase MAPE", "interior 10%", "fitted 20.0%", "unfitted generic calibration (no -fit) 60.0%"} {
		if !strings.Contains(text, want) {
			t.Errorf("rendered table lacks %q:\n%s", want, text)
		}
	}
}

// TestTuneScenarios: the registry's scenarios must enumerate non-empty,
// solver-accepted candidate spaces (sampled via the default candidate).
func TestTuneScenarios(t *testing.T) {
	for _, name := range TuneScenarioNames() {
		s, err := TuneScenario(name)
		if err != nil {
			t.Fatal(err)
		}
		cands := tune.Enumerate(s, tune.DefaultSpace(4))
		if len(cands) == 0 {
			t.Errorf("%s: empty candidate space", name)
		}
		if _, err := tune.DefaultCandidate().Config(s, 1); err != nil {
			t.Errorf("%s: default candidate rejected: %v", name, err)
		}
	}
	if _, err := TuneScenario("nope"); err == nil {
		t.Error("unknown scenario should error")
	}
}
