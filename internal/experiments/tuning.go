package experiments

import (
	"fmt"
	"runtime"

	"repro/internal/core"
	"repro/internal/geom"
	"repro/internal/grid"
	"repro/internal/lattice"
	"repro/internal/perfsim"
	"repro/internal/physics"
	"repro/internal/tune"
)

// The calibration loop, end to end and once: `-exp fit` observes the
// calibration sweep with the real instrumented solver, fits perfsim's
// machine coefficients to it and reports, point by point, what the
// fitted model predicts for the phases it just observed (the
// observe→predict bridge is the fit's own `points` record); `-exp tune`
// searches the execution-config space with that model and confirms the
// short-list against real runs (the local analog of the paper's Tables
// III/IV: model ranking vs measurement), recording the default-vs-tuned
// MFlup/s in lbm-tuned/v1.

// RunFit collects the calibration sweep with the real instrumented
// solver and fits the coefficient model to it.
func RunFit(modelName string, steps int) (*tune.FitResult, error) {
	sw, err := tune.Collect(modelName, steps)
	if err != nil {
		return nil, err
	}
	return tune.Fit(sw)
}

// fitPhaseNames are the bridge's columns, in schedule order.
var fitPhaseNames = []string{"interior", "rim", "pack", "wire", "unpack"}

// FitTable renders a fit result for the terminal: the bridge rows (each
// sweep point's observed seconds over the fitted model's prediction),
// with the coefficients and the agreement scores as notes.
func FitTable(r *tune.FitResult) *Table {
	t := &Table{
		Title: fmt.Sprintf("Closed-loop calibration — %s, %d-step sweep: real runs vs perfsim under the fitted coefficients (seconds, mean across ranks)",
			r.Model, r.Steps),
		Header: append([]string{"point", "", "total"}, fitPhaseNames...),
	}
	row := func(label, kind string, total float64, ph map[string]float64) []string {
		out := []string{label, kind, fmt.Sprintf("%.4f", total)}
		for _, p := range fitPhaseNames {
			out = append(out, fmt.Sprintf("%.4f", ph[p]))
		}
		return out
	}
	for _, pt := range r.Points {
		t.Rows = append(t.Rows,
			row(pt.Label, "obs", pt.ObservedTotal, pt.Observed),
			row("", "pred", pt.PredictedTotal, pt.Predicted))
	}
	c := r.Coeffs
	costs := "cell cost vs split two-grid bgk:"
	for _, k := range []string{"trt", "mrt"} {
		if v, ok := c.KernelCost[k]; ok {
			costs += fmt.Sprintf("  %s %.3f", k, v)
		}
	}
	if c.FusedAdjust > 0 {
		costs += fmt.Sprintf("  fused %.3f", c.FusedAdjust)
	}
	if c.AAAdjust > 0 {
		costs += fmt.Sprintf("  aa %.3f", c.AAAdjust)
	}
	mape := "whole-sweep per-phase MAPE:"
	for _, p := range fitPhaseNames {
		if v, ok := r.PhaseMAPE[p]; ok {
			mape += fmt.Sprintf("  %s %.0f%%", p, 100*v)
		}
	}
	t.Notes = append(t.Notes,
		fmt.Sprintf("fitted: mem_bw %.3f GB/s (saturating at %.2f workers)  copy_bw %.3f GB/s  link_bw %.3f MB/s  latency %.1f µs  msg_sw %.2f µs  thread_serial_frac %.5f",
			c.MemBW/1e9, c.BWSaturation, c.CopyBW/1e9, c.LinkBW/1e6, c.Latency*1e6, c.MsgSW*1e6, c.ThreadSerialFrac),
		costs,
		fmt.Sprintf("objective (duration-weighted phase MAPE): seed %.1f%% → fitted %.1f%%; unfitted generic calibration (no -fit) %.1f%%",
			100*r.SeedMAPE, 100*r.FittedMAPE, 100*r.UnfittedMAPE),
		mape,
		fmt.Sprintf("total MAPE %.0f%%, Pearson r = %.3f on sweep wall times (%d objective evaluations)",
			100*r.TotalMAPE, r.PearsonR, r.Evals),
		fmt.Sprintf("shared wire model: %.0f µs latency + bytes / %.0f MB/s, injected into the real fabric, so link_bw and latency have known targets",
			1e6*tune.WireLatency, tune.WireLinkBW/1e6),
	)
	return t
}

// tuneScenarios is the fixed tuning scenario set, in order: a dense
// bounded cavity and a mostly-solid vascular mask, the two regimes where
// the tuner's wins come from different knobs (threads/protocol vs
// balance/sparse traversal).
var tuneScenarios = []struct {
	name string
	make func(name string) (*tune.Scenario, error)
}{
	{"cavity64", func(name string) (*tune.Scenario, error) {
		var cfg core.Config
		if err := (physics.CavityConfig{L: 64, NZ: 64, Re: 100}).Configure(&cfg); err != nil {
			return nil, err
		}
		return tune.NewScenario(name, &cfg), nil
	}},
	{"bifurcation96", func(name string) (*tune.Scenario, error) {
		m := lattice.D3Q19()
		n := grid.Dims{NX: 96, NY: 48, NZ: 48}
		return &tune.Scenario{
			Name: name, Model: m, N: n, Tau: 0.8,
			Solid: geom.Bifurcation(n, 0.1*float64(n.NY)),
		}, nil
	}},
}

// TuneScenarioNames lists the tuning scenarios' names in order.
func TuneScenarioNames() []string {
	names := make([]string, len(tuneScenarios))
	for i, s := range tuneScenarios {
		names[i] = s.name
	}
	return names
}

// TuneScenario resolves a named tuning scenario.
func TuneScenario(name string) (*tune.Scenario, error) {
	for _, s := range tuneScenarios {
		if s.name == name {
			return s.make(name)
		}
	}
	return nil, fmt.Errorf("experiments: unknown tuning scenario %q (have %v)", name, TuneScenarioNames())
}

// RunTune auto-tunes one scenario: price the candidate space with the
// fitted coefficients (nil falls back to the uncalibrated envelope),
// confirm the top-k with short real runs, return the winner.
func RunTune(scenarioName string, coeffs *perfsim.Coeffs, workers, topK, confirmSteps int) (*tune.Tuned, error) {
	s, err := TuneScenario(scenarioName)
	if err != nil {
		return nil, err
	}
	if workers <= 0 {
		workers = runtime.NumCPU()
	}
	return tune.Tune(s, coeffs, tune.Options{
		MaxWorkers: workers, TopK: topK, ConfirmSteps: confirmSteps,
	})
}

// candLabel compresses a candidate into one table cell.
func candLabel(c tune.Candidate) string {
	s := fmt.Sprintf("%s r%d %dx%dx%d t%d d%d,%d,%d %s",
		c.Opt, c.Ranks, c.Decomp[0], c.Decomp[1], c.Decomp[2], c.Threads,
		c.Depth[0], c.Depth[1], c.Depth[2], c.Stream)
	if c.Kernel != "bgk" {
		s += " " + c.Kernel
	}
	if c.Balance != "" {
		s += " " + c.Balance
	}
	if c.Sparse {
		s += " sparse"
	}
	return s
}

// TuneTable renders the tuner's predicted-vs-measured short-list.
func TuneTable(tn *tune.Tuned) *Table {
	t := &Table{
		Title: fmt.Sprintf("Auto-tune — %s (%s, %dx%dx%d, %d workers): predicted vs measured",
			tn.Scenario, tn.Model, tn.N[0], tn.N[1], tn.N[2], tn.MaxWorkers),
		Header: []string{"candidate", "pred s", "meas s", "MFlup/s"},
	}
	for _, r := range tn.TopK {
		mark := ""
		if r.Candidate == tn.Choice {
			mark = " *"
		}
		t.Rows = append(t.Rows, []string{
			candLabel(r.Candidate) + mark,
			fmt.Sprintf("%.4f", r.PredictedSeconds),
			fmt.Sprintf("%.4f", r.MeasuredSeconds),
			fmt.Sprintf("%.2f", r.MeasuredMFlups),
		})
	}
	t.Rows = append(t.Rows, []string{
		candLabel(tune.DefaultCandidate()) + " (default)",
		"", fmt.Sprintf("%.4f", tn.BaselineSeconds), fmt.Sprintf("%.2f", tn.BaselineMFlups),
	})
	speedup := 0.0
	if tn.BaselineMFlups > 0 {
		speedup = tn.MeasuredMFlups / tn.BaselineMFlups
	}
	t.Notes = append(t.Notes,
		fmt.Sprintf("%d candidates priced, top %d confirmed with real runs; * = winner (%.2fx the default's MFlup/s)",
			tn.Candidates, len(tn.TopK), speedup),
		fmt.Sprintf("cache key %s (machine + scenario + size + geometry + worker budget)", tn.Key),
	)
	return t
}
