// Tuning: the closed calibration loop end to end (DESIGN.md §12). The
// demo observes the 12-point calibration sweep with the real solver,
// fits perfsim's machine coefficients to the observed phase vectors
// (reporting the fitted error next to the unfitted generic calibration's
// — the model the tuner would price with had it no fit), then hands the
// fitted model to the auto-tuner on a small arterial scenario: every
// runnable candidate is priced in simulation,
// the predicted top-k are confirmed with short real runs, and the
// measured winner is applied to a longer run against the default
// configuration. `lbmbench -exp fit|tune` and `lbmrun -auto` are the
// production wiring of exactly these calls.
package main

import (
	"fmt"
	"log"
	"runtime"

	"repro/internal/core"
	"repro/internal/geom"
	"repro/internal/grid"
	"repro/internal/lattice"
	"repro/internal/tune"
)

func main() {
	log.SetFlags(0)

	// Observe: run the calibration sweep (thread ladder, blocking and
	// overlapped exchange rungs, kernel holdouts) with per-phase timers.
	fmt.Println("collecting calibration sweep (real runs, instrumented)...")
	sw, err := tune.Collect("D3Q19", 6)
	if err != nil {
		log.Fatal(err)
	}

	// Fit: deterministic coefficient search against the observed phases.
	fit, err := tune.Fit(sw)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nfit (%d model evaluations):\n", fit.Evals)
	fmt.Printf("  mem BW %.2f GB/s  copy BW %.2f GB/s  link BW %.1f MB/s\n",
		fit.Coeffs.MemBW/1e9, fit.Coeffs.CopyBW/1e9, fit.Coeffs.LinkBW/1e6)
	fmt.Printf("  latency %.0f µs  msg SW %.0f µs  serial frac %.4f\n",
		fit.Coeffs.Latency*1e6, fit.Coeffs.MsgSW*1e6, fit.Coeffs.ThreadSerialFrac)
	fmt.Printf("  per-phase MAPE: fitted %.1f%%  vs unfitted %.1f%%\n",
		100*fit.FittedMAPE, 100*fit.UnfittedMAPE)

	// Tune: price the whole candidate space with the fitted model on the
	// bifurcation vessel, confirm the predicted top-3 with real runs.
	d := grid.Dims{NX: 48, NY: 24, NZ: 24}
	s := &tune.Scenario{
		Name:  "example-bifurcation",
		Model: lattice.D3Q19(),
		N:     d,
		Tau:   0.8,
		Solid: geom.Bifurcation(d, 0.1*float64(d.NY)),
	}
	workers := runtime.NumCPU()
	tn, err := tune.Tune(s, &fit.Coeffs, tune.Options{MaxWorkers: workers, ConfirmSteps: 10})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\ntuner: %d candidates priced, top %d confirmed (cache key %s)\n",
		tn.Candidates, len(tn.TopK), tn.Key)
	for _, r := range tn.TopK {
		fmt.Printf("  predicted %8.1f ms  measured %8.1f ms  %v\n",
			1e3*r.PredictedSeconds, 1e3*r.MeasuredSeconds, r.Candidate)
	}

	// Apply: the winning candidate is just execution knobs — the same
	// physics config runs tuned and default.
	run := func(c tune.Candidate) float64 {
		cfg := core.Config{Model: s.Model, N: s.N, Tau: s.Tau, Steps: 40, Solid: s.Solid}
		if err := c.Apply(&cfg); err != nil {
			log.Fatal(err)
		}
		res, err := core.Run(cfg)
		if err != nil {
			log.Fatal(err)
		}
		return res.MFlups
	}
	def := run(tune.DefaultCandidate())
	won := run(tn.Choice)
	fmt.Printf("\n40-step runs: default %.2f MFlup/s → tuned %.2f MFlup/s (%.2fx)\n",
		def, won, won/def)
}
