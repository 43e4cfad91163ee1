// Command lbmbench regenerates the paper's tables and figures.
//
// By default an experiment is produced at paper scale via the perfsim
// discrete-event simulator over the Blue Gene machine models; with -real
// the corresponding real-kernel experiment runs on the local machine
// instead (fig8, fig9, fig10, fig11 only).
//
// Examples:
//
//	lbmbench -exp table2
//	lbmbench -exp fig8 -machine bgq
//	lbmbench -exp fig8 -real -model d3q39
//	lbmbench -exp fig8 -real -collision trt
//	lbmbench -exp collision
//	lbmbench -exp fit -steps 10 -json fit.json
//	lbmbench -exp tune -fit fit.json -scenario cavity64 -json tuned.json
//	lbmbench -exp all
//
// -exp fit is the whole observe→fit→predict loop: it runs the calibration
// sweep on the real kernels, fits perfsim's coefficients, and prints (and
// with -json records, as lbm-fit/v1 `points`) each sweep point's observed
// phases beside the fitted model's prediction. -exp tune prices with that
// file; without -fit it prices with the unfitted generic calibration.
package main

import (
	"flag"
	"fmt"
	"log"
	"os"
	"runtime"
	"runtime/pprof"

	"repro/internal/collision"
	"repro/internal/core"
	"repro/internal/experiments"
	"repro/internal/perfsim"
	"repro/internal/tune"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("lbmbench: ")

	var (
		exp      = flag.String("exp", "all", "experiment: table1, table2, fig8, fig9, fig10, table3, table4, fig11, decomp, collision, threads, balance, fit, tune, or all")
		machine  = flag.String("machine", "bgp", "machine for fig8/fig9/fig11/decomp: bgp or bgq")
		real     = flag.Bool("real", false, "run the real kernels locally instead of the paper-scale simulator (threads and balance are real-only)")
		model    = flag.String("model", "D3Q19", "model for -real and collision experiments")
		ranks    = flag.Int("ranks", 4, "ranks for -real experiments")
		threads  = flag.Int("threads", 1, "worker threads per rank for -real experiments; for -exp threads the top of the sweep (0 = runtime.NumCPU()/ranks, floor 1)")
		steps    = flag.Int("steps", 30, "steps for -real experiments")
		decomp   = flag.String("decomp", "1d", "decomposition for -real experiments: 1d, 2d, 3d or PxxPyxPz")
		depth    = flag.String("depth", "1", "ghost-cell depth for -real fig8/fig9/fig11: one value or per-axis dx,dy,dz (fig10 sweeps depth itself)")
		collide  = flag.String("collision", "bgk", "collision operator for -real experiments: bgk, trt or mrt")
		magic    = flag.Float64("magic", 0, "TRT magic parameter Lambda for -real experiments (0 = 1/4)")
		mrtRates = flag.String("mrt-rates", "", "MRT ghost rates by order for -real experiments (comma-separated from order 3)")
		stream   = flag.String("stream", "twogrid", "streaming storage for -real fig8/fig9/fig10/fig11: twogrid (separate advected field) or aa (in-place AA pattern, half the f-memory)")
		fitF     = flag.String("fit", "", "for -exp tune: fitted coefficients file (lbm-fit/v1, from -exp fit) to price candidates with, instead of the unfitted generic calibration")
		jsonF    = flag.String("json", "", "for -exp fit/tune: write the structured result (JSON) to this file")
		scenF    = flag.String("scenario", "", "for -exp tune: tuning scenario (default: all of them; required with -json)")
		workers  = flag.Int("workers", 0, "for -exp tune: worker budget ranks*threads (0 = runtime.NumCPU())")
		topK     = flag.Int("topk", 3, "for -exp tune: predicted-best candidates confirmed with real runs")
		gateMAPE = flag.Float64("gate-mape", 0, "for -exp fit: exit non-zero if the fitted objective MAPE exceeds this fraction, or does not beat the unfitted generic calibration's (fitted < unfitted)")
		gateR    = flag.Float64("gate-pearson", 0, "for -exp fit: exit non-zero if the whole-sweep Pearson r on wall times falls below this")
		cpuProf  = flag.String("cpuprofile", "", "write a CPU profile of the run to this file")
		memProf  = flag.String("memprofile", "", "write a heap profile (post-run) to this file")
	)
	flag.Parse()

	if *cpuProf != "" {
		f, err := os.Create(*cpuProf)
		if err != nil {
			log.Fatal(err)
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			log.Fatal(err)
		}
		defer pprof.StopCPUProfile()
	}
	if *memProf != "" {
		defer func() {
			f, err := os.Create(*memProf)
			if err != nil {
				log.Fatal(err)
			}
			runtime.GC()
			if err := pprof.WriteHeapProfile(f); err != nil {
				log.Fatal(err)
			}
			f.Close()
		}()
	}

	kind, err := collision.ParseKind(*collide)
	if err != nil {
		log.Fatal(err)
	}
	rates, err := collision.ParseRates(*mrtRates)
	if err != nil {
		log.Fatal(err)
	}
	// Validate eagerly so flag misuse (e.g. -magic with bgk) fails with a
	// message instead of being silently dropped.
	colSpec := collision.Spec{Kind: kind, Magic: *magic, GhostRates: rates}
	if err := colSpec.Validate(); err != nil {
		log.Fatal(err)
	}
	// The perfsim experiments model BGK kernels and the collision table
	// sweeps its own operator list: a non-default collision spec only
	// applies to -real runs, so reject it elsewhere rather than silently
	// producing output that ignores the flags.
	if !*real && (!colSpec.IsBGK() || *magic != 0 || rates != nil) {
		log.Fatalf("-collision/-magic/-mrt-rates apply to -real experiments only (got -exp %s without -real)", *exp)
	}

	if !*real && *depth != "1" {
		log.Fatalf("-depth applies to -real experiments only (got -exp %s without -real)", *exp)
	}
	scheme, err := core.ParseStreamScheme(*stream)
	if err != nil {
		log.Fatal(err)
	}
	if !*real && scheme != core.StreamTwoGrid {
		log.Fatalf("-stream applies to -real experiments only (got -exp %s without -real)", *exp)
	}
	tuningExp := *exp == "fit" || *exp == "tune"
	if *fitF != "" && *exp != "tune" {
		log.Fatalf("-fit applies to -exp tune (got -exp %s)", *exp)
	}
	if *jsonF != "" && !tuningExp {
		log.Fatalf("-json applies to -exp fit/tune (got -exp %s)", *exp)
	}
	if tuningExp && *real {
		log.Fatalf("-exp %s already runs the real kernels; drop -real", *exp)
	}
	// The calibration loop: -fit loads fitted coefficients (lbm-fit/v1)
	// and tune prices with them instead of the unfitted calibration.
	var coeffs *perfsim.Coeffs
	if *fitF != "" {
		fr, err := tune.LoadFit(*fitF)
		if err != nil {
			log.Fatal(err)
		}
		coeffs = &fr.Coeffs
	}
	switch *exp {
	case "fit":
		res, err := experiments.RunFit(*model, *steps)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Println(experiments.FitTable(res).Render())
		if *jsonF != "" {
			if err := tune.SaveFit(*jsonF, res); err != nil {
				log.Fatal(err)
			}
			fmt.Printf("fit written to %s\n", *jsonF)
		}
		if *gateMAPE > 0 {
			if res.FittedMAPE > *gateMAPE {
				log.Fatalf("calibration gate: fitted MAPE %.1f%% exceeds the %.1f%% gate",
					100*res.FittedMAPE, 100**gateMAPE)
			}
			if res.FittedMAPE >= res.UnfittedMAPE {
				log.Fatalf("calibration gate: fitted MAPE %.2f%% does not beat the unfitted generic calibration's %.2f%%",
					100*res.FittedMAPE, 100*res.UnfittedMAPE)
			}
		}
		if *gateR > 0 && res.PearsonR < *gateR {
			log.Fatalf("calibration gate: Pearson r %.3f below the %.3f gate", res.PearsonR, *gateR)
		}
		return
	case "tune":
		names := experiments.TuneScenarioNames()
		if *scenF != "" {
			names = []string{*scenF}
		} else if *jsonF != "" {
			log.Fatal("-json with -exp tune needs -scenario (one tuned config per file)")
		}
		for _, name := range names {
			tn, err := experiments.RunTune(name, coeffs, *workers, *topK, *steps)
			if err != nil {
				log.Fatal(err)
			}
			fmt.Println(experiments.TuneTable(tn).Render())
			if *jsonF != "" {
				if err := tune.SaveTuned(*jsonF, tn); err != nil {
					log.Fatal(err)
				}
				fmt.Printf("tuned config written to %s\n", *jsonF)
			}
		}
		return
	}
	if *real {
		nthreads, err := core.ResolveThreads(*threads, *ranks)
		if err != nil {
			log.Fatal(err)
		}
		tb, err := realExperiment(*exp, *model, *ranks, nthreads, *steps, *decomp, *depth, colSpec, scheme)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Println(tb.Render())
		return
	}
	if *threads != 1 {
		log.Fatalf("-threads applies to -real experiments only (got -exp %s without -real)", *exp)
	}
	if *exp == "collision" {
		// The collision comparison always runs the real kernels; honor the
		// -model flag directly.
		tb, err := experiments.CollisionTable(*model)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Println(tb.Render())
		return
	}

	var tables []*experiments.Table
	if *exp == "all" {
		tables, err = experiments.GenerateAll()
	} else {
		tables, err = experiments.Generate(*exp, *machine)
	}
	if err != nil {
		log.Fatal(err)
	}
	for _, t := range tables {
		fmt.Println(t.Render())
	}
}

func realExperiment(exp, model string, ranks, threads, steps int, decomp, depth string, colSpec collision.Spec, stream core.StreamScheme) (*experiments.Table, error) {
	switch exp {
	case "fig8":
		return experiments.RealFig8(model, ranks, threads, steps, decomp, depth, colSpec, stream)
	case "fig9":
		return experiments.RealFig9(model, ranks, threads, steps, decomp, depth, colSpec, stream)
	case "fig10":
		if depth != "1" {
			return nil, fmt.Errorf("fig10 sweeps ghost depth itself; drop -depth")
		}
		return experiments.RealFig10(model, ranks, threads, steps, decomp, colSpec, stream)
	case "fig11":
		return experiments.RealFig11(model, steps, decomp, depth, colSpec, stream)
	case "collision":
		return experiments.CollisionTable(model)
	case "threads":
		if stream != core.StreamTwoGrid {
			return nil, fmt.Errorf("threads sweeps the two-grid kernels; drop -stream")
		}
		return experiments.RealThreads(model, threads, steps, colSpec)
	case "balance":
		if stream != core.StreamTwoGrid {
			return nil, fmt.Errorf("balance sweeps cut policy and traversal on the two-grid kernels; drop -stream")
		}
		return experiments.RealBalance(model, ranks, threads, steps)
	}
	return nil, fmt.Errorf("-real supports fig8, fig9, fig10, fig11, collision, threads, balance (got %q)", exp)
}
