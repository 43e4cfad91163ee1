// Command lbmbench regenerates the paper's tables and figures.
//
// By default an experiment is produced at paper scale via the perfsim
// discrete-event simulator over the Blue Gene machine models; with -real
// the corresponding real-kernel experiment runs on the local machine
// instead (fig8, fig9, fig10, fig11, collision, threads and balance;
// threads and balance are real-only, and collision runs the real kernels
// either way). -real honours -ranks, -threads, -steps, -decomp, -depth,
// -collision/-magic/-mrt-rates and -stream where the experiment uses them;
// one that sweeps or fixes a flag itself (fig10 the depth, fig11 ranks and
// threads, collision all of them) fails with "drop -flag" when it is given,
// at any value, its default included.
//
// Examples:
//
//	lbmbench -exp table2
//	lbmbench -exp fig8 -machine bgq
//	lbmbench -exp fig8 -real -model d3q39
//	lbmbench -exp fig8 -real -collision trt
//	lbmbench -exp fig9 -real -stream aa
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
	"strings"

	"repro/internal/collision"
	"repro/internal/core"
	"repro/internal/experiments"
	"repro/internal/obs"
	"repro/internal/perfsim"
	"repro/internal/tune"
)

var (
	exp      = flag.String("exp", "all", "experiment: "+expNames(func(experiments.Experiment) bool { return true }, ", ")+", fit, tune, or all")
	machine  = flag.String("machine", "bgp", "machine for "+expNames(func(e experiments.Experiment) bool { return e.Machines != nil }, "/")+": bgp or bgq")
	real     = flag.Bool("real", false, "run the real kernels locally instead of the paper-scale simulator ("+expNames(func(e experiments.Experiment) bool { return e.Paper == nil }, " and ")+" are real-only)")
	model    = flag.String("model", "D3Q19", "model for -real and "+expNames(func(e experiments.Experiment) bool { return e.Local }, "/")+" experiments")
	ranks    = flag.Int("ranks", experiments.DefaultRanks, "ranks for -real experiments")
	threads  = flag.Int("threads", experiments.DefaultThreads, "worker threads per rank for -real experiments; for -exp threads the top of the sweep (0 = runtime.NumCPU()/ranks, floor 1)")
	steps    = flag.Int("steps", experiments.DefaultSteps, "steps for -real experiments")
	decomp   = flag.String("decomp", experiments.DefaultDecomp, "decomposition for -real experiments: 1d, 2d, 3d or PxxPyxPz")
	depth    = flag.String("depth", experiments.DefaultDepth, "ghost-cell depth for -real experiments: one value or per-axis dx,dy,dz (fig10 sweeps depth itself)")
	collide  = flag.String("collision", "bgk", "collision operator for -real experiments: bgk, trt or mrt")
	magic    = flag.Float64("magic", 0, "TRT magic parameter Lambda for -real experiments (0 = 1/4)")
	mrtRates = flag.String("mrt-rates", "", "MRT ghost rates by order for -real experiments (comma-separated from order 3)")
	stream   = flag.String("stream", "twogrid", "streaming storage for -real experiments: twogrid (separate advected field) or aa (in-place AA pattern, half the f-memory)")
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

// expNames joins the names of the listed experiments that keep selects.
func expNames(keep func(experiments.Experiment) bool, sep string) string {
	var out []string
	for _, e := range experiments.List() {
		if keep(e) {
			out = append(out, e.Name)
		}
	}
	return strings.Join(out, sep)
}

func main() {
	log.SetFlags(0)
	log.SetPrefix("lbmbench: ")
	flag.Parse()

	stopProf, err := obs.StartProfiles(*cpuProf, *memProf)
	if err != nil {
		log.Fatal(err)
	}
	err = run()
	if perr := stopProf(); err == nil {
		err = perr
	}
	if err != nil {
		log.Fatal(err)
	}
}

func run() error {
	kind, err := collision.ParseKind(*collide)
	if err != nil {
		return err
	}
	rates, err := collision.ParseRates(*mrtRates)
	if err != nil {
		return err
	}
	// Validate eagerly so flag misuse (e.g. -magic with bgk) fails with a
	// message instead of being silently dropped.
	colSpec := collision.Spec{Kind: kind, Magic: *magic, GhostRates: rates}
	if err := colSpec.Validate(); err != nil {
		return err
	}
	// The perfsim experiments model BGK kernels and the collision table
	// sweeps its own operator list: a non-default collision spec only
	// applies to -real runs, so reject it elsewhere rather than silently
	// producing output that ignores the flags.
	if !*real && (!colSpec.IsBGK() || *magic != 0 || rates != nil) {
		return fmt.Errorf("-collision/-magic/-mrt-rates apply to -real experiments only (got -exp %s without -real)", *exp)
	}

	if !*real && *depth != experiments.DefaultDepth {
		return fmt.Errorf("-depth applies to -real experiments only (got -exp %s without -real)", *exp)
	}
	scheme, err := core.ParseStreamScheme(*stream)
	if err != nil {
		return err
	}
	if !*real && scheme != core.StreamTwoGrid {
		return fmt.Errorf("-stream applies to -real experiments only (got -exp %s without -real)", *exp)
	}
	tuningExp := *exp == "fit" || *exp == "tune"
	if *fitF != "" && *exp != "tune" {
		return fmt.Errorf("-fit applies to -exp tune (got -exp %s)", *exp)
	}
	if *jsonF != "" && !tuningExp {
		return fmt.Errorf("-json applies to -exp fit/tune (got -exp %s)", *exp)
	}
	if tuningExp && *real {
		return fmt.Errorf("-exp %s already runs the real kernels; drop -real", *exp)
	}
	switch *exp {
	case "fit":
		return fit()
	case "tune":
		return tuneScenarios()
	}
	if !*real && *threads != experiments.DefaultThreads {
		return fmt.Errorf("-threads applies to -real experiments only (got -exp %s without -real)", *exp)
	}
	var tables []*experiments.Table
	switch e, _ := experiments.Lookup(*exp); {
	case *real || e.Local:
		if e.Real == nil {
			return fmt.Errorf("-real supports %s (got %q)", expNames(func(e experiments.Experiment) bool { return e.Real != nil }, ", "), *exp)
		}
		var given []string
		flag.Visit(func(f *flag.Flag) { given = append(given, f.Name) })
		r, err := experiments.NewRun(*model, *ranks, *threads, *steps, *decomp, *depth, colSpec, scheme, given)
		if err != nil {
			return err
		}
		tb, err := e.Real(r)
		if err != nil {
			return err
		}
		tables = []*experiments.Table{tb}
	case *exp == "all":
		tables, err = experiments.GenerateAll()
	default:
		tables, err = experiments.Generate(*exp, *machine)
	}
	if err != nil {
		return err
	}
	for _, t := range tables {
		fmt.Println(t.Render())
	}
	return nil
}

// fit runs the calibration sweep, fits perfsim's coefficients and applies
// the -gate-* gates.
func fit() error {
	res, err := experiments.RunFit(*model, *steps)
	if err != nil {
		return err
	}
	fmt.Println(experiments.FitTable(res).Render())
	if *jsonF != "" {
		if err := tune.SaveFit(*jsonF, res); err != nil {
			return err
		}
		fmt.Printf("fit written to %s\n", *jsonF)
	}
	if *gateMAPE > 0 {
		if res.FittedMAPE > *gateMAPE {
			return fmt.Errorf("calibration gate: fitted MAPE %.1f%% exceeds the %.1f%% gate",
				100*res.FittedMAPE, 100**gateMAPE)
		}
		if res.FittedMAPE >= res.UnfittedMAPE {
			return fmt.Errorf("calibration gate: fitted MAPE %.2f%% does not beat the unfitted generic calibration's %.2f%%",
				100*res.FittedMAPE, 100*res.UnfittedMAPE)
		}
	}
	if *gateR > 0 && res.PearsonR < *gateR {
		return fmt.Errorf("calibration gate: Pearson r %.3f below the %.3f gate", res.PearsonR, *gateR)
	}
	return nil
}

// tuneScenarios tunes each -scenario (default: all of them), pricing with
// the -fit coefficients (lbm-fit/v1) when given instead of the unfitted
// calibration.
func tuneScenarios() error {
	var coeffs *perfsim.Coeffs
	if *fitF != "" {
		fr, err := tune.LoadFit(*fitF)
		if err != nil {
			return err
		}
		coeffs = &fr.Coeffs
	}
	names := experiments.TuneScenarioNames()
	if *scenF != "" {
		names = []string{*scenF}
	} else if *jsonF != "" {
		return fmt.Errorf("-json with -exp tune needs -scenario (one tuned config per file)")
	}
	for _, name := range names {
		tn, err := experiments.RunTune(name, coeffs, *workers, *topK, *steps)
		if err != nil {
			return err
		}
		fmt.Println(experiments.TuneTable(tn).Render())
		if *jsonF != "" {
			if err := tune.SaveTuned(*jsonF, tn); err != nil {
				return err
			}
			fmt.Printf("tuned config written to %s\n", *jsonF)
		}
	}
	return nil
}
