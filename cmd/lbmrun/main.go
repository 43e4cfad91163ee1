// Command lbmrun executes one lattice Boltzmann simulation with the real
// kernels on the local machine and reports the paper's metrics: MFlup/s,
// wall time, per-rank communication balance and conservation checksums.
// The flow setup comes from the scenario registry (internal/scenario):
// wave, cavity, channel — plus voxel geometry files via -geom.
//
// Examples:
//
//	lbmrun -model d3q39 -nx 48 -ny 24 -nz 24 -steps 100 -ranks 4 -threads 2 -opt SIMD -depth 2
//	lbmrun -scenario cavity -nx 48 -ny 48 -nz 2 -re 100 -steps 8000 -decomp 2d -ranks 4
//	lbmrun -scenario cavity -nx 64 -ny 64 -nz 2 -re 1000 -collision trt -threads 4
//	lbmrun -scenario channel -d 16 -re 100 -ranks 2
//	lbmrun -scenario wave -geom mask.csv -steps 500
package main

import (
	"flag"
	"fmt"
	"log"
	"math"
	"os"
	"runtime"
	"strings"

	"repro/internal/collision"
	"repro/internal/core"
	"repro/internal/decomp"
	"repro/internal/grid"
	"repro/internal/lattice"
	"repro/internal/macro"
	"repro/internal/obs"
	"repro/internal/output"
	"repro/internal/perfsim"
	"repro/internal/scenario"
	"repro/internal/tune"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("lbmrun: ")

	var (
		modelName = flag.String("model", "D3Q19", "velocity model: D3Q19 or D3Q39")
		nx        = flag.Int("nx", 64, "global lattice points in x (decomposed dimension)")
		ny        = flag.Int("ny", 32, "global lattice points in y")
		nz        = flag.Int("nz", 32, "global lattice points in z")
		steps     = flag.Int("steps", 100, "time steps")
		tau       = flag.Float64("tau", 0.8, "BGK relaxation time (> 0.5)")
		optName   = flag.String("opt", "SIMD", "optimization level: "+levelNames()+" (GC-C stepped by the fused gather sweep: one read + one write of the field per step, bit-identical)")
		ranks     = flag.Int("ranks", 1, "message-passing ranks")
		decompF   = flag.String("decomp", "1d", "domain decomposition: 1d (slab), 2d (pencil), 3d (block), or explicit PxxPyxPz (e.g. 2x2x2, product = -ranks); every level but Orig, -stream aa included, runs on every shape")
		threads   = flag.Int("threads", 1, "worker threads per rank (0 = runtime.NumCPU()/ranks, floor 1)")
		depth     = flag.String("depth", "1", "ghost-cell depth: one value (exchange every depth steps) or per-axis dx,dy,dz (e.g. 2,1,1; an axis without ghosts ignores its entry); -stream aa rounds each up to even")
		stream    = flag.String("stream", "twogrid", "streaming storage: twogrid (separate advected field) or aa (in-place AA pattern, half the f-memory; needs a GC level)")
		amplitude = flag.Float64("amplitude", 0.02, "initial perturbation amplitude")
		scen      = flag.String("scenario", "wave", scenario.Usage())
		re        = flag.Float64("re", 100, "Reynolds number (cavity: lidU*NY/nu; channel: Umean*D/nu)")
		lidU      = flag.Float64("lidu", 0.1, "cavity scenario: lid speed in lattice units")
		uMean     = flag.Float64("umean", 0.08, "channel scenario: mean inflow speed in lattice units")
		diam      = flag.Int("d", 16, "channel scenario: cylinder diameter in cells (sets the domain 22Dx4.1D; the Re=100 wake needs >= 16)")
		geomPath  = flag.String("geom", "", "voxel mask file (.csv or .raw): obstacles for wave, replaces the cylinder for channel")
		balanceF  = flag.String("balance", "volume", "cut-plane placement: volume (equal extents) or fluid (equal fluid cells per rank, needs a mask)")
		sparse    = flag.Bool("sparse", false, "sparse row-run traversal: kernels visit fluid z-runs only (needs a mask; wins on mostly-solid domains)")
		collide   = flag.String("collision", "bgk", "collision operator: bgk (the paper's kernels), trt or mrt (stable toward tau=0.5 / high Re)")
		magic     = flag.Float64("magic", 0, "TRT magic parameter Lambda (0 = the default 1/4)")
		mrtRates  = flag.String("mrt-rates", "", "MRT ghost-moment rates by order, comma-separated from order 3 (empty = magic-paired defaults)")
		auto      = flag.Bool("auto", false, "auto-tune the execution config: load a cached tuned config for this scenario/geometry/machine, or search the config space (pricing with -fit coefficients when given), then run with the winner — overrides -opt/-ranks/-decomp/-threads/-depth/-stream/-balance/-sparse")
		tunedF    = flag.String("tuned", "", "tuned-config cache file for -auto (default lbm-tuned-<key>.json; stale keys force a re-tune)")
		fitFlag   = flag.String("fit", "", "fitted coefficients file (lbm-fit/v1, from lbmbench -exp fit) for -auto candidate pricing")
		out       = flag.String("out", "", "write the final macroscopic fields to this file (.vtk or .csv)")
		observe   = flag.Bool("observe", false, "record the per-phase breakdown (step timers in every stepper path) and print it")
		reportF   = flag.String("report", "", "write a structured run report (JSON) to this file; implies -observe")
		traceF    = flag.String("trace", "", "write a Chrome trace-event timeline (JSON, open in chrome://tracing or Perfetto) to this file; implies -observe")
		cpuProf   = flag.String("cpuprofile", "", "write a CPU profile of the run to this file")
		memProf   = flag.String("memprofile", "", "write a heap profile (post-run) to this file")
	)
	flag.Parse()

	model, err := lattice.ByName(*modelName)
	if err != nil {
		log.Fatal(err)
	}
	opt, err := core.ParseOptLevel(*optName)
	if err != nil {
		log.Fatal(err)
	}
	scheme, err := core.ParseStreamScheme(*stream)
	if err != nil {
		log.Fatal(err)
	}

	kind, err := collision.ParseKind(*collide)
	if err != nil {
		log.Fatal(err)
	}
	rates, err := collision.ParseRates(*mrtRates)
	if err != nil {
		log.Fatal(err)
	}
	// Pass the parameters through unconditionally: Spec.Validate rejects
	// e.g. -magic on bgk/mrt or -mrt-rates on bgk/trt with a real message
	// instead of silently ignoring the flag.
	colSpec := collision.Spec{Kind: kind, Magic: *magic, GhostRates: rates}
	if err := colSpec.Validate(); err != nil {
		log.Fatal(err)
	}

	n := grid.Dims{NX: *nx, NY: *ny, NZ: *nz}
	dec, err := decomp.ParseShape(*decompF, *ranks, [3]int{n.NX, n.NY, n.NZ})
	if err != nil {
		log.Fatal(err)
	}
	nthreads, err := core.ResolveThreads(*threads, *ranks)
	if err != nil {
		log.Fatal(err)
	}
	depthUniform, depthAxes, err := core.ParseGhostDepth(*depth)
	if err != nil {
		log.Fatal(err)
	}
	balance, err := core.ParseBalance(*balanceF)
	if err != nil {
		log.Fatal(err)
	}

	sc, err := scenario.Get(*scen)
	if err != nil {
		log.Fatal(err)
	}
	params := scenario.Params{
		Model: model, N: n, Amplitude: *amplitude,
		Re: *re, LidU: *lidU, UMean: *uMean, D: *diam,
		GeomPath: *geomPath,
	}
	flag.Visit(func(f *flag.Flag) {
		switch f.Name {
		case "steps":
			params.StepsSet = true
		case "collision":
			params.CollisionSet = true
		}
	})

	cfg := core.Config{
		Model: model, N: n, Tau: *tau, Steps: *steps,
		Opt: opt, Ranks: *ranks, Decomp: dec.P, Threads: nthreads,
		GhostDepth: depthUniform, GhostDepthAxes: depthAxes,
		Collision: colSpec, Stream: scheme,
		Balance: balance, Sparse: *sparse,
		KeepField: *out != "",
		Observe:   *observe || *reportF != "" || *traceF != "",
		Trace:     *traceF != "",
	}
	if err := sc.Configure(&params, &cfg); err != nil {
		log.Fatal(err)
	}
	if *auto {
		if err := autoTune(&cfg, sc.Name, *tunedF, *fitFlag); err != nil {
			log.Fatal(err)
		}
	} else if *tunedF != "" || *fitFlag != "" {
		log.Fatal("-tuned/-fit apply to -auto runs only")
	}
	stopProf, err := obs.StartProfiles(*cpuProf, *memProf)
	if err != nil {
		log.Fatal(err)
	}
	res, err := core.Run(cfg)
	if perr := stopProf(); err == nil {
		err = perr
	}
	if err != nil {
		log.Fatal(err)
	}

	n = cfg.N // scenarios with intrinsic geometry override the domain
	fluid := core.FluidCells(n, cfg.Solid)
	fmt.Printf("model        %s (Q=%d, c_s^2=%.4f, k=%d)\n", model.Name, model.Q, model.CsSq, model.MaxSpeed)
	fmt.Printf("scenario     %s\n", sc.Name)
	fmt.Printf("domain       %s  (%d fluid cells)\n", n, fluid)
	dep := core.ReportConfig(&cfg).Depth // what the run stepped with: -stream aa rounds up to even
	fmt.Printf("config       opt=%s ranks=%d decomp=%dx%dx%d balance=%s sparse=%v threads=%d depth=%d,%d,%d fused=%v stream=%s collision=%s tau=%.4f\n",
		cfg.Opt, cfg.Ranks, cfg.Decomp[0], cfg.Decomp[1], cfg.Decomp[2], cfg.Balance, cfg.Sparse, cfg.Threads, dep[0], dep[1], dep[2], cfg.GatherSweep(), cfg.Stream, cfg.Collision, cfg.Tau)
	fmt.Printf("steps        %d\n", cfg.Steps)
	fmt.Printf("vector       %s (the SIMD rung's row bodies on this host)\n", core.VectorBodies())
	if hb := res.HaloAxisBytes; hb != [3]int64{} {
		fmt.Printf("halo surface %.1f KB/rank/exchange (x %.1f, y %.1f, z %.1f)\n",
			float64(hb[0]+hb[1]+hb[2])/1024, float64(hb[0])/1024, float64(hb[1])/1024, float64(hb[2])/1024)
	}
	var fieldMax, fieldSum int64
	for _, rs := range res.PerRank {
		fieldMax = max(fieldMax, rs.FieldBytes)
		fieldSum += rs.FieldBytes
	}
	fmt.Printf("field memory %.1f MB/rank max, %.1f MB total\n", float64(fieldMax)/(1<<20), float64(fieldSum)/(1<<20))
	fmt.Printf("wall time    %v\n", res.WallTime)
	fmt.Printf("performance  %.2f MFlup/s\n", res.MFlups)
	fmt.Printf("ghost work   %d extra cell updates (%.2f%% of interior)\n",
		res.GhostUpdates, 100*float64(res.GhostUpdates)/float64(res.InteriorUpdates))
	s := res.CommSummary()
	fmt.Printf("comm (s)     min %.4f  median %.4f  max %.4f  mean %.4f\n", s.Min, s.Median, s.Max, s.Mean)
	fmt.Printf("mass         %.10f (per cell %.10f)\n", res.Mass, res.Mass/float64(fluid))
	fmt.Printf("momentum     (%.3e, %.3e, %.3e)\n", res.MomX, res.MomY, res.MomZ)

	var rep *obs.Report
	if cfg.Observe {
		rep = core.NewReport(&cfg, res)
		rep.Config.Scenario = sc.Name
		if fs := rep.FluidCells; fs != nil {
			imb := 1.0
			if fs.Min > 0 {
				imb = fs.Max / fs.Min
			}
			fmt.Printf("fluid/rank   min %.0f  median %.0f  max %.0f  (imbalance %.2fx)\n",
				fs.Min, fs.Median, fs.Max, imb)
		}
		if ws := rep.WorkerWeights; ws != nil {
			fmt.Printf("chunk weight min %.0f  median %.0f  max %.0f per worker (%d workers)\n",
				ws.Min, ws.Median, ws.Max, ws.N)
		}
		fmt.Println("phases (s/rank, spread across ranks)")
		for _, ps := range rep.Phases {
			name := ps.Phase
			if ps.Axis != obs.NoAxis {
				name = fmt.Sprintf("%s[%c]", ps.Phase, "xyz"[ps.Axis])
			}
			fmt.Printf("  %-11s min %.4f  median %.4f  max %.4f  mean %.4f  (%d spans)\n",
				name, ps.Seconds.Min, ps.Seconds.Median, ps.Seconds.Max, ps.Seconds.Mean, ps.Count)
		}
	}

	if math.IsNaN(res.Mass) {
		log.Println("simulation diverged (NaN mass): reduce amplitude or increase tau")
		os.Exit(1)
	}

	if sc.Report != nil {
		for _, line := range sc.Report(&params, &cfg, res) {
			fmt.Println(line)
		}
	}

	if *reportF != "" {
		f, err := os.Create(*reportF)
		if err != nil {
			log.Fatal(err)
		}
		if err := obs.WriteReport(f, rep); err != nil {
			log.Fatal(err)
		}
		f.Close()
		fmt.Printf("report       written to %s\n", *reportF)
	}
	if *traceF != "" {
		f, err := os.Create(*traceF)
		if err != nil {
			log.Fatal(err)
		}
		if err := obs.WriteTrace(f, res.Observations); err != nil {
			log.Fatal(err)
		}
		f.Close()
		fmt.Printf("trace        written to %s\n", *traceF)
	}

	if *out != "" {
		if err := writeFields(*out, model, res); err != nil {
			log.Fatal(err)
		}
		fmt.Printf("fields       written to %s\n", *out)
	}
}

// autoTune replaces the config's execution knobs with the auto-tuner's
// choice for this scenario: a cached tuned config if its key matches
// (same scenario, geometry, size, machine and worker budget), otherwise a
// fresh search — priced with fitted coefficients when a fit file is given
// — whose winner is cached for the next run.
func autoTune(cfg *core.Config, scenName, tunedPath, fitPath string) error {
	s := tune.NewScenario(scenName, cfg)
	workers := runtime.NumCPU()
	key := tune.CacheKey(s, workers)
	if tunedPath == "" {
		tunedPath = fmt.Sprintf("lbm-tuned-%s.json", key)
	}
	tn, err := tune.LoadCached(tunedPath, key)
	if err != nil {
		return err
	}
	if tn == nil {
		var coeffs *perfsim.Coeffs
		if fitPath != "" {
			fr, err := tune.LoadFit(fitPath)
			if err != nil {
				return err
			}
			coeffs = &fr.Coeffs
		}
		fmt.Printf("auto-tune    searching (no cached config at %s)...\n", tunedPath)
		tn, err = tune.Tune(s, coeffs, tune.Options{MaxWorkers: workers})
		if err != nil {
			return err
		}
		if err := tune.SaveTuned(tunedPath, tn); err != nil {
			return err
		}
		fmt.Printf("auto-tune    %d candidates priced, winner cached to %s\n", tn.Candidates, tunedPath)
	} else {
		fmt.Printf("auto-tune    cached config %s (key %s)\n", tunedPath, key)
	}
	return tn.Choice.Apply(cfg)
}

// writeFields exports the final macroscopic state in the format implied by
// the file extension.
func writeFields(path string, model *lattice.Model, res *core.Result) error {
	fields := macro.Compute(model, res.Field, [3]float64{})
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer f.Close()
	switch {
	case strings.HasSuffix(path, ".vtk"):
		return output.WriteVTK(f, "lbmrun", fields)
	case strings.HasSuffix(path, ".csv"):
		return output.WriteCSV(f, fields)
	}
	return fmt.Errorf("unknown output format %q (want .vtk or .csv)", path)
}

// levelNames lists the rungs of the ladder, as -opt spells them.
func levelNames() string {
	var names []string
	for _, l := range core.Levels() {
		names = append(names, l.String())
	}
	return strings.Join(names, ", ")
}
