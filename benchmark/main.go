// Command benchmark is the repository's measuring instrument: four solver
// workloads, three end-to-end metrics and a set of per-layer numbers taken
// from outside the solver, by timing calls into its exported functions.
//
//	benchmark -workload <name> -seed <n> [-seconds s] [-out file.json]
//	benchmark -workload <name> -seed <n> -trace 1 [-spans file.json]
//	benchmark -compare a.json... -- b.json...
//
// README.md in this directory explains the workloads, the metrics and how
// they interact; BENCHMARK.json at the repository root names them.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"time"
)

// recordSchema identifies the layout of the files -out writes.
const recordSchema = "lbm-benchmark/v1"

// metricValue is one reported number with its unit.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// record is everything one run leaves behind, so files from different
// commits can be compared without rerunning anything.
type record struct {
	Schema     string   `json:"schema"`
	Workload   string   `json:"workload"`
	Seed       uint64   `json:"seed"`
	Traced     bool     `json:"traced"`
	Seconds    float64  `json:"seconds"`
	StepsPerOp int      `json:"steps_per_op"`
	FluidCells int      `json:"fluid_cells"`
	Ops        int      `json:"ops"`
	OpsFailed  int      `json:"ops_failed"`
	Failures   []string `json:"failures,omitempty"`
	FieldDiff  float64  `json:"field_diff"`
	// RawMflups and RawSetupS are an untraced run's two timings as the
	// clock read them; the metrics are the same scaled to the nominal host
	// speed by HostFactor (mean over ops; 1 = nominal, below 1 = slower).
	RawMflups  float64                `json:"raw_mflups,omitempty"`
	RawSetupS  float64                `json:"raw_setup_s,omitempty"`
	HostFactor float64                `json:"host_factor,omitempty"`
	Correct    bool                   `json:"correct"`
	Noisy      bool                   `json:"noisy"`
	Host       hostBlock              `json:"host"`
	Metrics    map[string]metricValue `json:"metrics"`
	Samples    []opSample             `json:"samples,omitempty"`
}

// resultLine is the last line of standard output: the contract between
// this command and whatever drives it.
type resultLine struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	fs := flag.NewFlagSet("benchmark", flag.ContinueOnError)
	name := fs.String("workload", "", "workload to run (see -list)")
	seed := fs.Uint64("seed", 1, "seed of the initial fields; geometry and step counts never depend on it")
	seconds := fs.Float64("seconds", 20, "how long the op loop measures")
	trace := fs.Int("trace", 0, "1 = the traced run that produces the per-layer metrics, 0 = the end-to-end run")
	out := fs.String("out", "", "also write the full run record (JSON) to this file")
	spans := fs.String("spans", "", "traced run: write the spans (Chrome trace events) here; default .bench_build/spans-<workload>.json")
	compare := fs.Bool("compare", false, "compare two sets of run records, or print the spread of one: -compare a.json... [-- b.json...]")
	list := fs.Bool("list", false, "list the workloads and metrics, then exit")
	if err := fs.Parse(args); err != nil {
		return err
	}
	switch {
	case *list:
		printCatalog()
		return nil
	case *compare:
		return compareCommand(fs.Args())
	}
	w := workloadByName(*name)
	if w == nil {
		return fmt.Errorf("unknown workload %q (have %v)", *name, workloadNames())
	}
	if *seconds <= 0 {
		return fmt.Errorf("-seconds must be positive, got %g", *seconds)
	}
	// Two workers at most (ranks × threads) on every workload; pinning the
	// scheduler to two keeps runs on larger hosts comparable.
	runtime.GOMAXPROCS(2)

	rec := &record{
		Schema: recordSchema, Workload: w.Name, Seed: *seed, Traced: *trace != 0,
		Seconds: *seconds, StepsPerOp: w.StepsPerOp, Host: newHostBlock(),
		Metrics: map[string]metricValue{},
	}
	cfg := w.config(w.dims(false), *seed)
	limit := time.Duration(*seconds * float64(time.Second))
	var defs []metricDef
	spansPath := *spans
	if rec.Traced {
		if spansPath == "" {
			spansPath = filepath.Join(".bench_build", "spans-"+w.Name+".json")
		}
		if err := tracedRun(w, cfg, limit, rec, spansPath); err != nil {
			return err
		}
		defs = perLayer
	} else {
		r, err := measure(w, cfg, limit)
		if err != nil {
			return err
		}
		rec.fill(r)
		defs = endToEnd
	}
	if err := rec.setMetrics(defs); err != nil {
		return err
	}
	rec.print(defs)
	if rec.Traced {
		fmt.Println("spans written to", spansPath)
	}
	if *out != "" {
		if err := writeJSON(*out, rec); err != nil {
			return err
		}
	}
	line, err := json.Marshal(resultLine{
		Correct: rec.Correct, Attempted: rec.Ops, Failed: rec.OpsFailed, Metrics: rec.Metrics,
	})
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	return nil
}

// fill copies an op loop's outcome into the record.
func (rec *record) fill(r *runResult) {
	rec.FluidCells = r.Fluid
	rec.Ops, rec.OpsFailed = len(r.Samples), r.Failed
	rec.Failures = r.Reasons
	rec.FieldDiff = r.FieldDiff
	rec.RawMflups, rec.RawSetupS, rec.HostFactor = r.RawMflups, r.RawSetupS, r.HostFactor
	rec.Correct = r.Failed == 0
	rec.Samples = r.Samples
	for k, v := range r.Metrics {
		rec.Metrics[k] = metricValue{Value: v}
	}
}

// setMetrics attaches units and insists that the run produced exactly the
// metrics its kind promises: a missing or a stray name is a bug here, not
// something to paper over in the output.
func (rec *record) setMetrics(defs []metricDef) error {
	if len(rec.Metrics) != len(defs) {
		return fmt.Errorf("run produced %d metrics, want %d", len(rec.Metrics), len(defs))
	}
	for _, d := range defs {
		m, ok := rec.Metrics[d.Name]
		if !ok {
			return fmt.Errorf("run did not produce metric %s", d.Name)
		}
		m.Unit = d.Unit
		rec.Metrics[d.Name] = m
	}
	return nil
}

func (rec *record) print(defs []metricDef) {
	fmt.Printf("workload %s  seed %d  traced %v\n", rec.Workload, rec.Seed, rec.Traced)
	fmt.Printf("ops %d  ops_failed %d  fluid_cells %d  steps_per_op %d  field_diff %.3g\n",
		rec.Ops, rec.OpsFailed, rec.FluidCells, rec.StepsPerOp, rec.FieldDiff)
	h := rec.Host
	fmt.Printf("host nproc %d  GOMAXPROCS %d  %s  git %s  llc_mib %.0f\n",
		h.NProc, h.GOMAXPROCS, h.GoVersion, h.GitSHA, h.LLCMiB)
	if !rec.Traced {
		fmt.Printf("host factor %.4f (reference kernel at %.3g of its nominal %g MFlup/s); unscaled: mflups %.6g  setup_s %.6g\n",
			rec.HostFactor, rec.HostFactor, refNominal, rec.RawMflups, rec.RawSetupS)
	} else {
		fmt.Printf("probe array_mib %.0f  spin_ns before %.4f after %.4f  noisy %v\n",
			h.ArrayMiB, h.SpinBeforeNS, h.SpinAfterNS, rec.Noisy)
	}
	for _, why := range rec.Failures {
		fmt.Println("FAILED", why)
	}
	for _, d := range defs {
		fmt.Printf("%-28s %14.6g %s\n", d.Name, rec.Metrics[d.Name].Value, d.Unit)
	}
}

func writeJSON(path string, v any) error {
	b, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	if dir := filepath.Dir(path); dir != "." {
		if err := os.MkdirAll(dir, 0o755); err != nil {
			return err
		}
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}

func workloadNames() []string {
	var names []string
	for _, w := range workloads {
		names = append(names, w.Name)
	}
	return names
}

func printCatalog() {
	fmt.Println("workloads:")
	for _, w := range workloads {
		fmt.Printf("  %-20s %d steps/op  %s\n", w.Name, w.StepsPerOp, w.Why)
	}
	fmt.Println("end-to-end metrics (-trace 0):")
	for _, d := range endToEnd {
		fmt.Printf("  %-28s %-8s better %-6s bound %.2f\n", d.Name, d.Unit, d.Better, d.Bound)
	}
	fmt.Println("per-layer metrics (-trace 1):")
	for _, d := range perLayer {
		fmt.Printf("  %-28s %-8s better %s\n", d.Name, d.Unit, d.Better)
	}
}
