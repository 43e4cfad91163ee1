package main

import (
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"os"
	"slices"
)

// errRegressed makes -compare exit non-zero when any metric regressed.
var errRegressed = errors.New("at least one metric regressed")

// Verdicts of one comparison.
const (
	verdictOK         = "ok"
	verdictRegressed  = "regressed"
	verdictUnresolved = "unresolved"
)

// comparison is one (workload, metric) row: set A is the base, set B the
// candidate.
type comparison struct {
	Workload, Metric, Unit string
	A, B                   []float64
	Bound                  float64
	Worsening              float64 // relative change of the median, positive = worse
	Spread                 float64 // wider of the two interquartile distances over A's median
	Verdict                string
}

// judge compares two sets of one metric. The candidate has regressed when
// its median is worse than the base's by more than the bound. When the
// spread of either set is wider than the bound and the sets overlap, the
// data cannot tell a regression from noise and the row is unresolved —
// never "ok".
func judge(a, b []float64, better string, bound float64) (worsening, spread float64, verdict string) {
	_, ma, _ := quartiles(a)
	_, mb, _ := quartiles(b)
	worsening = (mb - ma) / math.Abs(ma)
	if better == "higher" {
		worsening = -worsening
	}
	spread = math.Max(relSpread(a), relSpread(b))
	switch {
	case spread > bound && overlap(a, b):
		verdict = verdictUnresolved
	case worsening > bound:
		verdict = verdictRegressed
	default:
		verdict = verdictOK
	}
	return worsening, spread, verdict
}

// overlap reports whether the ranges of two samples intersect.
func overlap(a, b []float64) bool {
	return slices.Min(a) <= slices.Max(b) && slices.Min(b) <= slices.Max(a)
}

// compareSets groups both sets' records by workload and judges every
// end-to-end metric that both sets measured. Traced records contribute
// their per-layer metrics as unjudged rows (Bound 0, verdict empty): they
// say where a difference comes from, not whether it is one.
func compareSets(a, b []*record) []comparison {
	collect := func(recs []*record) map[string]map[string][]float64 {
		out := map[string]map[string][]float64{}
		for _, r := range recs {
			if out[r.Workload] == nil {
				out[r.Workload] = map[string][]float64{}
			}
			for name, m := range r.Metrics {
				out[r.Workload][name] = append(out[r.Workload][name], m.Value)
			}
		}
		return out
	}
	va, vb := collect(a), collect(b)
	var rows []comparison
	for _, w := range workloads {
		for _, defs := range [][]metricDef{endToEnd, perLayer} {
			for _, d := range defs {
				xa, xb := va[w.Name][d.Name], vb[w.Name][d.Name]
				if len(xa) == 0 || len(xb) == 0 {
					continue
				}
				c := comparison{Workload: w.Name, Metric: d.Name, Unit: d.Unit, A: xa, B: xb, Bound: d.Bound}
				c.Worsening, c.Spread, c.Verdict = judge(xa, xb, d.Better, d.Bound)
				if d.Bound == 0 {
					c.Verdict = ""
				}
				rows = append(rows, c)
			}
		}
	}
	return rows
}

func printComparison(rows []comparison) {
	fmt.Printf("%-20s %-26s %-8s %34s %34s %9s %7s %7s  %s\n",
		"workload", "metric", "unit", "A: q1 / median / q3 (n)", "B: q1 / median / q3 (n)",
		"worsening", "spread", "bound", "verdict")
	for _, c := range rows {
		a1, a2, a3 := quartiles(c.A)
		b1, b2, b3 := quartiles(c.B)
		fmt.Printf("%-20s %-26s %-8s %34s %34s %+8.2f%% %6.2f%% %6.0f%%  %s\n",
			c.Workload, c.Metric, c.Unit,
			fmt.Sprintf("%.5g / %.5g / %.5g (%d)", a1, a2, a3, len(c.A)),
			fmt.Sprintf("%.5g / %.5g / %.5g (%d)", b1, b2, b3, len(c.B)),
			100*c.Worsening, 100*c.Spread, 100*c.Bound, c.Verdict)
	}
}

// printSpread is -compare over one set: per workload and end-to-end
// metric, the quartiles of the set and its spread against the bound — the
// table that says whether the benchmark is steady enough on a host for its
// bounds to mean anything.
func printSpread(recs []*record) {
	fmt.Printf("%-20s %-12s %-8s %38s %7s %7s  %s\n",
		"workload", "metric", "unit", "q1 / median / q3 (n)", "spread", "bound", "within a third of the bound")
	for _, w := range workloads {
		for _, d := range endToEnd {
			var xs []float64
			for _, r := range recs {
				if m, ok := r.Metrics[d.Name]; ok && r.Workload == w.Name {
					xs = append(xs, m.Value)
				}
			}
			if len(xs) == 0 {
				continue
			}
			q1, q2, q3 := quartiles(xs)
			spread := relSpread(xs)
			fmt.Printf("%-20s %-12s %-8s %38s %6.2f%% %6.0f%%  %v\n", w.Name, d.Name, d.Unit,
				fmt.Sprintf("%.5g / %.5g / %.5g (%d)", q1, q2, q3, len(xs)), 100*spread, 100*d.Bound, spread <= d.Bound/3)
		}
	}
}

// compareCommand implements -compare a.json... -- b.json...; without the
// separator it prints the spread of the one set it is given.
func compareCommand(args []string) error {
	split := -1
	for i, a := range args {
		if a == "--" {
			split = i
			break
		}
	}
	if split == -1 && len(args) > 0 {
		recs, err := loadRecords(args)
		if err != nil {
			return err
		}
		printSpread(recs)
		return nil
	}
	if split <= 0 || split == len(args)-1 {
		return fmt.Errorf("usage: -compare a.json... -- b.json...   or   -compare a.json...")
	}
	a, err := loadRecords(args[:split])
	if err != nil {
		return err
	}
	b, err := loadRecords(args[split+1:])
	if err != nil {
		return err
	}
	rows := compareSets(a, b)
	if len(rows) == 0 {
		return fmt.Errorf("the two sets share no workload and metric")
	}
	printComparison(rows)
	traced, noisyRuns, failedOps := 0, 0, 0
	for _, r := range append(a, b...) {
		if r.Traced {
			traced++
		}
		if r.Noisy {
			noisyRuns++
		}
		failedOps += r.OpsFailed
	}
	fmt.Printf("traced runs flagged noisy: %d of %d   failed ops over all runs: %d\n", noisyRuns, traced, failedOps)
	for _, c := range rows {
		if c.Verdict == verdictRegressed {
			return errRegressed
		}
	}
	return nil
}

func loadRecords(paths []string) ([]*record, error) {
	var recs []*record
	for _, p := range paths {
		b, err := os.ReadFile(p)
		if err != nil {
			return nil, err
		}
		var r record
		if err := json.Unmarshal(b, &r); err != nil {
			return nil, fmt.Errorf("%s: %w", p, err)
		}
		if r.Schema != recordSchema {
			return nil, fmt.Errorf("%s: schema %q, want %q", p, r.Schema, recordSchema)
		}
		if workloadByName(r.Workload) == nil {
			return nil, fmt.Errorf("%s: unknown workload %q", p, r.Workload)
		}
		recs = append(recs, &r)
	}
	return recs, nil
}
