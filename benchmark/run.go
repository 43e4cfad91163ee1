package main

import (
	"bufio"
	"fmt"
	"math"
	"os"
	"runtime"
	"runtime/debug"
	"strconv"
	"strings"
	"time"

	"repro/internal/core"
	"repro/internal/geom"
	"repro/internal/grid"
)

// Tolerances of the correctness checks.
const (
	massDriftTol = 1e-10 // relative drift of the total mass over one op
	fieldTol     = 1e-12 // workload vs reference configuration, fluid cells
	checkSteps   = 6     // steps of the field-equivalence check
	minOps       = 4     // counted ops per run, whatever the time limit
)

// opSample is what one op leaves behind: the duration of the whole
// core.Run call, the stepping time inside it, and the conserved sums.
type opSample struct {
	CallSeconds float64    `json:"call_s"`
	StepSeconds float64    `json:"step_s"`
	Sums        [4]float64 `json:"-"` // mass, momentum x, y, z
	// RefMflups is the reference kernel's rate around this op: the mean of
	// the readings taken just before and just after it.
	RefMflups float64 `json:"ref_mflups,omitempty"`
	Err       string  `json:"err,omitempty"`
}

// setupSeconds is everything core.Run does outside its stepping loop:
// decomposition, field allocation, initial condition, fixup index and
// row-run build, pool and fabric start, final reductions.
func (o opSample) setupSeconds() float64 { return o.CallSeconds - o.StepSeconds }

// releaseMemory collects garbage and hands the freed heap back to the OS.
func releaseMemory() {
	runtime.GC()
	debug.FreeOSMemory()
}

// runOp executes one op and returns its sample and result. The heap is
// released before the clock starts, so every op pays for its own pages and
// none inherits another's garbage.
func runOp(cfg core.Config) (opSample, *core.Result) {
	releaseMemory()
	t0 := time.Now()
	res, err := core.Run(cfg)
	s := opSample{CallSeconds: time.Since(t0).Seconds()}
	if err != nil {
		s.Err = err.Error()
		return s, nil
	}
	s.StepSeconds = res.WallTime.Seconds()
	s.Sums = [4]float64{res.Mass, res.MomX, res.MomY, res.MomZ}
	return s, res
}

// opFailure says why an op does not count as correct, or "" when it does.
// An op fails when the solver reported an error, when its mass is not
// finite or has drifted from the initial mass (the fluid-cell count: every
// workload starts at unit density), or when its conserved sums differ in
// any bit from the first op's — every op of a run solves the same problem.
func opFailure(first, cur opSample, mass0 float64) string {
	if cur.Err != "" {
		return "solver error: " + cur.Err
	}
	mass := cur.Sums[0]
	if math.IsNaN(mass) || math.IsInf(mass, 0) {
		return "mass is not finite"
	}
	if drift := math.Abs(mass-mass0) / mass0; drift > massDriftTol {
		return fmt.Sprintf("mass drifted by %.3g relative", drift)
	}
	for i := range cur.Sums {
		if math.Float64bits(cur.Sums[i]) != math.Float64bits(first.Sums[i]) {
			return fmt.Sprintf("conserved sum %d differs from the first op's", i)
		}
	}
	return ""
}

// fluidMaxAbsDiff is the largest absolute difference between two gathered
// fields over fluid cells only. Solid cells are skipped because they hold
// scratch: the dense sweep writes them, the sparse traversal never does.
func fluidMaxAbsDiff(a, b *grid.Field, solid *geom.Mask) float64 {
	worst := 0.0
	fa, fb := make([]float64, a.Q), make([]float64, b.Q)
	for ix := 0; ix < a.D.NX; ix++ {
		for iy := 0; iy < a.D.NY; iy++ {
			for iz := 0; iz < a.D.NZ; iz++ {
				if solid != nil && solid.At(ix, iy, iz) {
					continue
				}
				a.Cell(ix, iy, iz, fa)
				b.Cell(ix, iy, iz, fb)
				for v := range fa {
					d := math.Abs(fa[v] - fb[v])
					if d > worst || math.IsNaN(d) {
						worst = d
					}
				}
			}
		}
	}
	return worst
}

// fieldCheck runs the workload's configuration and the reference
// configuration for a few steps and compares the gathered fields. It
// returns the two fields' fluid-cell difference and the workload's field
// (the traced run post-processes it).
func fieldCheck(cfg core.Config) (diff float64, field *grid.Field, err error) {
	cfg.Steps, cfg.KeepField = checkSteps, true
	cfg.Observe, cfg.Trace = false, false
	got, err := core.Run(cfg)
	if err != nil {
		return 0, nil, fmt.Errorf("check run: %w", err)
	}
	want, err := core.Run(referenceConfig(cfg))
	if err != nil {
		return 0, nil, fmt.Errorf("reference run: %w", err)
	}
	return fluidMaxAbsDiff(got.Field, want.Field, cfg.Solid), got.Field, nil
}

// countFailures applies opFailure to every sample and, when the field
// check failed, marks every op failed: a run whose field is wrong has no
// correct ops, however fast they were.
func countFailures(samples []opSample, mass0 float64, fieldOK bool) (failed int, reasons []string) {
	for i, s := range samples {
		why := opFailure(samples[0], s, mass0)
		if why == "" && !fieldOK {
			why = "field differs from the reference configuration"
		}
		if why != "" {
			failed++
			reasons = append(reasons, fmt.Sprintf("op %d: %s", i, why))
		}
	}
	return failed, reasons
}

// runResult is the outcome of one untraced run.
type runResult struct {
	Samples   []opSample
	Failed    int
	Reasons   []string
	FieldDiff float64
	Fluid     int
	Metrics   map[string]float64
	// RawMflups and RawSetupS are the two timings as the clock read them,
	// before scaling to the nominal host speed; HostFactor is the mean of
	// the ops' scale factors (1 = the host ran at nominal speed).
	RawMflups, RawSetupS, HostFactor float64
}

// measure is the untraced run: a warm-up op, then ops back to back until
// the time limit, then the peak memory reading, then the field check.
func measure(w *workload, cfg core.Config, limit time.Duration) (*runResult, error) {
	cfg.Steps = w.StepsPerOp
	fluid := core.FluidCells(cfg.N, cfg.Solid)
	if warm, _ := runOp(cfg); warm.Err != "" {
		return nil, fmt.Errorf("warm-up op: %s", warm.Err)
	}
	r := &runResult{Fluid: fluid}
	start := time.Now()
	releaseMemory()
	ref := refReading(workers(cfg))
	for len(r.Samples) < minOps || time.Since(start) < limit {
		s, _ := runOp(cfg)
		// The op's fields are garbage now; they must be gone before the
		// reference allocates, or the two would add up in the peak RSS.
		releaseMemory()
		next := refReading(workers(cfg))
		s.RefMflups, ref = (ref+next)/2, next
		r.Samples = append(r.Samples, s)
	}
	rss, err := peakRSSMB()
	if err != nil {
		return nil, err
	}
	diff, _, err := fieldCheck(cfg)
	if err != nil {
		return nil, err
	}
	r.FieldDiff = diff
	r.Failed, r.Reasons = countFailures(r.Samples, float64(fluid), diff <= fieldTol)

	if err := r.summarize(int64(w.StepsPerOp)*int64(fluid), rss); err != nil {
		return nil, err
	}
	return r, nil
}

// summarize turns the samples into the end-to-end metrics. Both timings
// are taken at the nominal host speed: each op's seconds are scaled by the
// host factor of the reference readings around it, so a stretch in which
// the shared host ran everything at two thirds of its speed does not read
// as a solver that got slower. The unscaled figures are kept beside them.
func (r *runResult) summarize(updatesPerOp int64, rssMB float64) error {
	var updates []int64
	var step, setup, stepRaw, setupRaw, factors []float64
	for _, s := range r.Samples {
		if s.Err != "" {
			continue
		}
		h := hostFactor(s.RefMflups)
		updates = append(updates, updatesPerOp)
		step, stepRaw = append(step, s.StepSeconds*h), append(stepRaw, s.StepSeconds)
		setup, setupRaw = append(setup, s.setupSeconds()*h), append(setupRaw, s.setupSeconds())
		factors = append(factors, h)
	}
	if len(step) == 0 {
		return fmt.Errorf("every op failed: %s", r.Reasons[0])
	}
	r.Metrics = map[string]float64{
		"mflups":      aggregateRate(updates, step),
		"setup_s":     median(setup),
		"peak_rss_mb": rssMB,
	}
	r.RawMflups, r.RawSetupS = aggregateRate(updates, stepRaw), median(setupRaw)
	r.HostFactor = sum(factors) / float64(len(factors))
	return nil
}

// peakRSSMB reads the process's resident-set high-water mark.
func peakRSSMB() (float64, error) {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return 0, err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		fields := strings.Fields(sc.Text())
		if len(fields) >= 2 && fields[0] == "VmHWM:" {
			kb, err := strconv.ParseFloat(fields[1], 64)
			if err != nil {
				return 0, fmt.Errorf("VmHWM: %w", err)
			}
			return kb / 1024, nil
		}
	}
	if err := sc.Err(); err != nil {
		return 0, err
	}
	return 0, fmt.Errorf("no VmHWM line in /proc/self/status")
}
