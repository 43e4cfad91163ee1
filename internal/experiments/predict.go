package experiments

import (
	"fmt"
	"math"
	"time"

	"repro/internal/comm"
	"repro/internal/core"
	"repro/internal/lattice"
	"repro/internal/machine"
	"repro/internal/metrics"
	"repro/internal/obs"
	"repro/internal/perfsim"
	"repro/internal/tune"
)

// The observe→predict bridge: run the real instrumented solver across a
// small protocol sweep, run perfsim on a "local" machine model over the
// same jobs, and score the per-phase agreement. This is the observation
// half of ROADMAP direction 3's calibration loop; the closed-loop fit
// (internal/tune) searches the coefficient space until the phases match,
// and a fitted coefficient set replaces the bridge's one-point bandwidth
// anchor when the caller passes one.
//
// Both worlds share one wire model: the real runs install a fabric
// DelayFunc of latency + bytes/linkBW with the tune package's constants,
// and the simulated machine carries the same numbers, so the comparison
// isolates the schedule and roofline models rather than the interconnect
// guess.
const (
	predictLatency = tune.WireLatency
	predictLinkBW  = tune.WireLinkBW
)

// predictPhases are the phases scored by the bridge — the ones perfsim's
// schedule decomposition predicts (fixup/face/sponge/force are zero in the
// periodic sweep).
var predictPhases = []obs.Phase{obs.Interior, obs.Rim, obs.Pack, obs.Wire, obs.Unpack}

// predictMachine is the "local" machine model: bandwidth anchored by the
// observe pass, a flop roofline high enough to never bind (the kernels
// here are bandwidth-limited, §III.C), and the shared wire constants.
func predictMachine(memBW float64) machine.Machine {
	return machine.Machine{
		Name:            "local",
		MemBWBytes:      memBW,
		PeakFlops:       1e15,
		TorusLinkBytes:  predictLinkBW,
		TorusLinks:      12,
		LinkLatency:     predictLatency,
		CoresPerNode:    1,
		ThreadsPerCore:  1,
		MemPerNodeBytes: 1 << 40,
	}
}

// PredictRow pairs one job's observed and predicted per-phase breakdowns
// (seconds, mean across ranks; totals are wall seconds).
type PredictRow struct {
	Label          string             `json:"label"`
	Observed       map[string]float64 `json:"observed"`
	Predicted      map[string]float64 `json:"predicted"`
	ObservedTotal  float64            `json:"observed_total"`
	PredictedTotal float64            `json:"predicted_total"`
}

// PredictReport is the structured output of the bridge.
type PredictReport struct {
	Schema  string          `json:"schema"`
	Machine obs.MachineInfo `json:"machine"`
	Model   string          `json:"model"`
	Steps   int             `json:"steps"`
	// MemBWAnchor is the calibrated memory bandwidth (bytes/s): the one
	// free parameter of the anchored fallback, fit to the first job's
	// interior phase. Zero when the prediction ran with fitted
	// coefficients instead.
	MemBWAnchor float64 `json:"mem_bw_anchor,omitempty"`
	// Fitted is true when the prediction used a fitted coefficient set
	// (lbm-fit/v1) instead of the one-point anchor.
	Fitted    bool               `json:"fitted,omitempty"`
	Jobs      []PredictRow       `json:"jobs"`
	PhaseMAPE map[string]float64 `json:"phase_mape"`
	TotalMAPE float64            `json:"total_mape"`
	PearsonR  float64            `json:"pearson_r"`
}

// PredictSchema identifies the report's JSON shape.
const PredictSchema = "lbm-predict/v1"

// predictJob is one sweep point, run identically in both worlds.
type predictJob struct {
	label  string
	opt    core.OptLevel
	ranks  int
	decomp [3]int
	depth  int
}

func predictJobs() []predictJob {
	return []predictJob{
		{"slab GC blocking d1 r2", core.OptGC, 2, [3]int{2, 1, 1}, 1},
		{"slab NB-C d1 r2", core.OptNBC, 2, [3]int{2, 1, 1}, 1},
		{"slab GC-C d2 r2", core.OptGCC, 2, [3]int{2, 1, 1}, 2},
		{"pencil GC-C d1 r4", core.OptGCC, 4, [3]int{2, 2, 1}, 1},
	}
}

// Predict runs the observe→predict bridge and scores the agreement. A
// non-nil coeffs prices the sweep with the fitted coefficient model; nil
// falls back to the one-point memory-bandwidth anchor (the pre-fit
// behavior, kept reachable for comparison and for hosts without a fit).
func Predict(modelName string, steps int, coeffs *perfsim.Coeffs) (*PredictReport, error) {
	m, err := lattice.ByName(modelName)
	if err != nil {
		return nil, err
	}
	n := realDims(m)
	jobs := predictJobs()
	delay := func(src, dst, bytes int) time.Duration {
		return time.Duration((predictLatency + float64(bytes)/predictLinkBW) * float64(time.Second))
	}

	// Observe pass: the real solver, instrumented, with the shared wire
	// model injected into the fabric.
	observed := make([]obs.PhaseSeconds, len(jobs))
	obsTotals := make([]float64, len(jobs))
	for i, jb := range jobs {
		res, err := core.Run(core.Config{
			Model: m, N: n, Tau: 0.8, Steps: steps,
			Opt: jb.opt, Ranks: jb.ranks, Decomp: jb.decomp, Threads: 1,
			GhostDepth: jb.depth,
			Observe:    true,
			Fabric:     comm.NewFabric(jb.ranks).WithDelay(delay),
		})
		if err != nil {
			return nil, fmt.Errorf("predict: %s: %w", jb.label, err)
		}
		observed[i] = obs.MeanPhases(obs.Vectors(res.Observations))
		obsTotals[i] = res.WallTime.Seconds()
	}

	// Predict pass: perfsim over the same jobs. With fitted coefficients
	// the model is fully specified; otherwise the memory bandwidth is the
	// one anchored parameter — fit so the first job's predicted interior
	// matches its observed interior (prediction scales as 1/B_m with the
	// flop roofline out of play), then held fixed for the sweep.
	const memBW0 = 8e9
	memBW := 0.0
	if coeffs == nil {
		p0, err := predictOne(m, jobs[0], steps, memBW0, nil)
		if err != nil {
			return nil, err
		}
		memBW = memBW0
		if o := observed[0][obs.Interior]; o > 0 && p0.phases[obs.Interior] > 0 {
			memBW = memBW0 * p0.phases[obs.Interior] / o
		}
	}
	// The fitted path still needs a valid machine envelope (flop roofline,
	// validation bounds); its bandwidth fields are inert under Coeffs.
	envBW := memBW
	if coeffs != nil {
		envBW = memBW0
	}
	predicted := make([]obs.PhaseSeconds, len(jobs))
	predTotals := make([]float64, len(jobs))
	for i, jb := range jobs {
		p, err := predictOne(m, jb, steps, envBW, coeffs)
		if err != nil {
			return nil, err
		}
		predicted[i] = p.phases
		predTotals[i] = p.total
	}

	rep := &PredictReport{
		Schema:      PredictSchema,
		Machine:     obs.HostInfo(),
		Model:       m.Name,
		Steps:       steps,
		MemBWAnchor: memBW,
		Fitted:      coeffs != nil,
		PhaseMAPE:   map[string]float64{},
		TotalMAPE:   metrics.MAPE(obsTotals, predTotals),
		PearsonR:    metrics.Pearson(obsTotals, predTotals),
	}
	for i, jb := range jobs {
		row := PredictRow{
			Label:          jb.label,
			Observed:       map[string]float64{},
			Predicted:      map[string]float64{},
			ObservedTotal:  obsTotals[i],
			PredictedTotal: predTotals[i],
		}
		for _, p := range predictPhases {
			row.Observed[p.String()] = observed[i][p]
			row.Predicted[p.String()] = predicted[i][p]
		}
		rep.Jobs = append(rep.Jobs, row)
	}
	for _, p := range predictPhases {
		ov := make([]float64, len(jobs))
		pv := make([]float64, len(jobs))
		for i := range jobs {
			ov[i], pv[i] = observed[i][p], predicted[i][p]
		}
		if mape := metrics.MAPE(ov, pv); !math.IsNaN(mape) {
			rep.PhaseMAPE[p.String()] = mape
		}
	}
	return rep, nil
}

type predictSim struct {
	phases obs.PhaseSeconds
	total  float64
}

func predictOne(m *lattice.Model, jb predictJob, steps int, memBW float64, coeffs *perfsim.Coeffs) (predictSim, error) {
	dims := realDims(m)
	res, err := perfsim.Run(perfsim.Job{
		Machine: predictMachine(memBW),
		Spec:    machine.SpecForQ(m.Q),
		K:       m.MaxSpeed,
		Nodes:   jb.ranks, TasksPerNode: 1, ThreadsPerTask: 1,
		NX: dims.NX, NY: dims.NY, NZ: dims.NZ,
		Decomp: jb.decomp,
		Steps:  steps,
		Depth:  jb.depth,
		Opt:    jb.opt,
		Seed:   1,
		Coeffs: coeffs,
	})
	if err != nil {
		return predictSim{}, fmt.Errorf("predict: %s: %w", jb.label, err)
	}
	return predictSim{phases: obs.MeanPhases(res.RankPhases), total: res.Seconds}, nil
}

// Table renders the report for the terminal.
func (r *PredictReport) Table() *Table {
	t := &Table{
		Title: fmt.Sprintf("Observe→predict bridge — %s, %d steps, real runs vs perfsim %q machine (seconds, mean across ranks)",
			r.Model, r.Steps, "local"),
		Header: []string{"job", "", "total", "interior", "rim", "pack", "wire", "unpack"},
	}
	row := func(label, kind string, total float64, ph map[string]float64) []string {
		out := []string{label, kind, fmt.Sprintf("%.4f", total)}
		for _, p := range predictPhases {
			out = append(out, fmt.Sprintf("%.4f", ph[p.String()]))
		}
		return out
	}
	for _, jb := range r.Jobs {
		t.Rows = append(t.Rows,
			row(jb.Label, "obs", jb.ObservedTotal, jb.Observed),
			row("", "pred", jb.PredictedTotal, jb.Predicted))
	}
	mape := "per-phase MAPE:"
	for _, p := range predictPhases {
		if v, ok := r.PhaseMAPE[p.String()]; ok {
			mape += fmt.Sprintf("  %s %.0f%%", p, 100*v)
		}
	}
	calib := fmt.Sprintf("memory bandwidth anchored on the first job's interior phase (B_m = %.2f GB/s); pass a fitted coefficient set (-fit, from `lbmbench -exp fit`) for the closed-loop calibration", r.MemBWAnchor/1e9)
	if r.Fitted {
		calib = "priced with fitted coefficients (lbm-fit/v1) — the closed-loop calibration of ROADMAP direction 3"
	}
	t.Notes = append(t.Notes,
		mape,
		fmt.Sprintf("total MAPE %.0f%%, Pearson r = %.3f on job totals", 100*r.TotalMAPE, r.PearsonR),
		calib,
		fmt.Sprintf("shared wire model: %.0f µs latency + bytes / %.0f MB/s, injected into the real fabric and the simulated machine alike", 1e6*predictLatency, predictLinkBW/1e6),
	)
	return t
}
