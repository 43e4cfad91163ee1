package obs

import (
	"encoding/json"
	"io"
	"runtime"

	"repro/internal/metrics"
)

// ReportSchema identifies the structured run-report JSON layout; bump on
// any breaking change (CI's golden-shape tests pin the current value).
const ReportSchema = "lbm-report/v1"

// MachineInfo identifies the host a run executed on.
type MachineInfo struct {
	OS        string `json:"os"`
	Arch      string `json:"arch"`
	CPUs      int    `json:"cpus"`
	GoVersion string `json:"go_version"`
}

// HostInfo describes the local machine.
func HostInfo() MachineInfo {
	return MachineInfo{
		OS:        runtime.GOOS,
		Arch:      runtime.GOARCH,
		CPUs:      runtime.NumCPU(),
		GoVersion: runtime.Version(),
	}
}

// RunConfig echoes the solver configuration a report describes. It is a
// plain-value mirror of core.Config (obs cannot import core).
type RunConfig struct {
	Model     string `json:"model"`
	NX        int    `json:"nx"`
	NY        int    `json:"ny"`
	NZ        int    `json:"nz"`
	Steps     int    `json:"steps"`
	Opt       string `json:"opt"`
	Collision string `json:"collision"`
	Stream    string `json:"stream"`
	Layout    string `json:"layout"`
	Fused     bool   `json:"fused"` // the step ran as the gather sweep: SIMD rung, Fused or AA
	Ranks     int    `json:"ranks"`
	Decomp    [3]int `json:"decomp"`
	Threads   int    `json:"threads"`
	Depth     [3]int `json:"depth"`
	Balance   string `json:"balance,omitempty"`
	Sparse    bool   `json:"sparse,omitempty"`
	Scenario  string `json:"scenario,omitempty"`
}

// Spread is an order-statistic summary across ranks (the paper's Fig. 9
// min/median/max view, plus the mean).
type Spread struct {
	Min    float64 `json:"min"`
	Median float64 `json:"median"`
	Max    float64 `json:"max"`
	Mean   float64 `json:"mean"`
	N      int     `json:"n"`
}

func spreadOf(s metrics.Summary) Spread {
	return Spread{Min: s.Min, Median: s.Median, Max: s.Max, Mean: s.Mean, N: s.N}
}

// PhaseSummary is one (phase, axis) row of the report's breakdown: the
// spread of per-rank seconds across ranks.
type PhaseSummary struct {
	Phase string `json:"phase"`
	// Axis is 0-2, or -1 when the phase is not axis-attributed.
	Axis    int    `json:"axis"`
	Seconds Spread `json:"seconds"`
	// Count is the total span count across ranks.
	Count int64 `json:"count"`
}

// CommReport aggregates the run's communication: the Fig. 9 per-rank
// comm-time spread and the wire traffic totals.
type CommReport struct {
	Seconds   Spread   `json:"seconds"`
	AxisBytes [3]int64 `json:"axis_bytes"`
	BytesSent int64    `json:"bytes_sent"`
	Messages  int64    `json:"messages"`
	// SlotBytes sums the ranks' message-slot high-water marks: what the
	// transport held, beside what it carried.
	SlotBytes int64 `json:"slot_bytes"`
}

// RunStats carries the result-level quantities of one run into BuildReport.
type RunStats struct {
	WallSeconds     float64
	MFlups          float64
	InteriorUpdates int64
	GhostUpdates    int64
	// CommSeconds is the per-rank fabric comm time (one entry per rank).
	CommSeconds []float64
	// AxisBytes is the per-axis halo surface, bytes/rank/exchange.
	AxisBytes [3]int64
}

// Report is the structured run report: everything a later reader (CI
// trajectory, calibration fit) needs to interpret one run.
type Report struct {
	Schema          string      `json:"schema"`
	Machine         MachineInfo `json:"machine"`
	Config          RunConfig   `json:"config"`
	WallSeconds     float64     `json:"wall_seconds"`
	MFlups          float64     `json:"mflups"`
	InteriorUpdates int64       `json:"interior_updates"`
	GhostUpdates    int64       `json:"ghost_updates"`
	Comm            CommReport  `json:"comm"`
	// FieldBytes sums the ranks' distribution-field allocations: what the
	// solver held, beside what the transport held (comm.slot_bytes).
	FieldBytes int64 `json:"field_bytes"`
	// FluidCells is the spread of per-rank fluid-cell counts — the load
	// the -balance fluid cut policy equalizes. Present on masked observed
	// runs; absent (nil) when no rank reported a count.
	FluidCells *Spread `json:"fluid_cells,omitempty"`
	// WorkerWeights is the spread of drained chunk weight across every
	// worker of every rank's team — fluid cells under sparse traversal,
	// plain cells otherwise. Present on threaded observed runs.
	WorkerWeights *Spread           `json:"worker_weights,omitempty"`
	Phases        []PhaseSummary    `json:"phases"`
	Ranks         []RankObservation `json:"ranks,omitempty"`
}

// BuildReport aggregates per-rank observations into a Report: each
// (phase, axis) pair present on any rank becomes one summary row, in
// Phase order then axis order.
func BuildReport(cfg RunConfig, st RunStats, ranks []RankObservation) *Report {
	rep := &Report{
		Schema:          ReportSchema,
		Machine:         HostInfo(),
		Config:          cfg,
		WallSeconds:     st.WallSeconds,
		MFlups:          st.MFlups,
		InteriorUpdates: st.InteriorUpdates,
		GhostUpdates:    st.GhostUpdates,
		Ranks:           ranks,
	}
	rep.Comm.Seconds = spreadOf(metrics.Summarize(st.CommSeconds))
	rep.Comm.AxisBytes = st.AxisBytes
	var fluids, weights []float64
	for _, o := range ranks {
		rep.Comm.BytesSent += o.BytesSent
		rep.Comm.Messages += o.Messages
		rep.Comm.SlotBytes += o.SlotBytes
		rep.FieldBytes += o.FieldBytes
		if o.FluidCells > 0 {
			fluids = append(fluids, float64(o.FluidCells))
		}
		for _, w := range o.WorkerWeights {
			weights = append(weights, float64(w))
		}
	}
	if fluids != nil {
		s := spreadOf(metrics.Summarize(fluids))
		rep.FluidCells = &s
	}
	if weights != nil {
		s := spreadOf(metrics.Summarize(weights))
		rep.WorkerWeights = &s
	}
	for p := Phase(0); p < NumPhases; p++ {
		for _, axis := range [axisSlots]int{0, 1, 2, NoAxis} {
			var secs []float64
			var count int64
			for _, o := range ranks {
				for _, po := range o.Phases {
					if po.Phase == p.String() && po.Axis == axis {
						secs = append(secs, po.Seconds)
						count += po.Count
					}
				}
			}
			if len(secs) == 0 {
				continue
			}
			rep.Phases = append(rep.Phases, PhaseSummary{
				Phase:   p.String(),
				Axis:    axis,
				Seconds: spreadOf(metrics.Summarize(secs)),
				Count:   count,
			})
		}
	}
	return rep
}

// WriteReport serializes a report as indented JSON.
func WriteReport(w io.Writer, rep *Report) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(rep)
}
