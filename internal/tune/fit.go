package tune

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"

	"repro/internal/core"
	"repro/internal/metrics"
	"repro/internal/obs"
	"repro/internal/perfsim"
)

// FitSchema identifies the fit result's JSON shape.
const FitSchema = "lbm-fit/v1"

// fitPhases are the phases the objective scores — the ones perfsim's
// schedule decomposition predicts (fixup/face/sponge/force are zero in
// the periodic sweep).
var fitPhases = []obs.Phase{obs.Interior, obs.Rim, obs.Pack, obs.Wire, obs.Unpack}

// FitResult is the output of the calibration fit.
type FitResult struct {
	Schema  string          `json:"schema"`
	Machine obs.MachineInfo `json:"machine"`
	Model   string          `json:"model"`
	Steps   int             `json:"steps"`
	Coeffs  perfsim.Coeffs  `json:"coeffs"`
	// SeedMAPE/FittedMAPE are the duration-weighted per-phase MAPE of the
	// objective before and after the coefficient search; UnfittedMAPE is
	// the same objective under nil coefficients — the generic calibration
	// a user without a fit file prices with, the bar the fit must beat.
	SeedMAPE     float64 `json:"seed_mape"`
	FittedMAPE   float64 `json:"fitted_mape"`
	UnfittedMAPE float64 `json:"unfitted_mape"`
	// Points is the observe→predict bridge: every sweep point's observed
	// phases beside the fitted model's prediction of them (holdout points
	// included, with their fitted cell costs). PhaseMAPE/TotalMAPE/PearsonR
	// are computed from these rows.
	Points    []FitPoint         `json:"points"`
	PhaseMAPE map[string]float64 `json:"phase_mape"`
	TotalMAPE float64            `json:"total_mape"`
	PearsonR  float64            `json:"pearson_r"`
	// Evals counts objective evaluations of the coordinate descent.
	Evals int `json:"evals"`
}

// FitPoint is one sweep point's observed and predicted per-phase seconds
// (mean across ranks, keyed by phase name; totals are wall seconds).
type FitPoint struct {
	Label          string             `json:"label"`
	Observed       map[string]float64 `json:"observed"`
	Predicted      map[string]float64 `json:"predicted"`
	ObservedTotal  float64            `json:"observed_total"`
	PredictedTotal float64            `json:"predicted_total"`
}

// fitDim describes one searched coefficient: an accessor pair plus the
// physical bracket the walk stays inside.
type fitDim struct {
	name   string
	get    func(*perfsim.Coeffs) float64
	set    func(*perfsim.Coeffs, float64)
	lo, hi float64
}

func fitDims() []fitDim {
	return []fitDim{
		{"mem_bw", func(c *perfsim.Coeffs) float64 { return c.MemBW }, func(c *perfsim.Coeffs, v float64) { c.MemBW = v }, 1e8, 1e13},
		{"bw_saturation", func(c *perfsim.Coeffs) float64 { return c.BWSaturation }, func(c *perfsim.Coeffs, v float64) { c.BWSaturation = v }, 1, 64},
		{"copy_bw", func(c *perfsim.Coeffs) float64 { return c.CopyBW }, func(c *perfsim.Coeffs, v float64) { c.CopyBW = v }, 1e8, 1e13},
		{"link_bw", func(c *perfsim.Coeffs) float64 { return c.LinkBW }, func(c *perfsim.Coeffs, v float64) { c.LinkBW = v }, 1e6, 1e12},
		{"latency", func(c *perfsim.Coeffs) float64 { return c.Latency }, func(c *perfsim.Coeffs, v float64) { c.Latency = v }, 1e-7, 1e-2},
		{"msg_sw", func(c *perfsim.Coeffs) float64 { return c.MsgSW }, func(c *perfsim.Coeffs, v float64) { c.MsgSW = v }, 1e-9, 1e-2},
		{"thread_serial_frac", func(c *perfsim.Coeffs) float64 { return c.ThreadSerialFrac }, func(c *perfsim.Coeffs, v float64) { c.ThreadSerialFrac = v }, 1e-5, 1},
	}
}

// seedCoeffs returns the search's starting point: the shared wire
// constants for the wire dimensions (the sweep injects them, so they are
// the right neighborhood by construction), the thread ladder solved
// closed-form for the saturation and Amdahl terms, and bandwidths
// anchored by one-point scaling. The descent then only has to polish —
// which matters, because the interior model has a MemBW/BWSaturation/
// ThreadSerialFrac valley a cold pattern search can stall in.
func seedCoeffs(sw *Sweep) (perfsim.Coeffs, error) {
	c := perfsim.Coeffs{
		MemBW:            8e9,
		BWSaturation:     4,
		CopyBW:           16e9,
		LinkBW:           WireLinkBW,
		Latency:          WireLatency,
		MsgSW:            100e-6,
		ThreadSerialFrac: perfsim.DefaultThreadSerialFrac,
	}
	seedThreadLadder(sw, &c)
	seedWire(sw, &c)

	// Anchor the kernel bandwidth on the single-worker point's interior
	// phase and the copy bandwidth on its pack phase (both scale as 1/rate
	// with the flop roofline out of play).
	anchor := func(o *Observation) error {
		pred, _, err := PricePoint(sw, o.Point, &c)
		if err != nil {
			return err
		}
		if ob := o.Phases[obs.Interior]; ob > 0 && pred[obs.Interior] > 0 {
			c.MemBW = clampDim(c.MemBW*pred[obs.Interior]/ob, "mem_bw")
		}
		return nil
	}
	for i := range sw.Obs {
		o := &sw.Obs[i]
		if o.Point.Holdout {
			continue
		}
		if o.Point.Ranks == 1 && o.Point.Threads == 1 {
			if err := anchor(o); err != nil {
				return c, err
			}
			break
		}
	}
	for i := range sw.Obs {
		o := &sw.Obs[i]
		if o.Point.Holdout || o.Point.Ranks < 2 {
			continue
		}
		pred, _, err := PricePoint(sw, o.Point, &c)
		if err != nil {
			return c, err
		}
		if ob := o.Phases[obs.Pack]; ob > 0 && pred[obs.Pack] > 0 {
			c.CopyBW = clampDim(c.CopyBW*pred[obs.Pack]/ob, "copy_bw")
		}
		break
	}
	return c, nil
}

// seedThreadLadder solves the single-rank thread ladder (t = 1, 2, 4)
// closed-form for BWSaturation and ThreadSerialFrac. With interior time
// I_t ∝ (1 + c·(t−1)) / min(t/S, 1), the three observations pin c and S
// directly in each saturation regime; the regimes are tried in order and
// checked for self-consistency. Failure leaves the generic seeds alone.
func seedThreadLadder(sw *Sweep, c *perfsim.Coeffs) {
	ladder := map[int]float64{}
	for _, o := range sw.Obs {
		if o.Point.Holdout || o.Point.Ranks != 1 {
			continue
		}
		if v := o.Phases[obs.Interior]; v > 0 {
			ladder[o.Point.Threads] = v
		}
	}
	i1, i2, i4 := ladder[1], ladder[2], ladder[4]
	if i1 <= 0 || i2 <= 0 || i4 <= 0 {
		return
	}
	try := func(cf, sf float64, lo, hi float64) bool {
		if cf <= 0 || sf < lo || sf > hi {
			return false
		}
		c.ThreadSerialFrac = clampDim(cf, "thread_serial_frac")
		c.BWSaturation = clampDim(sf, "bw_saturation")
		return true
	}
	// 2 < S ≤ 4: t2 on the ramp, t4 saturated.
	cf := 2*i2/i1 - 1
	if try(cf, (1+3*cf)*i1/i4, 2, 4) {
		return
	}
	// S ≤ 2: t2 and t4 both saturated.
	if r := i4 / i2; r < 3 {
		cf = (r - 1) / (3 - r)
		if try(cf, (1+cf)*i1/i2, 1, 2) {
			return
		}
	}
	// S > 4: nothing saturates; S is unidentified beyond the max observed
	// worker count, so pin it there and let MemBW absorb the scale.
	cf = 2*i2/i1 - 1
	try(cf, 4, 4, 4)
}

// seedWire solves the wire-bearing rungs closed-form for Latency and
// LinkBW. A blocking exchange's wire phase is affine in the pair —
// count·Latency + bytes/LinkBW plus a latency-independent offset — so
// three probe pricings per rung recover its (count, bytes, offset), and
// the best-conditioned rung pair yields a 2×2 linear system. The two
// coefficients trade off inside any single rung (the valley the descent
// cannot cross coordinate-wise), which is why the sweep carries blocking
// rungs at two halo depths: half the messages at twice the size. Skipped
// when no rung pair is well-conditioned.
func seedWire(sw *Sweep, c *perfsim.Coeffs) {
	type rung struct {
		wire      float64 // observed wire seconds, offset removed
		cnt, byt  float64 // effective message count and bytes/LinkBW weight
		condRatio float64
	}
	var rungs []rung
	for i := range sw.Obs {
		o := &sw.Obs[i]
		if o.Point.Holdout || o.Phases[obs.Wire] <= 0 {
			continue
		}
		probe := func(lat, bw float64) (float64, bool) {
			pc := *c
			pc.Latency, pc.LinkBW = lat, bw
			pred, _, err := PricePoint(sw, o.Point, &pc)
			if err != nil {
				return 0, false
			}
			return pred[obs.Wire], true
		}
		const l0, l1, w0, w1 = 1e-4, 2e-4, 1e8, 2e8
		p0, ok0 := probe(l0, w0)
		p1, ok1 := probe(l1, w0)
		p2, ok2 := probe(l0, w1)
		if !ok0 || !ok1 || !ok2 {
			continue
		}
		cnt := (p1 - p0) / (l1 - l0)
		byt := (p0 - p2) / (1/w0 - 1/w1)
		off := p0 - cnt*l0 - byt/w0
		if cnt <= 0 || byt <= 0 {
			continue
		}
		rungs = append(rungs, rung{wire: o.Phases[obs.Wire] - off, cnt: cnt, byt: byt})
	}
	bestCond := 0.05 // require at least 5% normalized determinant
	for i := 0; i < len(rungs); i++ {
		for j := i + 1; j < len(rungs); j++ {
			ri, rj := rungs[i], rungs[j]
			det := ri.cnt*rj.byt - rj.cnt*ri.byt
			cond := math.Abs(det) / (ri.cnt*rj.byt + rj.cnt*ri.byt)
			if cond <= bestCond {
				continue
			}
			lat := (ri.wire*rj.byt - rj.wire*ri.byt) / det
			inv := (ri.cnt*rj.wire - rj.cnt*ri.wire) / det
			if lat <= 0 || inv <= 0 {
				continue
			}
			bestCond = cond
			c.Latency = clampDim(lat, "latency")
			c.LinkBW = clampDim(1/inv, "link_bw")
		}
	}
}

// clampDim keeps a seeded value inside its search bracket.
func clampDim(v float64, name string) float64 {
	for _, d := range fitDims() {
		if d.name == name {
			if v < d.lo {
				return d.lo
			}
			if v > d.hi {
				return d.hi
			}
			return v
		}
	}
	return v
}

// objective is the duration-weighted per-phase MAPE of a coefficient set
// over the sweep's core (non-holdout) points: each (point, phase) error
// is weighted by the observed seconds it covers, so the big phases — the
// ones that decide a tuning choice — dominate, and noisy sub-millisecond
// phases can't.
func objective(sw *Sweep, c *perfsim.Coeffs) (float64, error) {
	var sum, wsum float64
	for _, o := range sw.Obs {
		if o.Point.Holdout {
			continue
		}
		pred, _, err := PricePoint(sw, o.Point, c)
		if err != nil {
			return 0, err
		}
		for _, p := range fitPhases {
			ob := o.Phases[p]
			if ob <= 0 {
				continue
			}
			sum += ob * math.Abs(pred[p]-ob) / ob
			wsum += ob
		}
	}
	if wsum == 0 {
		return 0, fmt.Errorf("tune: sweep has no observed phase seconds to fit against")
	}
	return sum / wsum, nil
}

// Fit searches the coefficient space to minimize the objective:
// deterministic coordinate descent in log space (multiplicative steps
// with a shrinking factor), then closed-form per-kernel cell costs from
// the holdout points. No wall clock, no randomness — the result is a
// pure function of the sweep.
func Fit(sw *Sweep) (*FitResult, error) {
	if len(sw.Obs) == 0 {
		return nil, fmt.Errorf("tune: empty sweep")
	}
	cur, err := seedCoeffs(sw)
	if err != nil {
		return nil, err
	}
	evals := 0
	eval := func(c *perfsim.Coeffs) (float64, error) {
		evals++
		return objective(sw, c)
	}
	best, err := eval(&cur)
	if err != nil {
		return nil, err
	}
	seedMAPE := best

	dims := fitDims()
	// Multiplicative pattern search: walk each coefficient up or down by
	// the current factor while it helps; shrink the factor when a full
	// pass over the dimensions makes no progress. Two coarse-to-fine
	// cycles — re-opening the step after the first convergence lets the
	// search escape the shallow stalls a single annealing pass can leave
	// on coupled dimensions.
	const maxEvals = 20000
	for cycle := 0; cycle < 2; cycle++ {
		for factor := 4.0; factor > 1.0005 && evals < maxEvals; {
			improved := false
			for _, d := range dims {
				for _, dir := range [2]float64{1, -1} {
					for evals < maxEvals {
						v := d.get(&cur)
						nv := v * math.Pow(factor, dir)
						if nv < d.lo {
							nv = d.lo
						}
						if nv > d.hi {
							nv = d.hi
						}
						if nv == v {
							break
						}
						trial := cur
						d.set(&trial, nv)
						score, err := eval(&trial)
						if err != nil {
							return nil, err
						}
						if score < best {
							best, cur = score, trial
							improved = true
							continue
						}
						break
					}
				}
			}
			if !improved {
				// Diagonal pass: coupled dimensions (latency/link_bw,
				// mem_bw/bw_saturation) form curved valleys a single-axis
				// step can't descend — both coordinates individually uphill,
				// the pair downhill. Walk every dimension pair in the four
				// diagonal directions before giving up on this step size.
				for i := 0; i < len(dims); i++ {
					for j := i + 1; j < len(dims); j++ {
						for _, dd := range [4][2]float64{{1, 1}, {1, -1}, {-1, 1}, {-1, -1}} {
							for evals < maxEvals {
								vi, vj := dims[i].get(&cur), dims[j].get(&cur)
								ni := clampDim(vi*math.Pow(factor, dd[0]), dims[i].name)
								nj := clampDim(vj*math.Pow(factor, dd[1]), dims[j].name)
								if ni == vi && nj == vj {
									break
								}
								trial := cur
								dims[i].set(&trial, ni)
								dims[j].set(&trial, nj)
								score, err := eval(&trial)
								if err != nil {
									return nil, err
								}
								if score < best {
									best, cur = score, trial
									improved = true
									continue
								}
								break
							}
						}
					}
				}
			}
			if !improved {
				factor = math.Sqrt(factor)
			}
		}
	}

	if err := fitKernelCosts(sw, &cur); err != nil {
		return nil, err
	}

	res := &FitResult{
		Schema:     FitSchema,
		Machine:    sw.Machine,
		Model:      sw.Model,
		Steps:      sw.Steps,
		Coeffs:     cur,
		SeedMAPE:   seedMAPE,
		FittedMAPE: best,
		PhaseMAPE:  map[string]float64{},
		Evals:      evals,
	}
	if res.UnfittedMAPE, err = objective(sw, nil); err != nil {
		return nil, err
	}
	if err := res.score(sw); err != nil {
		return nil, err
	}
	return res, nil
}

// fitKernelCosts derives the per-kernel cell-cost multipliers from the
// holdout points: each is priced with the fitted coefficients at cost 1,
// and the observed/predicted interior-time ratio becomes the cost. The
// interior phase isolates the kernel (pack/wire/unpack are
// kernel-independent), which is why a closed form suffices.
func fitKernelCosts(sw *Sweep, c *perfsim.Coeffs) error {
	base := *c
	base.KernelCost = nil
	base.FusedAdjust = 0
	base.AAAdjust = 0
	for _, o := range sw.Obs {
		if !o.Point.Holdout {
			continue
		}
		pred, _, err := PricePoint(sw, o.Point, &base)
		if err != nil {
			return err
		}
		ob, pr := o.Phases[obs.Interior], pred[obs.Interior]
		if ob <= 0 || pr <= 0 {
			continue
		}
		ratio := ob / pr
		// Clamp to a sane band: a kernel is not 4× cheaper or dearer than
		// the baseline on these hosts; beyond that the observation is
		// noise.
		if ratio < 0.25 {
			ratio = 0.25
		}
		if ratio > 4 {
			ratio = 4
		}
		opt, _ := core.ParseOptLevel(o.Point.Opt) // parsed by PricePoint above
		stream, _ := core.ParseStreamScheme(o.Point.Stream)
		switch {
		case fusedSweep(opt, stream):
			c.FusedAdjust = ratio
		case o.Point.Stream == core.StreamAA.String():
			c.AAAdjust = ratio
		case o.Point.Kernel != "bgk":
			if c.KernelCost == nil {
				c.KernelCost = map[string]float64{}
			}
			c.KernelCost[o.Point.Kernel] = ratio
		}
	}
	return nil
}

// WriteFit serializes a fit result as indented JSON (lbm-fit/v1).
func WriteFit(w io.Writer, r *FitResult) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(r)
}

// SaveFit writes a fit result to a file.
func SaveFit(path string, r *FitResult) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := WriteFit(f, r); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// LoadFit reads a fit result from a file, checking schema and validating
// the coefficients.
func LoadFit(path string) (*FitResult, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var r FitResult
	if err := json.Unmarshal(b, &r); err != nil {
		return nil, fmt.Errorf("tune: %s: %w", path, err)
	}
	if r.Schema != FitSchema {
		return nil, fmt.Errorf("tune: %s: schema %q, want %q", path, r.Schema, FitSchema)
	}
	if err := r.Coeffs.Validate(); err != nil {
		return nil, fmt.Errorf("tune: %s: %w", path, err)
	}
	return &r, nil
}

// score fills the bridge rows and the whole-sweep agreement metrics
// computed from them: per-phase MAPE, total MAPE and Pearson correlation
// on wall times, all points included.
func (r *FitResult) score(sw *Sweep) error {
	n := len(sw.Obs)
	obsTotals := make([]float64, n)
	predTotals := make([]float64, n)
	r.Points = make([]FitPoint, n)
	for i, o := range sw.Obs {
		pred, total, err := PricePoint(sw, o.Point, &r.Coeffs)
		if err != nil {
			return err
		}
		row := FitPoint{
			Label:    o.Point.Label,
			Observed: map[string]float64{}, Predicted: map[string]float64{},
			ObservedTotal: o.Total, PredictedTotal: total,
		}
		for _, p := range fitPhases {
			row.Observed[p.String()], row.Predicted[p.String()] = o.Phases[p], pred[p]
		}
		r.Points[i] = row
		obsTotals[i], predTotals[i] = o.Total, total
	}
	for _, p := range fitPhases {
		ov := make([]float64, n)
		pv := make([]float64, n)
		for i, row := range r.Points {
			ov[i], pv[i] = row.Observed[p.String()], row.Predicted[p.String()]
		}
		if mape := metrics.MAPE(ov, pv); !math.IsNaN(mape) {
			r.PhaseMAPE[p.String()] = mape
		}
	}
	r.TotalMAPE = metrics.MAPE(obsTotals, predTotals)
	r.PearsonR = metrics.Pearson(obsTotals, predTotals)
	return nil
}
