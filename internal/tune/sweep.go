// Package tune is the calibration loop, and there is one of it: observe
// a sweep of real instrumented runs, fit perfsim's machine coefficients
// to their per-phase seconds, score the fitted model against those same
// observations point by point (the observe→predict bridge is the fit's
// own `points` record), then search the solver's configuration space
// with the model and confirm the best candidates with short real runs.
// The fit lives in fit.go, the auto-tuner in search.go, the observation
// sweep here. Both halves speak one vocabulary — a sweep Point is a
// tuner Candidate — so an execution config becomes a real run in one
// place (Candidate.Config) and a priced perfsim.Job in one place
// (Candidate.job), both in search.go.
//
// Everything downstream of the real runs is deterministic: the fit is a
// pure function of the collected sweep, and the tuner is a pure function
// of the fitted coefficients plus an injectable measurement function, so
// both are testable byte-for-byte.
package tune

import (
	"fmt"
	"time"

	"repro/internal/comm"
	"repro/internal/core"
	"repro/internal/grid"
	"repro/internal/lattice"
	"repro/internal/obs"
	"repro/internal/perfsim"
)

// The sweep's shared wire model: real runs install a fabric DelayFunc of
// Latency + bytes/LinkBW, and the simulated jobs carry the same numbers,
// so the fit recovers known constants on the wire dimensions — a built-in
// validity check — while the compute dimensions calibrate to the host.
const (
	WireLatency = 200e-6 // s per message
	WireLinkBW  = 100e6  // bytes/s per link
)

// Point is one sweep configuration: a tuner Candidate, so the real run
// and the priced job are materialised by the code the tuner uses.
type Point struct {
	Candidate
	Label string `json:"label"`
	// Holdout points are excluded from the coefficient search objective;
	// their interior-time ratio against the fitted baseline yields the
	// per-kernel cell costs closed-form (see fitKernelCosts).
	Holdout bool `json:"holdout,omitempty"`
}

// Points returns the calibration sweep: the core points excite each
// coefficient (protocol rungs for the wire/software terms, a deep halo
// for the bytes-per-message ratio, a pencil for multi-axis exchange, a
// thread ladder for the saturation ramp and the Amdahl term), and the
// holdout points carry one non-baseline kernel each for the closed-form
// cost ratios; core points step split, the SIMD rung's gather sweep is a
// holdout. The pencil is cut on y and z, not on x: x carries ghosts
// on every shape, so the point has one local wrap — copies priced at the
// copy bandwidth, no wire — beside two messaging axes. A 2×2×1 pencil has
// none (its uncut z is a wrap axis, core.GhostWidths), and without one
// latency and link bandwidth trade off in the fit.
func Points() []Point {
	pt := func(label string, opt core.OptLevel, shape [3]int, depth, threads int) Point {
		return Point{Label: label, Candidate: Candidate{
			Ranks: shape[0] * shape[1] * shape[2], Decomp: shape, Threads: threads,
			Opt: opt.String(), Depth: [3]int{depth, depth, depth},
			Stream: core.StreamTwoGrid.String(), Kernel: "bgk",
		}}
	}
	hold := func(p Point, kernel string, stream core.StreamScheme) Point {
		p.Kernel, p.Stream, p.Holdout = kernel, stream.String(), true
		return p
	}
	one, slab, pencil := [3]int{1, 1, 1}, [3]int{2, 1, 1}, [3]int{1, 2, 2}
	return []Point{
		pt("slab GC blocking d1 r2", core.OptGC, slab, 1, 1),
		pt("slab GC blocking d2 r2", core.OptGC, slab, 2, 1),
		pt("slab NB-C d1 r2", core.OptNBC, slab, 1, 1),
		pt("slab GC-C d2 r2", core.OptGCC, slab, 2, 1),
		pt("pencil GC-C d1 r4", core.OptGCC, pencil, 1, 1),
		pt("slab GC-C r1 t1", core.OptGCC, one, 1, 1),
		pt("slab GC-C r1 t2", core.OptGCC, one, 1, 2),
		pt("slab GC-C r1 t4", core.OptGCC, one, 1, 4),
		hold(pt("trt GC-C d1 r2", core.OptGCC, slab, 1, 1), "trt", core.StreamTwoGrid),
		hold(pt("mrt GC-C d1 r2", core.OptGCC, slab, 1, 1), "mrt", core.StreamTwoGrid),
		hold(pt("fused SIMD d1 r2", core.OptSIMD, slab, 1, 1), "bgk", core.StreamTwoGrid),
		hold(pt("aa GC-C d2 r2", core.OptGCC, slab, 2, 1), "bgk", core.StreamAA),
	}
}

// Observation pairs one sweep point with its observed per-phase seconds
// (mean across ranks) and wall time.
type Observation struct {
	Point  Point            `json:"point"`
	Phases obs.PhaseSeconds `json:"phases"`
	Total  float64          `json:"total"`
}

// Sweep is a collected observation set plus the metadata the fit needs to
// re-price every point in perfsim.
type Sweep struct {
	Model   string          `json:"model"`
	Dims    [3]int          `json:"dims"`
	Steps   int             `json:"steps"`
	Machine obs.MachineInfo `json:"machine"`
	Obs     []Observation   `json:"observations"`
}

// sweepDims is the sweep's domain (D3Q39 cells carry ~2× the data, so its
// box is smaller — same scaling rule as the Real* experiments).
func sweepDims(m *lattice.Model) [3]int {
	if m.Q == 39 {
		return [3]int{48, 24, 24}
	}
	return [3]int{64, 32, 32}
}

// scenario is the problem every sweep point runs and is priced on: a
// periodic box of the sweep's dims at τ = 0.8.
func (sw *Sweep) scenario() (*Scenario, error) {
	m, err := lattice.ByName(sw.Model)
	if err != nil {
		return nil, err
	}
	return &Scenario{
		Name: "sweep", Model: m, Tau: 0.8,
		N: grid.Dims{NX: sw.Dims[0], NY: sw.Dims[1], NZ: sw.Dims[2]},
	}, nil
}

// Collect runs the calibration sweep with the real instrumented solver:
// every point executes with the shared wire model injected into the
// fabric, and its per-rank phase vectors are averaged into one
// observation.
func Collect(modelName string, steps int) (*Sweep, error) {
	m, err := lattice.ByName(modelName)
	if err != nil {
		return nil, err
	}
	sw := &Sweep{Model: m.Name, Dims: sweepDims(m), Steps: steps, Machine: obs.HostInfo()}
	s, err := sw.scenario()
	if err != nil {
		return nil, err
	}
	delay := func(src, dst, bytes int) time.Duration {
		return time.Duration((WireLatency + float64(bytes)/WireLinkBW) * float64(time.Second))
	}
	for _, pt := range Points() {
		cfg, err := pt.Config(s, steps)
		if err != nil {
			return nil, fmt.Errorf("tune: sweep %s: %w", pt.Label, err)
		}
		cfg.Observe = true
		cfg.Fabric = comm.NewFabric(pt.Ranks).WithDelay(delay)
		res, err := core.Run(cfg)
		if err != nil {
			return nil, fmt.Errorf("tune: sweep %s: %w", pt.Label, err)
		}
		sw.Obs = append(sw.Obs, Observation{
			Point:  pt,
			Phases: obs.MeanPhases(obs.Vectors(res.Observations)),
			Total:  res.WallTime.Seconds(),
		})
	}
	return sw, nil
}

// PricePoint simulates one sweep point under a coefficient set (nil: the
// unfitted generic calibration). Ranks are priced as nodes, matching the
// real runs: every rank pair crosses the injected wire.
func PricePoint(sw *Sweep, pt Point, c *perfsim.Coeffs) (obs.PhaseSeconds, float64, error) {
	s, err := sw.scenario()
	if err != nil {
		return obs.PhaseSeconds{}, 0, err
	}
	j, err := pt.job(s, c, sw.Steps, true)
	if err != nil {
		return obs.PhaseSeconds{}, 0, err
	}
	res, err := perfsim.Run(j)
	if err != nil {
		return obs.PhaseSeconds{}, 0, fmt.Errorf("tune: price %s: %w", pt.Label, err)
	}
	return obs.MeanPhases(res.RankPhases), res.Seconds, nil
}
