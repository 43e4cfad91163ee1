// Package tune closes ROADMAP direction 3's calibration loop: it fits
// perfsim's machine coefficients to observed per-phase run times
// (observe → fit), then searches the solver's configuration space with
// the fitted model and confirms the best candidates with short real
// measurements (predict → optimize). The fit half lives in fit.go, the
// auto-tuner in search.go; this file defines the observation sweep both
// halves share.
//
// Everything downstream of the real runs is deterministic: the fit is a
// pure function of the collected sweep, and the tuner is a pure function
// of the fitted coefficients plus an injectable measurement function, so
// both are testable byte-for-byte.
package tune

import (
	"fmt"
	"time"

	"repro/internal/collision"
	"repro/internal/comm"
	"repro/internal/core"
	"repro/internal/grid"
	"repro/internal/lattice"
	"repro/internal/machine"
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

// Point is one sweep configuration, run identically in both worlds (the
// real instrumented solver and perfsim).
type Point struct {
	Label   string            `json:"label"`
	Opt     core.OptLevel     `json:"opt"`
	Ranks   int               `json:"ranks"`
	Decomp  [3]int            `json:"decomp"`
	Depth   int               `json:"depth"`
	Threads int               `json:"threads"`
	Kernel  string            `json:"kernel"` // "bgk", "trt", "mrt"
	Fused   bool              `json:"fused,omitempty"`
	Stream  core.StreamScheme `json:"stream,omitempty"`
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
// cost ratios.
func Points() []Point {
	return []Point{
		{Label: "slab GC blocking d1 r2", Opt: core.OptGC, Ranks: 2, Decomp: [3]int{2, 1, 1}, Depth: 1, Threads: 1, Kernel: "bgk"},
		{Label: "slab GC blocking d2 r2", Opt: core.OptGC, Ranks: 2, Decomp: [3]int{2, 1, 1}, Depth: 2, Threads: 1, Kernel: "bgk"},
		{Label: "slab NB-C d1 r2", Opt: core.OptNBC, Ranks: 2, Decomp: [3]int{2, 1, 1}, Depth: 1, Threads: 1, Kernel: "bgk"},
		{Label: "slab GC-C d2 r2", Opt: core.OptGCC, Ranks: 2, Decomp: [3]int{2, 1, 1}, Depth: 2, Threads: 1, Kernel: "bgk"},
		{Label: "pencil GC-C d1 r4", Opt: core.OptGCC, Ranks: 4, Decomp: [3]int{2, 2, 1}, Depth: 1, Threads: 1, Kernel: "bgk"},
		{Label: "slab SIMD r1 t1", Opt: core.OptSIMD, Ranks: 1, Decomp: [3]int{1, 1, 1}, Depth: 1, Threads: 1, Kernel: "bgk"},
		{Label: "slab SIMD r1 t2", Opt: core.OptSIMD, Ranks: 1, Decomp: [3]int{1, 1, 1}, Depth: 1, Threads: 2, Kernel: "bgk"},
		{Label: "slab SIMD r1 t4", Opt: core.OptSIMD, Ranks: 1, Decomp: [3]int{1, 1, 1}, Depth: 1, Threads: 4, Kernel: "bgk"},
		{Label: "trt GC-C d1 r2", Opt: core.OptGCC, Ranks: 2, Decomp: [3]int{2, 1, 1}, Depth: 1, Threads: 1, Kernel: "trt", Holdout: true},
		{Label: "mrt GC-C d1 r2", Opt: core.OptGCC, Ranks: 2, Decomp: [3]int{2, 1, 1}, Depth: 1, Threads: 1, Kernel: "mrt", Holdout: true},
		{Label: "fused GC-C d1 r2", Opt: core.OptGCC, Ranks: 2, Decomp: [3]int{2, 1, 1}, Depth: 1, Threads: 1, Kernel: "bgk", Fused: true, Holdout: true},
		{Label: "aa GC-C d2 r2", Opt: core.OptGCC, Ranks: 2, Decomp: [3]int{2, 1, 1}, Depth: 2, Threads: 1, Kernel: "bgk", Stream: core.StreamAA, Holdout: true},
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
func sweepDims(m *lattice.Model) grid.Dims {
	if m.Q == 39 {
		return grid.Dims{NX: 48, NY: 24, NZ: 24}
	}
	return grid.Dims{NX: 64, NY: 32, NZ: 32}
}

// collisionFor maps a point's kernel tag to its operator spec.
func collisionFor(kernel string) (collision.Spec, error) {
	kind, err := collision.ParseKind(kernel)
	if err != nil {
		return collision.Spec{}, err
	}
	return collision.Spec{Kind: kind}, nil
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
	dims := sweepDims(m)
	delay := func(src, dst, bytes int) time.Duration {
		return time.Duration((WireLatency + float64(bytes)/WireLinkBW) * float64(time.Second))
	}
	sw := &Sweep{
		Model:   m.Name,
		Dims:    [3]int{dims.NX, dims.NY, dims.NZ},
		Steps:   steps,
		Machine: obs.HostInfo(),
	}
	for _, pt := range Points() {
		col, err := collisionFor(pt.Kernel)
		if err != nil {
			return nil, err
		}
		res, err := core.Run(core.Config{
			Model: m, N: dims, Tau: 0.8, Steps: steps,
			Opt: pt.Opt, Ranks: pt.Ranks, Decomp: pt.Decomp, Threads: pt.Threads,
			GhostDepth: pt.Depth,
			Collision:  col,
			Fused:      pt.Fused,
			Stream:     pt.Stream,
			Observe:    true,
			Fabric:     comm.NewFabric(pt.Ranks).WithDelay(delay),
		})
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

// fitMachine is the hardware envelope the fitted-coefficient jobs run
// against: core counts generous enough to never reject a sweep point, a
// flop roofline high enough to never bind (the kernels are
// bandwidth-limited, paper §III.C), and the shared wire constants for the
// anchored fallback path.
func fitMachine() machine.Machine {
	return machine.Machine{
		Name:            "local",
		MemBWBytes:      8e9,
		PeakFlops:       1e15,
		TorusLinkBytes:  WireLinkBW,
		TorusLinks:      12,
		LinkLatency:     WireLatency,
		CoresPerNode:    256,
		ThreadsPerCore:  1,
		MemPerNodeBytes: 1 << 40,
	}
}

// PricePoint simulates one sweep point under a coefficient set. The
// sweep's one-task-per-node convention matches the real runs: every rank
// pair crosses the injected wire.
func PricePoint(sw *Sweep, pt Point, c *perfsim.Coeffs) (obs.PhaseSeconds, float64, error) {
	j, err := pointJob(sw, pt, fitMachine())
	if err != nil {
		return obs.PhaseSeconds{}, 0, err
	}
	j.Coeffs = c
	if c != nil {
		j.CellCost = c.CellCost(pt.Kernel, pt.Fused, pt.Stream)
	}
	return runPointJob(j, pt)
}

// PriceAnchored simulates a sweep point through the pre-existing
// named-calibration path with the envelope's memory bandwidth replaced by
// the anchored value — the `-exp predict` fallback model.
func PriceAnchored(sw *Sweep, pt Point, memBW float64) (obs.PhaseSeconds, float64, error) {
	mch := fitMachine()
	mch.MemBWBytes = memBW
	j, err := pointJob(sw, pt, mch)
	if err != nil {
		return obs.PhaseSeconds{}, 0, err
	}
	return runPointJob(j, pt)
}

func pointJob(sw *Sweep, pt Point, mch machine.Machine) (perfsim.Job, error) {
	m, err := lattice.ByName(sw.Model)
	if err != nil {
		return perfsim.Job{}, err
	}
	return perfsim.Job{
		Machine: mch,
		Spec:    machine.SpecForQ(m.Q),
		K:       m.MaxSpeed,
		Nodes:   pt.Ranks, TasksPerNode: 1, ThreadsPerTask: pt.Threads,
		NX: sw.Dims[0], NY: sw.Dims[1], NZ: sw.Dims[2],
		Decomp: pt.Decomp,
		Steps:  sw.Steps,
		Depth:  pt.Depth,
		Opt:    pt.Opt,
		Fused:  pt.Fused,
		Stream: pt.Stream,
		Seed:   1,
	}, nil
}

func runPointJob(j perfsim.Job, pt Point) (obs.PhaseSeconds, float64, error) {
	res, err := perfsim.Run(j)
	if err != nil {
		return obs.PhaseSeconds{}, 0, fmt.Errorf("tune: price %s: %w", pt.Label, err)
	}
	return obs.MeanPhases(res.RankPhases), res.Seconds, nil
}
