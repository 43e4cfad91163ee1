package main

import (
	"math"

	"repro/internal/collision"
	"repro/internal/core"
	"repro/internal/geom"
	"repro/internal/grid"
	"repro/internal/lattice"
	"repro/internal/metrics"
)

// A workload is one solver problem with one execution configuration. One
// operation (op) is one core.Run call of StepsPerOp steps; a run is a
// closed loop of ops, one after another, in a fresh process.
type workload struct {
	Name string
	// Why is the one-line reason the workload exists; BENCHMARK.json
	// carries the same sentence.
	Why        string
	StepsPerOp int
	// Ladder marks the workload whose traced run also measures the variant
	// ladder: the plain periodic BGK problem, the only one on which every
	// rung (no-ghost protocol, fused kernel, other operators) is legal.
	Ladder bool
	// dims returns the global grid: the benchmark size, or a tiny one with
	// the same shape constraints for the package's tests.
	dims func(tiny bool) grid.Dims
	// config builds the solver configuration (Steps left zero). Only the
	// initial fields depend on the seed: geometry, sizes and execution
	// switches never do, so the work per op is the same on every seed.
	config func(n grid.Dims, seed uint64) core.Config
}

// initJitter draws the seed-dependent part of every workload's inputs: a
// phase in [0, 2π) and a factor in [0.9, 1.1) applied to the amplitude of
// the initial wave (or to the lid speed of the cavity).
func initJitter(seed uint64) (phase, factor float64) {
	rng := metrics.NewRNG(seed)
	return rng.Range(0, 2*math.Pi), rng.Range(0.9, 1.1)
}

// shearWave is the initial condition of the periodic workloads: unit
// density (so the initial mass is exactly the fluid-cell count) and an
// x-velocity varying sinusoidally in y, plus a weaker z-velocity varying
// in x so every axis carries momentum.
func shearWave(n grid.Dims, amp, phase float64) core.InitFunc {
	return func(ix, iy, iz int) (rho, ux, uy, uz float64) {
		ux = amp * math.Sin(2*math.Pi*float64(iy)/float64(n.NY)+phase)
		uz = 0.5 * amp * math.Cos(2*math.Pi*float64(ix)/float64(n.NX)+phase)
		return 1, ux, 0, uz
	}
}

func cube(full, small int) func(bool) grid.Dims {
	return func(tiny bool) grid.Dims {
		if tiny {
			return grid.Dims{NX: small, NY: small, NZ: small}
		}
		return grid.Dims{NX: full, NY: full, NZ: full}
	}
}

var workloads = []workload{
	{
		Name:       "periodic-q19",
		Why:        "D3Q19 BGK 96^3 periodic, 1 rank x 1 thread: the plain single-threaded baseline, 99% slab stream+collide kernels, no messages, no fixups",
		StepsPerOp: 10,
		Ladder:     true,
		dims:       cube(96, 16),
		config: func(n grid.Dims, seed uint64) core.Config {
			phase, f := initJitter(seed)
			return core.Config{
				Model: lattice.D3Q19(), N: n, Tau: 0.8,
				Opt: core.OptSIMD, Ranks: 1, Threads: 1,
				Init: shearWave(n, 0.02*f, phase),
			}
		},
	},
	{
		Name:       "halo-q39",
		Why:        "D3Q39 BGK 24x96x96 periodic, 2 slab ranks under GC-C: the paper's lattice at its worst surface-to-volume, where rim, pack and wire outweigh the interior",
		StepsPerOp: 20,
		dims: func(tiny bool) grid.Dims {
			if tiny {
				return grid.Dims{NX: 12, NY: 12, NZ: 12}
			}
			return grid.Dims{NX: 24, NY: 96, NZ: 96}
		},
		config: func(n grid.Dims, seed uint64) core.Config {
			phase, f := initJitter(seed)
			return core.Config{
				Model: lattice.D3Q39(), N: n, Tau: 0.9,
				Opt: core.OptGCC, Ranks: 2, Threads: 1,
				Init: shearWave(n, 0.02*f, phase),
			}
		},
	},
	{
		Name:       "cavity-trt",
		Why:        "D3Q19 TRT lid-driven cavity 64^3 at Re 100, 1 rank x 2 threads: box stepper, operator-row collide, pool chunk queue, wall fixups and face fills",
		StepsPerOp: 20,
		dims:       cube(64, 16),
		config: func(n grid.Dims, seed uint64) core.Config {
			_, f := initJitter(seed)
			m := lattice.D3Q19()
			const lid, re = 0.1, 100.0
			return core.Config{
				Model: m, N: n,
				// The viscosity is fixed by the nominal lid speed, so the
				// seed moves the Reynolds number by at most 10%, not tau.
				Tau:       m.TauForViscosity(lid * float64(n.NY) / re),
				Collision: collision.Spec{Kind: collision.TRT},
				Boundary:  core.CavitySpec(lid * f),
				Opt:       core.OptSIMD, Ranks: 1, Threads: 2,
			}
		},
	},
	{
		Name:       "bifurcation-sparse",
		Why:        "D3Q19 BGK 192x96x96 vessel mask (95% solid), forced, 2 fluid-balanced ranks with sparse row runs: dense-plane halo traffic and set-up dominate the kernels",
		StepsPerOp: 40,
		dims: func(tiny bool) grid.Dims {
			if tiny {
				return grid.Dims{NX: 48, NY: 24, NZ: 24}
			}
			return grid.Dims{NX: 192, NY: 96, NZ: 96}
		},
		config: func(n grid.Dims, seed uint64) core.Config {
			phase, f := initJitter(seed)
			return core.Config{
				Model: lattice.D3Q19(), N: n, Tau: 0.8,
				Solid: geom.Bifurcation(n, 0.1*float64(n.NY)),
				Accel: [3]float64{1e-5, 0, 0},
				Opt:   core.OptGCC, Ranks: 2, Threads: 1,
				Sparse:  true,
				Balance: core.BalanceFluid,
				Init:    shearWave(n, 0.005*f, phase),
			}
		},
	},
}

func workloadByName(name string) *workload {
	for i := range workloads {
		if workloads[i].Name == name {
			return &workloads[i]
		}
	}
	return nil
}

// referenceConfig is the configuration every workload is checked against:
// the same physics on a plain execution path — one rank, one thread,
// two-grid, dense traversal, volume cuts, and the lowest rung of the ladder
// a run can afford. That rung is OptDH: blocking ghost-cell exchange and
// the generic per-velocity collision, none of the pair-symmetric, blocked,
// overlapped or sparse code the workloads run. OptGC, one rung lower,
// computes the same field at a third of the speed (7 s for six steps of
// the masked workload's dense grid), more than a run's time allows.
func referenceConfig(cfg core.Config) core.Config {
	cfg.Opt = core.OptDH
	cfg.Ranks, cfg.Threads = 1, 1
	cfg.Decomp = [3]int{}
	cfg.Stream = core.StreamTwoGrid
	cfg.Fused, cfg.Sparse = false, false
	cfg.Balance = core.BalanceVolume
	return cfg
}

// workers is the number of OS-level workers a configuration keeps busy.
func workers(cfg core.Config) int { return max(cfg.Ranks, 1) * max(cfg.Threads, 1) }
