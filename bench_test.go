// Benchmarks regenerating the paper's evaluation with the real kernels,
// one benchmark family per table/figure (DESIGN.md §6 maps each to its
// experiment id). Each reports MFlup/s — the paper's metric (Eq. 4) — as a
// custom benchmark metric alongside ns/op.
//
// Paper-scale counterparts run through the perfsim machine models; these
// are the laptop-scale measurements of the same trade-offs.
package repro_test

import (
	"fmt"
	"math"
	"testing"

	"repro"
	"repro/internal/experiments"
	"repro/internal/machine"
)

// benchInit is a smooth non-trivial initial condition.
func benchInit(n repro.Dims) repro.InitFunc {
	return func(ix, iy, iz int) (rho, ux, uy, uz float64) {
		x := 2 * math.Pi * float64(ix) / float64(n.NX)
		y := 2 * math.Pi * float64(iy) / float64(n.NY)
		return 1 + 0.02*math.Sin(x)*math.Cos(y), 0.01 * math.Sin(y), -0.01 * math.Cos(x), 0
	}
}

// runOnce executes a fixed-step simulation and reports MFlup/s.
func runOnce(b *testing.B, cfg repro.Config) {
	b.Helper()
	if cfg.Init == nil {
		cfg.Init = benchInit(cfg.N)
	}
	var mflups float64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := repro.Run(cfg)
		if err != nil {
			b.Fatal(err)
		}
		mflups = res.MFlups
	}
	b.ReportMetric(mflups, "MFlup/s")
}

// BenchmarkTable2Roofline evaluates the attainable-performance model
// (Table II) — cheap, but pins the analytic path into the benchmark suite.
func BenchmarkTable2Roofline(b *testing.B) {
	var sink repro.Bound
	for i := 0; i < b.N; i++ {
		for _, m := range []repro.Machine{repro.BGP(), repro.BGQ()} {
			sink = repro.MaxMFlups(m, machine.SpecD3Q19())
			sink = repro.MaxMFlups(m, machine.SpecD3Q39())
		}
	}
	_ = sink
}

// BenchmarkFig8OptLevels measures every optimization level for both
// lattices (the real-kernel Fig. 8).
func BenchmarkFig8OptLevels(b *testing.B) {
	for _, mk := range []func() *repro.Model{repro.D3Q19, repro.D3Q39} {
		model := mk()
		n := repro.Dims{NX: 48, NY: 24, NZ: 24}
		if model.Q == 39 {
			n = repro.Dims{NX: 32, NY: 16, NZ: 16}
		}
		for _, opt := range repro.OptLevels() {
			b.Run(fmt.Sprintf("%s/%s", model.Name, opt), func(b *testing.B) {
				runOnce(b, repro.Config{
					Model: model, N: n, Tau: 0.8, Steps: 10,
					Opt: opt, Ranks: 1, Threads: 1, GhostDepth: 1,
				})
			})
		}
	}
}

// BenchmarkFig9CommProtocols measures the three communication protocols of
// Fig. 9 over multiple ranks, reporting the maximum per-rank comm time.
func BenchmarkFig9CommProtocols(b *testing.B) {
	n := repro.Dims{NX: 64, NY: 16, NZ: 16}
	for _, cfg := range []struct {
		name string
		opt  repro.OptLevel
	}{
		{"Orig-noGC", repro.OptOrig},
		{"NB-C+GC", repro.OptNBC},
		{"GC-C", repro.OptGCC},
	} {
		b.Run(cfg.name, func(b *testing.B) {
			var maxComm float64
			var mflups float64
			for i := 0; i < b.N; i++ {
				res, err := repro.Run(repro.Config{
					Model: repro.D3Q19(), N: n, Tau: 0.8, Steps: 10,
					Opt: cfg.opt, Ranks: 4, Threads: 1, GhostDepth: 1,
					Init: benchInit(n),
				})
				if err != nil {
					b.Fatal(err)
				}
				maxComm = res.CommSummary().Max
				mflups = res.MFlups
			}
			b.ReportMetric(mflups, "MFlup/s")
			b.ReportMetric(1e3*maxComm, "maxcomm-ms")
		})
	}
}

// BenchmarkFig10DeepHaloQ19 sweeps ghost depth for D3Q19 (Fig. 10a).
func BenchmarkFig10DeepHaloQ19(b *testing.B) {
	n := repro.Dims{NX: 96, NY: 16, NZ: 16}
	for depth := 1; depth <= 4; depth++ {
		b.Run(fmt.Sprintf("GC%d", depth), func(b *testing.B) {
			runOnce(b, repro.Config{
				Model: repro.D3Q19(), N: n, Tau: 0.8, Steps: 12,
				Opt: repro.OptSIMD, Ranks: 2, Threads: 1, GhostDepth: depth,
			})
		})
	}
}

// BenchmarkFig10DeepHaloQ39 sweeps ghost depth for D3Q39 (Fig. 10b); note
// each depth unit is k=3 planes.
func BenchmarkFig10DeepHaloQ39(b *testing.B) {
	n := repro.Dims{NX: 96, NY: 12, NZ: 12}
	for depth := 1; depth <= 4; depth++ {
		b.Run(fmt.Sprintf("GC%d", depth), func(b *testing.B) {
			runOnce(b, repro.Config{
				Model: repro.D3Q39(), N: n, Tau: 0.9, Steps: 12,
				Opt: repro.OptSIMD, Ranks: 2, Threads: 1, GhostDepth: depth,
			})
		})
	}
}

// BenchmarkTable3RatioSweep measures the depth trade-off at two
// planes-per-rank ratios (the laptop analog of Tables III/IV).
func BenchmarkTable3RatioSweep(b *testing.B) {
	for _, ratio := range []int{8, 48} {
		for _, depth := range []int{1, 3} {
			b.Run(fmt.Sprintf("R%d/GC%d", ratio, depth), func(b *testing.B) {
				runOnce(b, repro.Config{
					Model: repro.D3Q19(), N: repro.Dims{NX: 2 * ratio, NY: 16, NZ: 16},
					Tau: 0.8, Steps: 12,
					Opt: repro.OptSIMD, Ranks: 2, Threads: 1, GhostDepth: depth,
				})
			})
		}
	}
}

// BenchmarkFig11Hybrid sweeps ranks×threads at a fixed worker budget
// (the laptop Fig. 11).
func BenchmarkFig11Hybrid(b *testing.B) {
	n := repro.Dims{NX: 48, NY: 16, NZ: 16}
	for _, c := range [][2]int{{1, 1}, {1, 2}, {1, 4}, {2, 1}, {2, 2}, {4, 1}} {
		b.Run(fmt.Sprintf("%dx%d", c[0], c[1]), func(b *testing.B) {
			runOnce(b, repro.Config{
				Model: repro.D3Q39(), N: n, Tau: 0.9, Steps: 8,
				Opt: repro.OptSIMD, Ranks: c[0], Threads: c[1], GhostDepth: 1,
			})
		})
	}
}

// BenchmarkLayoutAblation compares the SoA (collision-optimized, the
// paper's choice) and AoS layouts under identical naive kernels.
func BenchmarkLayoutAblation(b *testing.B) {
	n := repro.Dims{NX: 32, NY: 16, NZ: 16}
	for _, l := range []repro.Layout{repro.SoA, repro.AoS} {
		b.Run(l.String(), func(b *testing.B) {
			runOnce(b, repro.Config{
				Model: repro.D3Q19(), N: n, Tau: 0.8, Steps: 10,
				Opt: repro.OptGC, Ranks: 1, Threads: 1, GhostDepth: 1, Layout: l,
			})
		})
	}
}

// BenchmarkFusedVsSplit is the ablation for the paper's §VII future-work
// direction: the gather sweep the SIMD rung steps with touches 2·Q·8 bytes
// per cell per step against GC-C's split path's 3·Q·8, raising the
// bandwidth roofline.
func BenchmarkFusedVsSplit(b *testing.B) {
	for _, mk := range []func() *repro.Model{repro.D3Q19, repro.D3Q39} {
		model := mk()
		n := repro.Dims{NX: 48, NY: 24, NZ: 24}
		if model.Q == 39 {
			n = repro.Dims{NX: 32, NY: 16, NZ: 16}
		}
		for _, opt := range []repro.OptLevel{repro.OptGCC, repro.OptSIMD} {
			name := model.Name + "/split"
			if opt == repro.OptSIMD {
				name = model.Name + "/fused"
			}
			b.Run(name, func(b *testing.B) {
				runOnce(b, repro.Config{
					Model: model, N: n, Tau: 0.8, Steps: 10,
					Opt: opt, Ranks: 1, Threads: 1, GhostDepth: 1,
				})
			})
		}
	}
}

// BenchmarkPaperScaleSimulator measures the perfsim projection itself
// (the cost of regenerating a Fig. 8 point at 512 ranks).
func BenchmarkPaperScaleSimulator(b *testing.B) {
	job := repro.ClusterJob{
		Machine: repro.BGP(), Spec: machine.SpecD3Q19(), K: 1,
		Nodes: 128, TasksPerNode: 4, ThreadsPerTask: 1,
		NX: 128 * 4 * 64, NY: 64, NZ: 64,
		Steps: 50, Depth: 1, Opt: repro.OptSIMD,
		Imbalance: 0.05, Seed: 7,
	}
	var mflups float64
	for i := 0; i < b.N; i++ {
		res, err := repro.SimulateCluster(job)
		if err != nil {
			b.Fatal(err)
		}
		mflups = res.MFlups
	}
	b.ReportMetric(mflups, "simulated-MFlup/s")
}

// BenchmarkExperimentTables measures the full generator for the static
// tables (Table I/II rendering).
func BenchmarkExperimentTables(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiments.Generate("table1", ""); err != nil {
			b.Fatal(err)
		}
		if _, err := experiments.Generate("table2", ""); err != nil {
			b.Fatal(err)
		}
	}
}
