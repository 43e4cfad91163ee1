package core

// Sparse-traversal benchmark on the bifurcating-vessel demo mask (the
// ~95%-solid arterial regime): the same full masked step of GC-C's split
// path — stream, then the row body (links, collide) over the owned box —
// under dense traversal
// and under the row-run sparse traversal over fluid-compact fields. Both
// report a fluid-cell update rate and the memory their fields hold, so the
// sparse win shows as rate and as field_MB, not as skipped work. Part of
// the CI benchmark smoke sweep.

import (
	"testing"

	"repro/internal/comm"
	"repro/internal/decomp"
	"repro/internal/geom"
	"repro/internal/grid"
	"repro/internal/lattice"
)

// bifurcationBenchMask is the ~95 %-solid vessel the sparse benchmarks
// run on.
func bifurcationBenchMask() *geom.Mask {
	n := grid.Dims{NX: 64, NY: 32, NZ: 32}
	return geom.Bifurcation(n, 0.1*float64(n.NY))
}

// benchSparseStepper builds a single-rank GC-C cart stepper over a mask,
// with or without sparse row-run traversal.
func benchSparseStepper(b *testing.B, m *lattice.Model, mask *geom.Mask, sparse bool) *cartStepper {
	b.Helper()
	n := mask.D
	cfg := &Config{
		Model: m, N: n, Tau: 0.8, Steps: 1,
		Opt: OptGCC, Ranks: 1, Threads: 1, GhostDepth: 1,
		Init: waveInit(n), Solid: mask, Sparse: sparse,
	}
	if _, err := cfg.init(); err != nil {
		b.Fatal(err)
	}
	dec, err := decomp.NewCartesian([3]int{n.NX, n.NY, n.NZ}, [3]int{1, 1, 1})
	if err != nil {
		b.Fatal(err)
	}
	var cs *cartStepper
	fab := comm.NewFabric(1)
	if err := fab.Run(func(r *comm.Rank) error {
		cs, err = newCartStepper(cfg, dec, r)
		if err != nil {
			return err
		}
		cs.initField()
		cs.refreshAxes([3]bool{true, true, true})
		return nil
	}); err != nil {
		b.Fatal(err)
	}
	return cs
}

func BenchmarkSparseStep(b *testing.B) {
	mask := bifurcationBenchMask()
	for _, c := range []struct {
		name   string
		sparse bool
	}{{"dense", false}, {"sparse", true}} {
		b.Run(c.name, func(b *testing.B) {
			cs := benchSparseStepper(b, lattice.D3Q19(), mask, c.sparse)
			owned := cs.ownedBox()
			fluid := cs.cfg.Solid.Fluids()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				cs.next(0, owned)
			}
			reportCellRate(b, fluid)
			b.ReportMetric(float64(cs.fieldBytes())/(1<<20), "field_MB")
		})
	}
}
