package core

// The bounce-back links on a boundary-heavy mask (the arterial-geometry
// regime), inside the full masked step of GC-C's split path: stream, then
// the row body, which applies each row's links before relaxing it. Part of
// the CI benchmark smoke sweep, and of CI's kernel floors.

import (
	"testing"

	"repro/internal/comm"
	"repro/internal/decomp"
	"repro/internal/grid"
	"repro/internal/lattice"
)

// benchMaskedStepper builds a single-rank cart stepper over a ~20% solid
// noise mask.
func benchMaskedStepper(b *testing.B, n grid.Dims) *cartStepper {
	b.Helper()
	cfg := &Config{
		Model: lattice.D3Q19(), N: n, Tau: 0.8, Steps: 1,
		Opt: OptGCC, Ranks: 1, Threads: 1, GhostDepth: 1,
		Init: waveInit(n), Solid: noiseMask(n, 7),
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

// BenchmarkMaskedStep is the full masked step over the owned box, as the
// split path runs it (streamRows: each block streamed, then its links and
// collide in the row body).
func BenchmarkMaskedStep(b *testing.B) {
	cs := benchMaskedStepper(b, benchDims)
	owned := cs.ownedBox()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		cs.next(0, owned)
	}
	reportCellRate(b, owned.cells())
}
