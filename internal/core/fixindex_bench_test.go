package core

// Fixup-path benchmarks on a boundary-heavy mask (the arterial-geometry
// regime): the per-box index as the isolated apply kernel on a rim slab —
// the phased schedule's unit of work — and inside the full masked
// stream+fixup+collide step. Part of the CI benchmark smoke sweep.

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
		Opt: OptSIMD, Ranks: 1, Threads: 1, GhostDepth: 1,
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

// BenchmarkFixupApply isolates the bounce-back apply on one y-rim slab of
// the owned box: the per-box index touches only the rim's rows.
func BenchmarkFixupApply(b *testing.B) {
	cs := benchMaskedStepper(b, benchDims)
	rim := cs.ownedBox()
	rim.hi[1] = rim.lo[1] + 2 // a two-layer y-rim, full x/z extent
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		cs.fix.applyBox(cs.f, cs.fadv, rim)
	}
	reportCellRate(b, rim.cells())
}

// BenchmarkMaskedStep is the full masked step (stream, fixups, collide
// over the owned box).
func BenchmarkMaskedStep(b *testing.B) {
	cs := benchMaskedStepper(b, benchDims)
	owned := cs.ownedBox()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		cs.streamBox(owned)
		cs.applyBounceBackBox(owned)
		cs.collideBox(owned)
	}
	reportCellRate(b, owned.cells())
}
