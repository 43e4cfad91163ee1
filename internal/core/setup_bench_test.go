package core

import (
	"math"
	"testing"
	"time"

	"repro/internal/collision"
	"repro/internal/geom"
	"repro/internal/grid"
	"repro/internal/halo"
	"repro/internal/lattice"
)

// BenchmarkSetup times the set-up passes core.Run makes outside its
// stepping loop, in ns per owned cell, on the benchmark ledger's four
// problems: periodic-q19's (D3Q19 BGK 96³ with a shear wave, one thread),
// halo-q39's (D3Q39 BGK 24×96×96 on 2 slab ranks at GC-C, timed on rank
// 0, whose fields are packed: each velocity holds only the x-planes it
// touches), the 64³ TRT lid-driven cavity (two threads) and
// bifurcation-sparse's 192×96×96 vessel (2 fluid-balanced ranks at GC-C
// under the run index, timed on rank 0). Each iteration times what an op
// of the ledger pays: the decomposition Run builds serially before any
// rank starts
// (decomp-ns/cell: on the vessel the fluid-balanced cut over the mask's
// plane histograms), releasing the previous fields (release-ns/cell, the
// munmap Run's close does), buildMask on a masked or walled run
// (mask-ns/cell: the mask's rows and their fluid runs), allocating fresh
// fields (alloc-ns/cell: map, advise and prefault), initField
// (init-ns/cell), buildFixups on a masked or walled run (fixups-ns/cell),
// the halo's span lists (halo-ns/cell: NewCartExchangerClipped) and
// ownedSums (sums-ns/cell).
func BenchmarkSetup(b *testing.B) {
	periodic := grid.Dims{NX: 96, NY: 96, NZ: 96}
	slab := grid.Dims{NX: 24, NY: 96, NZ: 96}
	cavity := grid.Dims{NX: 64, NY: 64, NZ: 64}
	vessel := grid.Dims{NX: 192, NY: 96, NZ: 96}
	q19 := lattice.D3Q19()
	problems := []struct {
		name string
		cfg  Config
	}{
		{"periodic-q19", Config{Model: q19, N: periodic, Tau: 0.8, Opt: OptSIMD, Threads: 1, Init: shearInit(periodic)}},
		{"halo-q39", Config{Model: lattice.D3Q39(), N: slab, Tau: 0.9, Opt: OptGCC, Ranks: 2, Threads: 1, Init: shearInit(slab)}},
		{"cavity-trt", Config{Model: q19, N: cavity, Tau: q19.TauForViscosity(0.1 * 64 / 100),
			Collision: collision.Spec{Kind: collision.TRT}, Boundary: CavitySpec(0.1), Opt: OptSIMD, Threads: 2}},
		{"bifurcation-sparse", Config{Model: q19, N: vessel, Tau: 0.8, Solid: geom.Bifurcation(vessel, 0.1*float64(vessel.NY)),
			Opt: OptGCC, Ranks: 2, Threads: 1, Sparse: true, Balance: BalanceFluid, Init: shearInit(vessel)}},
	}
	for _, p := range problems {
		b.Run(p.name, func(b *testing.B) {
			onRanks(b, p.cfg, func(cs *cartStepper) {
				if cs.r.ID != 0 {
					return
				}
				masked := cs.class[0] != nil
				var stored halo.Clip
				if cs.runStart != nil {
					stored = cs.boxSegs
				}
				var dec, release, mask, alloc, init, fixups, ex, sums time.Duration
				for i := 0; i < b.N; i++ {
					d0 := time.Now()
					if _, err := cs.cfg.decomposition(); err != nil {
						b.Fatal(err)
					}
					r0 := time.Now()
					cs.releaseFields()
					t0 := time.Now()
					fluid := cs.buildMask()
					t1 := time.Now()
					cs.allocFields()
					t2 := time.Now()
					cs.initField()
					t3 := time.Now()
					if fluid != nil {
						cs.buildFixups(fluid)
					}
					t4 := time.Now()
					if _, err := halo.NewCartExchangerClipped(cs.model.Q, cs.d, cs.own, cs.w, cs.r.ID, cs.ex.Neighbors, stored, cs.cfg.faceVelocities(cs.w)); err != nil {
						b.Fatal(err)
					}
					h4 := time.Now()
					cs.ownedSums()
					t5 := time.Now()
					dec, release, mask, alloc = dec+r0.Sub(d0), release+t0.Sub(r0), mask+t1.Sub(t0), alloc+t2.Sub(t1)
					init, fixups, ex, sums = init+t3.Sub(t2), fixups+t4.Sub(t3), ex+h4.Sub(t4), sums+t5.Sub(h4)
				}
				perCell := func(d time.Duration) float64 {
					return float64(d.Nanoseconds()) / float64(b.N*cs.own[0]*cs.own[1]*cs.own[2])
				}
				b.ReportMetric(perCell(dec), "decomp-ns/cell")
				b.ReportMetric(perCell(release), "release-ns/cell")
				if masked {
					b.ReportMetric(perCell(mask), "mask-ns/cell")
				}
				b.ReportMetric(perCell(alloc), "alloc-ns/cell")
				b.ReportMetric(perCell(init), "init-ns/cell")
				if masked {
					b.ReportMetric(perCell(fixups), "fixups-ns/cell")
				}
				b.ReportMetric(perCell(ex), "halo-ns/cell")
				b.ReportMetric(perCell(sums), "sums-ns/cell")
			})
		})
	}
}

// shearInit is the benchmark ledger's periodic initial condition at phase
// 0: unit density, u_x varying sinusoidally in y and a weaker u_z in x.
func shearInit(n grid.Dims) InitFunc {
	return func(ix, iy, iz int) (rho, ux, uy, uz float64) {
		ux = 0.02 * math.Sin(2*math.Pi*float64(iy)/float64(n.NY))
		uz = 0.01 * math.Cos(2*math.Pi*float64(ix)/float64(n.NX))
		return 1, ux, 0, uz
	}
}
