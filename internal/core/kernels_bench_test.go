package core

import (
	"fmt"
	"math/rand"
	"testing"
	"time"

	"repro/internal/collision"
	"repro/internal/comm"
	"repro/internal/geom"
	"repro/internal/lattice"

	"repro/internal/grid"
)

// benchStepper builds a single-rank periodic stepper with valid ghosts for
// white-box kernel benchmarking: the x-only ghost geometry, or — ghosted —
// ghost layers on all three axes (Sparse without a mask changes nothing
// but the geometry).
func benchStepper(b *testing.B, m *lattice.Model, opt OptLevel, spec collision.Spec, ghosted bool) *cartStepper {
	b.Helper()
	cs := buildStepper(b, Config{
		Model: m, N: benchDims, Tau: 0.8, Steps: 1,
		Opt: opt, Ranks: 1, Threads: 1, GhostDepth: 1,
		Collision: spec, Sparse: ghosted, Init: waveInit(benchDims),
	})
	cs.initField()
	cs.refreshAxes([3]bool{true, true, true}) // one rank: local wraps only
	return cs
}

// geoName labels a benchmark case by its ghost geometry.
func geoName(ghosted bool) string {
	if ghosted {
		return "/ghosted"
	}
	return "/x-only"
}

var benchDims = grid.Dims{NX: 32, NY: 32, NZ: 32}

// reportCellRate reports a kernel benchmark's rate both ways: Mcell/s, and
// ns/cell — the unit in which a stream and a collide kernel add up to a
// step.
func reportCellRate(b *testing.B, cells int) {
	perCell := b.Elapsed().Seconds() / (float64(cells) * float64(b.N))
	b.ReportMetric(1e-6/perCell, "Mcell/s")
	b.ReportMetric(1e9*perCell, "ns/cell")
}

// floorCells is the run length of the compute-floor cases: one row of the
// benchmark workloads' 96-cell z lines, so a lattice's rows and the
// kernel's scratch rows stay in cache and ns/cell is the kernel's
// arithmetic alone.
const floorCells = 96

// Streaming kernels (the DH ladder step isolated), each form in both
// ghost geometries, and the sparse stream (runs) over fluid-compact
// fields in ns per stored cell: on the bifurcation mask of
// BenchmarkSparseStep, and on a z-striped porous mask with a one-cell run
// every two cells, where the run merge's per-run cost is the whole kernel.
func BenchmarkStreamKernels(b *testing.B) {
	masks := []struct {
		name string
		mask *geom.Mask
	}{
		{"bifurcation", bifurcationBenchMask()},
		{"porous", geom.FromFunc(benchDims, func(ix, iy, iz int) bool { return iz%2 == 1 })},
	}
	for _, m := range []*lattice.Model{lattice.D3Q19(), lattice.D3Q39()} {
		for _, c := range masks {
			b.Run(m.Name+"/runs/"+c.name, func(b *testing.B) {
				cs := benchSparseStepper(b, m, c.mask, true)
				owned := cs.ownedBox()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					cs.stream(0, owned)
				}
				reportCellRate(b, c.mask.Fluids())
			})
		}
		for _, c := range []struct {
			name string
			opt  OptLevel
		}{{"scalar", OptGC}, {"copy", OptDH}, {"indexed", OptLoBr}} {
			for _, ghosted := range []bool{false, true} {
				b.Run(m.Name+"/"+c.name+geoName(ghosted), func(b *testing.B) {
					cs := benchStepper(b, m, c.opt, collision.Spec{}, ghosted)
					owned := cs.ownedBox()
					b.ResetTimer()
					for i := 0; i < b.N; i++ {
						cs.stream(0, owned)
					}
					reportCellRate(b, owned.cells())
				})
			}
		}
	}
}

// benchRowKernel times c's row kernel over every row of src → dst in the
// three view shapes its callers form: in-place full rows (slab and dense
// box), 16-cell z-runs (the short runs sparse traversal feeds it), and
// gathered scratch rows (the gather sweep: in and out cache-resident) — and
// on one floorCells-long row of its own, the kernel's compute floor, and
// one spanCells-long row, a full span of the row body: against run16 and
// gathered96, what a relax call's set-up costs per cell.
func benchRowKernel(b *testing.B, name string, c *collider, src, dst *grid.Field) {
	d := src.D
	nz, cells := d.NZ, d.Cells()
	sc := newScratches(1, src.Q, nz, c.op)[0]
	gin, gout := sc.gathered(nz), sc.scattered(nz)
	for v := range gin {
		copy(gin[v], src.V(v)[:nz])
	}
	rng := rand.New(rand.NewSource(1))
	fsc := newScratches(1, src.Q, floorCells, c.op)[0]
	fin, fout := randomRows(rng, c.model, floorCells), randomRows(rng, c.model, floorCells)
	sin, sout := randomRows(rng, c.model, spanCells), randomRows(rng, c.model, spanCells)
	shapes := []struct {
		name  string
		cells int
		run   func()
	}{
		{"row", cells, func() {
			for base := 0; base < cells; base += nz {
				c.relax(sc, rowViews(sc.sv, src, base, nz), rowViews(sc.dv, dst, base, nz), nz)
			}
		}},
		{"run16", cells, func() {
			for base := 0; base+16 <= cells; base += 16 {
				c.relax(sc, rowViews(sc.sv, src, base, 16), rowViews(sc.dv, dst, base, 16), 16)
			}
		}},
		{"gathered", cells, func() {
			for base := 0; base < cells; base += nz {
				c.relax(sc, gin, gout, nz)
			}
		}},
		{"gathered96", floorCells, func() { c.relax(fsc, fin, fout, floorCells) }},
		{"span384", spanCells, func() { c.relax(fsc, sin, sout, spanCells) }},
	}
	for _, sh := range shapes {
		b.Run(name+"/"+sh.name, func(b *testing.B) {
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				sh.run()
			}
			reportCellRate(b, sh.cells)
		})
	}
}

// The ladder's BGK row kernels (naive vs row-generic vs pair-symmetric,
// and the SIMD rung's pair kernel on its vector row bodies where the host
// has them: simd on the 4-wide AVX2 table, simd8 on the 8-wide AVX-512
// one where the host runs it), TRT's pair kernel on the Go and the vector
// bodies (…-trt),
// and the pair kernels' moment pass alone (pairMoments + velocities) on a
// floorCells-long row and on a spanCells-long one: with gathered96 and BenchmarkStreamKernels'
// indexed case, a lattice's compute floor and its stream as ns/cell.
func BenchmarkCollideKernels(b *testing.B) {
	trt := collision.Spec{Kind: collision.TRT}
	for _, m := range []*lattice.Model{lattice.D3Q19(), lattice.D3Q39()} {
		for _, c := range []struct {
			name string
			opt  OptLevel
			spec collision.Spec
			wide bool // the 8-wide table; else the SIMD rung binds the AVX2 one (testAVX2)
		}{
			{"naive", OptGC, collision.Spec{}, false}, {"rowGeneric", OptDH, collision.Spec{}, false},
			{"paired", OptCF, collision.Spec{}, false}, {"simd", OptSIMD, collision.Spec{}, false},
			{"simd8", OptSIMD, collision.Spec{}, true},
			{"paired-trt", OptCF, trt, false}, {"simd-trt", OptSIMD, trt, false}, {"simd8-trt", OptSIMD, trt, true},
		} {
			if c.wide && VectorBodies() != "avx512" {
				continue
			}
			testAVX2 = !c.wide
			st := benchStepper(b, m, c.opt, c.spec, false)
			testAVX2 = false
			benchRowKernel(b, m.Name+"/"+c.name, &st.collider, st.f, st.fadv)
			if c.opt < OptCF || !c.spec.IsBGK() {
				continue
			}
			for _, zn := range []int{floorCells, spanCells} {
				b.Run(fmt.Sprintf("%s/%s/moments%d", m.Name, c.name, zn), func(b *testing.B) {
					rb := newRowBufs(zn, m.Q)
					in := randomRows(rand.New(rand.NewSource(1)), m, zn)
					b.ResetTimer()
					for i := 0; i < b.N; i++ {
						r := rowsFor(st.vec, zn)
						st.pairMoments(r, &rb, in, nil, zn)
						st.velocities(r, &rb, zn)
					}
					reportCellRate(b, zn)
				})
			}
		}
	}
}

// Fused kernel vs split stream+collide at the kernel level, over the
// owned box in both ghost geometries: GC-C's split path (streamRows)
// relaxes in-place row views of the block it just streamed into fadv, the
// SIMD rung's gather sweep the upwind rows of f.
func BenchmarkFusedKernel(b *testing.B) {
	for _, m := range []*lattice.Model{lattice.D3Q19(), lattice.D3Q39()} {
		for _, ghosted := range []bool{false, true} {
			geo := geoName(ghosted)
			b.Run(m.Name+geo+"/split", func(b *testing.B) {
				cs := benchStepper(b, m, OptGCC, collision.Spec{}, ghosted)
				owned := cs.ownedBox()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					cs.next(0, owned)
				}
				reportCellRate(b, owned.cells())
			})
			b.Run(m.Name+geo+"/fused", func(b *testing.B) {
				cs := benchStepper(b, m, OptSIMD, collision.Spec{}, ghosted)
				owned := cs.ownedBox()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					cs.gather(0, owned)
					cs.f, cs.fadv = cs.fadv, cs.f
				}
				reportCellRate(b, owned.cells())
			})
		}
	}
}

// The row body (gatherSpan) on cache-resident rows of two benchmark
// problems, on one thread: periodic-q19's D3Q19 slab and halo-q39's D3Q39
// slab rank, 96-cell z rows with ghosts on x only (y and z wrap). row is a
// span of one row, what a row costs that cannot join its neighbours (z
// ghosts); span the full span of spanCells/96 consecutive rows of an
// x-plane, one relax call for all of them. views reads the plain-slice
// upwind rows of f in place, as the two-field sweep does; copy gathers
// every row into the worker's rows first, as AA must. The difference is
// what the views save per cell.
func BenchmarkGatherRow(b *testing.B) {
	for _, m := range []*lattice.Model{lattice.D3Q19(), lattice.D3Q39()} {
		cs := buildStepper(b, Config{
			Model: m, N: grid.Dims{NX: 8, NY: 8, NZ: 96}, Tau: 0.8, Steps: 1,
			Opt: OptSIMD, Ranks: 1, Threads: 1, GhostDepth: 1,
		})
		cs.initField()
		cs.refreshAxes([3]bool{true, true, true})
		sc, ix, nz := cs.scratch[0], cs.w[0]+cs.own[0]/2, cs.d.NZ
		for _, shape := range []struct {
			name string
			rows int
		}{{"row", 1}, {"span", spanCells / nz}} {
			for _, views := range []bool{false, true} {
				name := m.Name + "/" + shape.name + "/copy"
				if views {
					name = m.Name + "/" + shape.name + "/views"
				}
				b.Run(name, func(b *testing.B) {
					cs.views = views
					for i := 0; i < b.N; i++ {
						for iy := 2; iy < 2+shape.rows; iy++ {
							sc.span = append(sc.span, spanRow{ix: ix, iy: iy, zn: nz, base: cs.d.Index(ix, iy, 0)})
						}
						cs.gatherSpan(sc)
					}
					reportCellRate(b, shape.rows*nz)
				})
			}
		}
		cs.close()
	}
}

// The SIMD rung's sweep over periodic-q19's problem on one thread: the
// owned box of a 96³ D3Q19 BGK field, whose two fields (137 MB each) are
// far larger than the last-level cache, so every store of the next field
// reaches memory. stream runs it as shipped (the host's widest table's
// streaming twin, the moment pass prefetching the next span's upwind rows),
// plain with the table's ordinary stores (testPlainStores), noahead with no
// prefetch table (testNoAhead), avx2 as shipped on the 4-wide AVX2 table
// (testAVX2). stream against plain is the write-allocate read of each
// destination line that streaming stores skip; stream against noahead is
// the DRAM wait of the upwind reads that the prefetches overlap with the
// previous span's arithmetic; stream against avx2 is the 8-wide table's
// gain where the host runs it (the same table otherwise).
func BenchmarkSweepStep(b *testing.B) {
	n := grid.Dims{NX: 96, NY: 96, NZ: 96}
	for _, c := range []struct {
		name                 string
		plain, noAhead, avx2 bool
	}{{"stream", false, false, false}, {"plain", true, false, false}, {"noahead", false, true, false}, {"avx2", false, false, true}} {
		b.Run(c.name, func(b *testing.B) {
			testPlainStores, testNoAhead, testAVX2 = c.plain, c.noAhead, c.avx2
			defer func() { testPlainStores, testNoAhead, testAVX2 = false, false, false }()
			cs := buildStepper(b, Config{
				Model: lattice.D3Q19(), N: n, Tau: 0.8, Steps: 1,
				Opt: OptSIMD, Ranks: 1, Threads: 1, GhostDepth: 1, Init: waveInit(n),
			})
			defer cs.close()
			cs.initField()
			cs.refreshAxes([3]bool{true, true, true})
			owned := cs.ownedBox()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				cs.gather(0, owned)
				cs.f, cs.fadv = cs.fadv, cs.f
			}
			reportCellRate(b, owned.cells())
		})
	}
}

// GC-C's split step over halo-q39's rank on one thread: a 12×96×96 owned
// box with ghosts on x only, whose fields (52 MB each on D3Q39) are far
// larger than L2. passes streams the whole box, then runs the row body
// over it, so the row body reads back from memory the fadv rows the
// stream wrote; blocked is the shipped kernel (streamRows), which relaxes
// each block of rows right after streaming it. The gap is fadv's memory
// round trip between the two passes.
func BenchmarkSplitStep(b *testing.B) {
	n := grid.Dims{NX: 12, NY: 96, NZ: 96}
	for _, m := range []*lattice.Model{lattice.D3Q39(), lattice.D3Q19()} {
		cs := buildStepper(b, Config{
			Model: m, N: n, Tau: 0.8, Steps: 1,
			Opt: OptGCC, Ranks: 1, Threads: 1, GhostDepth: 1, Init: waveInit(n),
		})
		cs.initField()
		cs.refreshAxes([3]bool{true, true, true})
		owned := cs.ownedBox()
		for _, c := range []struct {
			name string
			run  func()
		}{
			{"passes", func() { cs.stream(0, owned); cs.gather(0, owned) }},
			{"blocked", func() { cs.next(0, owned) }},
		} {
			b.Run(m.Name+"/"+c.name, func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					c.run()
				}
				reportCellRate(b, owned.cells())
			})
		}
		cs.close()
	}
}

// Halo exchange cost per depth (pack+local wrap of the x faces).
func BenchmarkHaloLocalExchange(b *testing.B) {
	for _, depth := range []int{1, 2, 4} {
		b.Run(string(rune('0'+depth)), func(b *testing.B) {
			cs := buildStepper(b, Config{
				Model: lattice.D3Q19(), N: benchDims, Tau: 0.8, Steps: 1,
				Opt: OptSIMD, Ranks: 1, Threads: 1, GhostDepth: depth,
			})
			cs.initField()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				cs.ex.ExchangeAxis(cs.r, cs.f, 0, false)
			}
		})
	}
}

// One full halo exchange — the x-face messages and the y and z local
// wraps — on the two fluid-balanced rank boxes of the 192×96×96
// bifurcation mask (the benchmark's sparse workload), under the GC-C
// protocol: dense faces against the fluid-span faces the run index
// installs. MB/s is rank 0's wire payload. The warm-up puts two exchanges'
// x borders in flight at once — as far as one rank can run ahead of the
// other — so the fabric's pair pools hold every slot the timed loop can
// ask for, and -benchmem must then report 0 allocs/op: faces are packed
// into and unpacked out of recycled slots.
func BenchmarkSparseExchange(b *testing.B) {
	n := grid.Dims{NX: 192, NY: 96, NZ: 96}
	mask := geom.Bifurcation(n, 0.1*float64(n.NY))
	for _, c := range []struct {
		name   string
		sparse bool
	}{{"dense-faces", false}, {"fluid-spans", true}} {
		b.Run(c.name, func(b *testing.B) {
			cfg := &Config{
				Model: lattice.D3Q19(), N: n, Tau: 0.8, Steps: 1,
				Opt: OptGCC, Ranks: 2, Threads: 1, GhostDepth: 1,
				Solid: mask, Balance: BalanceFluid, Sparse: c.sparse,
			}
			dec, err := cfg.init()
			if err != nil {
				b.Fatal(err)
			}
			if err := comm.NewFabric(cfg.Ranks).Run(func(r *comm.Rank) error {
				cs, err := newCartStepper(cfg, dec, r)
				if err != nil {
					return err
				}
				defer cs.close()
				cs.initField()
				cs.ex.SendBordersAxis(r, cs.f, 0)
				cs.ex.SendBordersAxis(r, cs.f, 0)
				r.Barrier() // no slot comes back before all four are out
				for i := 0; i < 2; i++ {
					cs.ex.PostRecvsAxis(r, 0)
					cs.ex.WaitUnpackAxis(r, cs.f, 0)
				}
				cs.ex.ExchangeAll(r, cs.f, true)
				r.Barrier()
				// Rank 0 keeps the clock: its exchanges cannot complete
				// without rank 1's.
				if r.ID == 0 {
					var payload int64
					for _, bytes := range cs.axisBytes() {
						payload += bytes
					}
					b.SetBytes(payload)
					b.ResetTimer()
				}
				for i := 0; i < b.N; i++ {
					cs.ex.ExchangeAll(r, cs.f, true)
				}
				if r.ID == 0 {
					b.StopTimer()
				}
				return nil
			}); err != nil {
				b.Fatal(err)
			}
		})
	}
}

// Ghosts on every axis: interior box and per-axis rim slabs of the GC-C
// schedule, and the full owned box, for the stream and pair-symmetric
// in-place collide kernels (the regression baseline the overlapped
// schedule rides on).
func BenchmarkBoxKernels(b *testing.B) {
	m := lattice.D3Q19()
	cs := benchStepper(b, m, OptGCC, collision.Spec{}, true)
	owned := cs.ownedBox()
	plan := planStep(owned, cs.own, cs.w, cs.k, [3]bool{true, true, true})
	cases := []struct {
		name string
		run  func()
		box  box
	}{
		{"stream/full", func() { cs.stream(0, owned) }, owned},
		{"stream/interior", func() { cs.stream(0, plan.interior) }, plan.interior},
		{"collide/full", func() { cs.gather(0, owned) }, owned},
		{"collide/interior", func() { cs.gather(0, plan.interior) }, plan.interior},
		{"rims/x", func() { cs.advanceRims(plan, 0) }, plan.rims[0][0]},
	}
	for _, c := range cases {
		b.Run(m.Name+"/"+c.name, func(b *testing.B) {
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				c.run()
			}
			reportCellRate(b, c.box.cells())
		})
	}
}

// Operator row kernels: the per-cell reference vs the row kernel (TRT's
// fused pair kernel, MRT's RowRelaxer form), against the BGK
// pair-symmetric kernel as the yardstick.
func BenchmarkBoxCollideOperator(b *testing.B) {
	for _, m := range []*lattice.Model{lattice.D3Q19(), lattice.D3Q39()} {
		cs := benchStepper(b, m, OptSIMD, collision.Spec{}, true)
		benchRowKernel(b, m.Name+"/bgk-fastpath", &cs.collider, cs.f, cs.fadv)
		for _, spec := range []collision.Spec{{Kind: collision.TRT}, {Kind: collision.MRT}} {
			var c collider
			if err := c.init(&Config{Model: m, Tau: 0.8, Opt: OptSIMD, Collision: spec}); err != nil {
				b.Fatal(err)
			}
			benchRowKernel(b, m.Name+"/"+spec.String()+"/rows", &c, cs.f, cs.fadv)
			c.relax = c.relaxOpCell
			benchRowKernel(b, m.Name+"/"+spec.String()+"/percell", &c, cs.f, cs.fadv)
		}
	}
}

// End-to-end box exchange protocols on a pencil with a simulated wire
// delay: the GC-C overlap must not be slower than NB-C once messages
// cost real time (the acceptance bar of the per-axis schedule). The wire
// time is milliseconds because time.Sleep resolves no finer (~1 ms on
// typical kernels), with the domain sized so one rank's interior compute
// is of the same order and can genuinely hide it.
func BenchmarkBoxExchangeProtocols(b *testing.B) {
	n := grid.Dims{NX: 64, NY: 64, NZ: 64}
	delay := func(src, dst, bytes int) time.Duration { return 2 * time.Millisecond }
	cases := []struct {
		name string
		opt  OptLevel
	}{
		{"nbc", OptNBC},
		{"gcc", OptGCC},
		{"simd", OptSIMD}, // the GC-C schedule, stepped by the gather sweep
	}
	for _, c := range cases {
		b.Run(c.name, func(b *testing.B) {
			var mflups float64
			for i := 0; i < b.N; i++ {
				res, err := Run(Config{
					Model: lattice.D3Q19(), N: n, Tau: 0.8, Steps: 10,
					Opt: c.opt, Ranks: 4, Decomp: [3]int{2, 2, 1}, Threads: 1, GhostDepth: 1,
					Init:   waveInit(n),
					Fabric: comm.NewFabric(4).WithDelay(delay),
				})
				if err != nil {
					b.Fatal(err)
				}
				mflups += res.MFlups
			}
			b.ReportMetric(mflups/float64(b.N), "MFlup/s")
		})
	}
}

// Whole-step thread scaling: full runs through the persistent worker
// pool, on the periodic slab (x-only ghosts) and on a TRT lid-driven cavity
// (ghosts on x and y, z wrapped, bounce-back fixups, face fills — every threaded
// path of a bounded step). On multi-core hosts Mcell/s rises with the thread
// count; the CI smoke sweep executes one iteration of each case to keep
// the pool dispatch paths compiling and running.
func BenchmarkThreadedStep(b *testing.B) {
	m := lattice.D3Q19()
	n := grid.Dims{NX: 48, NY: 32, NZ: 32}
	const steps = 5
	cases := []struct {
		name    string
		threads int
		spec    collision.Spec
		cavity  bool
	}{
		{"bgk/1t", 1, collision.Spec{}, false},
		{"bgk/4t", 4, collision.Spec{}, false},
		{"trt-cavity/1t", 1, collision.Spec{Kind: collision.TRT}, true},
		{"trt-cavity/4t", 4, collision.Spec{Kind: collision.TRT}, true},
	}
	for _, c := range cases {
		b.Run(c.name, func(b *testing.B) {
			cfg := Config{
				Model: m, N: n, Tau: 0.7, Steps: steps,
				Opt: OptSIMD, Ranks: 1, Threads: c.threads, GhostDepth: 1,
				Collision: c.spec, Init: waveInit(n),
			}
			if c.cavity {
				cfg.Boundary = CavitySpec(0.05)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := Run(cfg); err != nil {
					b.Fatal(err)
				}
			}
			reportCellRate(b, steps*n.Cells())
		})
	}
}

// The collide per operator over the owned box, as GC-C's split path runs
// it: the row body over the rows the stream left in fadv (TRT and MRT relax
// through their operator row kernels; BGK is the ladder's pair-symmetric
// kernel).
func BenchmarkCollideOperator(b *testing.B) {
	for _, m := range []*lattice.Model{lattice.D3Q19(), lattice.D3Q39()} {
		for _, spec := range []collision.Spec{{Kind: collision.BGK}, {Kind: collision.TRT}, {Kind: collision.MRT}} {
			b.Run(m.Name+"/"+spec.String(), func(b *testing.B) {
				cs := benchStepper(b, m, OptGCC, spec, false)
				owned := cs.ownedBox()
				cs.stream(0, owned)
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					cs.gather(0, owned)
				}
				reportCellRate(b, owned.cells())
			})
		}
	}
}

// Storage schemes end-to-end: the same 64-cubed periodic box stepped
// through the two-grid and AA in-place paths. AA touches one f array
// instead of two, so on a bandwidth-bound box it should post the
// higher Mcell/s and (with -benchmem) roughly half the steady-state
// field allocation. Even ghost depth on both keeps the exchange
// cadence identical (AA rounds odd depths up anyway).
func BenchmarkStreamScheme(b *testing.B) {
	m := lattice.D3Q19()
	n := grid.Dims{NX: 64, NY: 64, NZ: 64}
	const steps = 4
	for _, c := range []struct {
		name    string
		stream  StreamScheme
		threads int
	}{
		{"twogrid/1t", StreamTwoGrid, 1},
		{"aa/1t", StreamAA, 1},
		{"twogrid/4t", StreamTwoGrid, 4},
		{"aa/4t", StreamAA, 4},
	} {
		b.Run(c.name, func(b *testing.B) {
			cfg := Config{
				Model: m, N: n, Tau: 0.7, Steps: steps,
				Opt: OptSIMD, Ranks: 1, Threads: c.threads, GhostDepth: 2,
				Stream: c.stream, Init: waveInit(n),
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := Run(cfg); err != nil {
					b.Fatal(err)
				}
			}
			reportCellRate(b, steps*n.Cells())
		})
	}
}
