package core

import (
	"runtime"
	"testing"

	"repro/internal/collision"
	"repro/internal/comm"
	"repro/internal/geom"
	"repro/internal/grid"
	"repro/internal/lattice"
)

// TestStepAllocatesNothing is the test-level twin of the benchmark's
// core.mallocs_per_step: a run of 3N steps may allocate no more than a run
// of N steps does, beyond one object and 4 KiB per extra step. Everything
// a step touches — message slots, pending queues, pool batches, chunk
// lists, bound kernels, the row body's spans — is built in set-up or on
// first use and then reused. How many slots a pair's pool ends up holding (one exchange's or
// two) depends on how far one rank ran ahead of the other, so the runs
// share a fabric whose pools are stocked beforehand with more face-sized
// slots than a run can have in flight: what is left is the steps' own.
func TestStepAllocatesNothing(t *testing.T) {
	const n = 20
	q19, q39 := lattice.D3Q19(), lattice.D3Q39()
	slab := grid.Dims{NX: 16, NY: 6, NZ: 6}
	pencil := grid.Dims{NX: 16, NY: 16, NZ: 8}
	vessel := grid.Dims{NX: 48, NY: 24, NZ: 24}
	cavity := grid.Dims{NX: 32, NY: 32, NZ: 32}
	channel := grid.Dims{NX: 32, NY: 16, NZ: 4}
	periodic := grid.Dims{NX: 16, NY: 16, NZ: 24}
	flat := grid.Dims{NX: 32, NY: 32, NZ: 2}
	for _, c := range []struct {
		name string
		cfg  Config
	}{
		{"slab-q39-gcc", Config{Model: q39, N: slab, Tau: 0.9, Opt: OptGCC, Ranks: 2, Threads: 1, Init: waveInit(slab)}},
		{"pencil-q19-nbc-depth2", Config{Model: q19, N: pencil, Tau: 0.8, Opt: OptNBC, Ranks: 4, Decomp: [3]int{2, 2, 1},
			Threads: 1, GhostDepth: 2, Init: waveInit(pencil)}},
		{"vessel-sparse-balanced", Config{Model: q19, N: vessel, Tau: 0.8, Opt: OptGCC, Ranks: 2, Threads: 1,
			Solid: geom.Bifurcation(vessel, 0.1*float64(vessel.NY)), Accel: [3]float64{1e-5, 0, 0},
			Sparse: true, Balance: BalanceFluid, Init: waveInit(vessel)}},
		{"cavity-trt-2t", Config{Model: q19, N: cavity, Tau: 0.7, Opt: OptSIMD, Ranks: 1, Threads: 2,
			Collision: collision.Spec{Kind: collision.TRT}, Boundary: CavitySpec(0.05)}},
		// The sweep's spans: of views of f on a periodic box, and on
		// 2-cell z rows, where one span holds an x-plane's 32 rows.
		{"periodic-q19-simd", Config{Model: q19, N: periodic, Tau: 0.8, Opt: OptSIMD, Ranks: 1, Threads: 1, Init: waveInit(periodic)}},
		{"cavity-nz2-trt-simd", Config{Model: q19, N: flat, Tau: 0.7, Opt: OptSIMD, Ranks: 1, Threads: 1,
			Collision: collision.Spec{Kind: collision.TRT}, Boundary: CavitySpec(0.05)}},
		// A pressure outlet is refilled every step, on every path.
		{"channel-cylinder-outlet", Config{Model: q19, N: channel, Tau: 0.7, Opt: OptGCC, Ranks: 2, Threads: 1,
			Boundary: InletChannelSpec(0.05, nil), Solid: geom.CylinderZ(channel, 8, 8.3, 2.5)}},
		{"channel-cylinder-outlet-aa", Config{Model: q19, N: channel, Tau: 0.7, Opt: OptGCC, Ranks: 2, Threads: 1,
			Boundary: InletChannelSpec(0.05, nil), Solid: geom.CylinderZ(channel, 8, 8.3, 2.5), Stream: StreamAA}},
	} {
		t.Run(c.name, func(t *testing.T) {
			c.cfg.Steps = n
			res, err := Run(c.cfg) // first-use costs of the process, and the face sizes
			if err != nil {
				t.Fatal(err)
			}
			face := int(max(res.HaloAxisBytes[0], res.HaloAxisBytes[1], res.HaloAxisBytes[2]) / 8)
			fab := comm.NewFabric(c.cfg.Ranks)
			if err := fab.Run(func(r *comm.Rank) error {
				for k := 0; k < 4*r.N; k++ {
					r.Post(k%r.N, 0, r.Acquire(k%r.N, face))
				}
				for k := 0; k < 4*r.N; k++ {
					r.Release(r.Take(k%r.N, 0))
				}
				return nil
			}); err != nil {
				t.Fatal(err)
			}
			measure := func(steps int) (mallocs, bytes uint64) {
				cfg := c.cfg
				cfg.Steps, cfg.Fabric = steps, fab
				var before, after runtime.MemStats
				runtime.ReadMemStats(&before)
				if _, err := Run(cfg); err != nil {
					t.Fatal(err)
				}
				runtime.ReadMemStats(&after)
				return after.Mallocs - before.Mallocs, after.TotalAlloc - before.TotalAlloc
			}
			m1, b1 := measure(n)
			m3, b3 := measure(3 * n)
			perStep := func(a, b uint64) float64 { return (float64(b) - float64(a)) / (2 * n) }
			if g := perStep(m1, m3); g > 1 {
				t.Errorf("%.2f mallocs per step (%d over %d steps, %d over %d), want <= 1", g, m1, n, m3, 3*n)
			}
			if g := perStep(b1, b3); g > 4096 {
				t.Errorf("%.0f B allocated per step (%d over %d steps, %d over %d), want <= 4096", g, b1, n, b3, 3*n)
			}
		})
	}
}
