package core

import (
	"fmt"
	"math"
	"testing"

	"repro/internal/collision"
	"repro/internal/geom"
	"repro/internal/grid"
	"repro/internal/lattice"
)

// Sparse row-run traversal tests: on a masked domain the sparse kernels
// visit fluid z-runs only, so every stepper path must reproduce the dense
// masked run — same fixups, same halo schedule, same arithmetic — with
// solid cells excluded from the comparison (they are implementation-
// defined scratch that fluid cells never read).

// sparseTestMask is the bifurcating-vessel demo geometry at test scale:
// mostly solid, fluid spanning every x plane, cross-sections that move
// through y as the branches separate — the shape that exercises run
// splitting, zero-weight chunk drops and fluid-balanced cuts at once.
func sparseTestMask(n grid.Dims) *geom.Mask {
	return geom.Bifurcation(n, 0.2*float64(n.NY))
}

// runSparsePair executes cfg twice — dense and with Sparse set — and
// returns both results.
func runSparsePair(t *testing.T, cfg Config) (dense, sparse *Result) {
	t.Helper()
	cfg.KeepField = true
	if cfg.Init == nil {
		cfg.Init = waveInit(cfg.N)
	}
	d, err := Run(cfg)
	if err != nil {
		t.Fatalf("dense %s decomp=%v: %v", cfg.Opt, cfg.Decomp, err)
	}
	cfg.Sparse = true
	s, err := Run(cfg)
	if err != nil {
		t.Fatalf("sparse %s decomp=%v: %v", cfg.Opt, cfg.Decomp, err)
	}
	return d, s
}

// TestSparseMatchesDenseLevels: every ghost-cell optimization level must
// produce the identical fluid field with sparse traversal, across rank
// counts and decomposition shapes.
func TestSparseMatchesDenseLevels(t *testing.T) {
	n := grid.Dims{NX: 24, NY: 12, NZ: 10}
	mask := sparseTestMask(n)
	for _, opt := range []OptLevel{OptGC, OptDH, OptCF, OptLoBr, OptNBC, OptGCC, OptSIMD} {
		for _, p := range [][3]int{{1, 1, 1}, {4, 1, 1}, {2, 2, 1}} {
			cfg := Config{
				Model: lattice.D3Q19(), N: n, Tau: 0.8, Steps: 6,
				Opt: opt, Ranks: p[0] * p[1] * p[2], Decomp: p, Threads: 1, GhostDepth: 1,
				Solid: mask,
			}
			dense, sparse := runSparsePair(t, cfg)
			if d := maxDiffFluid(dense.Field, sparse.Field, mask.At); d > eqTol {
				t.Errorf("%s decomp=%v: sparse vs dense max fluid |Δf| = %g", opt, p, d)
			}
		}
	}
}

// TestSparseDeepHaloAndQ39: the deep-halo shrinking-box schedule and the
// extended lattice drive the sparse kernels over rim slabs and wider
// stencils.
func TestSparseDeepHaloAndQ39(t *testing.T) {
	n := grid.Dims{NX: 24, NY: 12, NZ: 10}
	mask := sparseTestMask(n)
	dense, sparse := runSparsePair(t, Config{
		Model: lattice.D3Q19(), N: n, Tau: 0.8, Steps: 7,
		Opt: OptSIMD, Ranks: 4, Decomp: [3]int{2, 2, 1}, Threads: 2, GhostDepth: 2,
		Solid: mask,
	})
	if d := maxDiffFluid(dense.Field, sparse.Field, mask.At); d > eqTol {
		t.Errorf("deep halo: sparse vs dense max fluid |Δf| = %g", d)
	}
	n39 := grid.Dims{NX: 18, NY: 12, NZ: 12}
	mask39 := sparseTestMask(n39)
	dense, sparse = runSparsePair(t, Config{
		Model: lattice.D3Q39(), N: n39, Tau: 0.9, Steps: 4,
		Opt: OptSIMD, Ranks: 2, Decomp: [3]int{2, 1, 1}, Threads: 1, GhostDepth: 1,
		Solid: mask39,
	})
	if d := maxDiffFluid(dense.Field, sparse.Field, mask39.At); d > eqTol {
		t.Errorf("D3Q39: sparse vs dense max fluid |Δf| = %g", d)
	}
}

// TestSparseCollisionOperators: the operator row path (TRT, MRT) and the
// velocity-shift forcing must be unchanged by run-wise traversal.
func TestSparseCollisionOperators(t *testing.T) {
	n := grid.Dims{NX: 20, NY: 12, NZ: 10}
	mask := sparseTestMask(n)
	for _, spec := range []collision.Spec{
		{Kind: collision.TRT},
		{Kind: collision.MRT},
	} {
		dense, sparse := runSparsePair(t, Config{
			Model: lattice.D3Q19(), N: n, Tau: 0.7, Steps: 6,
			Opt: OptSIMD, Ranks: 2, Decomp: [3]int{2, 1, 1}, Threads: 2, GhostDepth: 1,
			Solid: mask, Collision: spec,
		})
		if d := maxDiffFluid(dense.Field, sparse.Field, mask.At); d > eqTol {
			t.Errorf("%s: sparse vs dense max fluid |Δf| = %g", spec, d)
		}
	}
	dense, sparse := runSparsePair(t, Config{
		Model: lattice.D3Q19(), N: n, Tau: 0.8, Steps: 6,
		Opt: OptSIMD, Ranks: 2, Decomp: [3]int{2, 1, 1}, Threads: 1, GhostDepth: 1,
		Solid: mask, Accel: [3]float64{1e-5, 0, 0},
	})
	if d := maxDiffFluid(dense.Field, sparse.Field, mask.At); d > eqTol {
		t.Errorf("forcing: sparse vs dense max fluid |Δf| = %g", d)
	}
}

// TestSparseBoundaryAndSponge: open faces, the Zou-He inlet and the
// outlet sponge layer all run their face machinery dense; only the bulk
// kernels go run-wise. The combined configuration must still match.
func TestSparseBoundaryAndSponge(t *testing.T) {
	n := grid.Dims{NX: 32, NY: 10, NZ: 8}
	mask := sparseTestMask(n)
	var spec BoundarySpec
	spec.Faces[0][0] = Face{Kind: BCInlet, U: [3]float64{0.03, 0, 0}}
	spec.Faces[0][1] = Face{Kind: BCPressureOutlet, SpongeWidth: 6, SpongeStrength: 0.1}
	spec.Faces[1][0] = Face{Kind: BCWall}
	spec.Faces[1][1] = Face{Kind: BCWall}
	dense, sparse := runSparsePair(t, Config{
		Model: lattice.D3Q19(), N: n, Tau: 0.8, Steps: 8,
		Opt: OptGCC, Ranks: 2, Decomp: [3]int{2, 1, 1}, Threads: 2, GhostDepth: 1,
		Solid: mask, Boundary: &spec, Init: nil,
	})
	if d := maxDiffFluid(dense.Field, sparse.Field, mask.At); d > eqTol {
		t.Errorf("boundary+sponge: sparse vs dense max fluid |Δf| = %g", d)
	}
	// The ghosts beyond the open outlet face take the clamped mask: the
	// fluid-span payloads crossing the rank cut must agree with a single
	// rank that never exchanges along x at all.
	single := runField(t, Config{
		Model: lattice.D3Q19(), N: n, Tau: 0.8, Steps: 8,
		Opt: OptGCC, Ranks: 1, Threads: 1, GhostDepth: 1,
		Solid: mask, Boundary: &spec,
	})
	if d := maxDiffFluid(single, sparse.Field, mask.At); d > eqTol {
		t.Errorf("boundary+sponge: sparse 2 ranks vs dense 1 rank max fluid |Δf| = %g", d)
	}
}

// TestSparseAAMatchesDense: the AA in-place kernels traverse the same
// fluid runs through their transport and compact sub-steps.
func TestSparseAAMatchesDense(t *testing.T) {
	n := grid.Dims{NX: 24, NY: 12, NZ: 10}
	mask := sparseTestMask(n)
	for _, threads := range []int{1, 2} {
		dense, sparse := runSparsePair(t, Config{
			Model: lattice.D3Q19(), N: n, Tau: 0.8, Steps: 6,
			Opt: OptSIMD, Ranks: 2, Decomp: [3]int{2, 1, 1}, Threads: threads, GhostDepth: 2,
			Solid: mask, Stream: StreamAA,
		})
		if d := maxDiffFluid(dense.Field, sparse.Field, mask.At); d > eqTol {
			t.Errorf("AA threads=%d: sparse vs dense max fluid |Δf| = %g", threads, d)
		}
	}
}

// TestSparseThreadInvariance: weighted chunking partitions rows, never
// arithmetic — a sparse run must be bit-exact across thread counts,
// including the zero-weight chunk drops that differ between the inline
// single-thread path and the pooled batches.
func TestSparseThreadInvariance(t *testing.T) {
	n := grid.Dims{NX: 24, NY: 14, NZ: 10}
	mask := sparseTestMask(n)
	base := Config{
		Model: lattice.D3Q19(), N: n, Tau: 0.8, Steps: 6,
		Opt: OptSIMD, Ranks: 2, Decomp: [3]int{2, 1, 1}, GhostDepth: 1,
		Solid: mask, Sparse: true, KeepField: true, Init: waveInit(n),
	}
	var ref *Result
	for _, threads := range []int{1, 2, 4} {
		cfg := base
		cfg.Threads = threads
		res, err := Run(cfg)
		if err != nil {
			t.Fatalf("threads=%d: %v", threads, err)
		}
		if ref == nil {
			ref = res
			continue
		}
		if d := maxDiffFluid(ref.Field, res.Field, mask.At); d != 0 {
			t.Errorf("threads=%d: max fluid |Δf| = %g vs 1 thread, want bit-exact", threads, d)
		}
		if res.Mass != ref.Mass {
			t.Errorf("threads=%d: mass %0.17g vs %0.17g", threads, res.Mass, ref.Mass)
		}
	}
}

// TestBalancedCutsCrossDecomposition: fluid-balanced cut placement moves
// the rank boundaries, not the physics — slab, pencil and block grids
// over the same mask must agree to 1e-12, dense and sparse alike, and
// the balanced cuts must tighten the per-rank fluid spread.
func TestBalancedCutsCrossDecomposition(t *testing.T) {
	n := grid.Dims{NX: 32, NY: 16, NZ: 16}
	mask := sparseTestMask(n)
	base := Config{
		Model: lattice.D3Q19(), N: n, Tau: 0.8, Steps: 8,
		Opt: OptSIMD, Ranks: 8, Threads: 2, GhostDepth: 1,
		Solid: mask, Balance: BalanceFluid, Sparse: true,
		KeepField: true, Init: waveInit(n), Observe: true,
	}
	shapes := [][3]int{{8, 1, 1}, {4, 2, 1}, {2, 2, 2}}
	var ref *Result
	for _, p := range shapes {
		cfg := base
		cfg.Decomp = p
		res, err := Run(cfg)
		if err != nil {
			t.Fatalf("decomp %v: %v", p, err)
		}
		if ref == nil {
			ref = res
			// Balanced slab cuts must beat the volume split's fluid
			// spread on this mask.
			volCfg := cfg
			volCfg.Balance = BalanceVolume
			vol, err := Run(volCfg)
			if err != nil {
				t.Fatalf("volume cuts: %v", err)
			}
			spread := func(r *Result) (lo, hi int64) {
				lo, hi = math.MaxInt64, 0
				for _, o := range r.Observations {
					if o.FluidCells < lo {
						lo = o.FluidCells
					}
					if o.FluidCells > hi {
						hi = o.FluidCells
					}
				}
				return lo, hi
			}
			blo, bhi := spread(res)
			vlo, vhi := spread(vol)
			if float64(bhi)/float64(blo) >= float64(vhi)/float64(vlo) {
				t.Errorf("balanced cuts imbalance %d/%d not below volume %d/%d", bhi, blo, vhi, vlo)
			}
			continue
		}
		if d := maxDiffFluid(ref.Field, res.Field, mask.At); d > eqTol {
			t.Errorf("decomp %v vs slab: max fluid |Δf| = %g", p, d)
		}
		if d := math.Abs(res.Mass - ref.Mass); d > eqTol*ref.Mass {
			t.Errorf("decomp %v: mass %0.15f vs slab %0.15f", p, res.Mass, ref.Mass)
		}
	}
	// The AA kernels under balanced cuts: slab vs pencil.
	aa := base
	aa.Stream = StreamAA
	aa.GhostDepth = 2
	aa.Observe = false
	var aaRef *Result
	for _, p := range [][3]int{{8, 1, 1}, {4, 2, 1}} {
		cfg := aa
		cfg.Decomp = p
		res, err := Run(cfg)
		if err != nil {
			t.Fatalf("AA decomp %v: %v", p, err)
		}
		if aaRef == nil {
			aaRef = res
			continue
		}
		if d := maxDiffFluid(aaRef.Field, res.Field, mask.At); d > eqTol {
			t.Errorf("AA decomp %v vs slab: max fluid |Δf| = %g", p, d)
		}
	}
}

// TestSparseValidation: the traversal needs the box stepper.
func TestSparseValidation(t *testing.T) {
	n := grid.Dims{NX: 16, NY: 8, NZ: 8}
	mask := sparseTestMask(n)
	base := Config{
		Model: lattice.D3Q19(), N: n, Tau: 0.8, Steps: 2,
		Opt: OptSIMD, Ranks: 2, Decomp: [3]int{2, 1, 1}, Threads: 1, GhostDepth: 1,
		Solid: mask, Sparse: true,
	}
	bad := base
	bad.Opt = OptOrig
	if _, err := Run(bad); err == nil {
		t.Error("Sparse with the no-ghost Orig protocol accepted (box stepper only)")
	}
	bad = base
	bad.Layout = grid.AoS
	bad.Opt = OptGC
	if _, err := Run(bad); err == nil {
		t.Error("Sparse with the AoS layout accepted (box stepper needs SoA)")
	}
	// Sparse without a mask is the dense traversal: it must run, not fail.
	ok := base
	ok.Solid = nil
	if _, err := Run(ok); err != nil {
		t.Errorf("Sparse without a mask: %v", err)
	}
}

// TestSparseHaloMatrix: with the run index installed the halo carries
// fluid z-spans only, on every axis, for messages and local wraps alike.
// Across rank grids (fluid-balanced cuts on the block), deep-halo cadences,
// both lattices, both streaming schemes and all three exchange protocols,
// the sparse multi-rank run must reproduce the dense single-rank field on
// every fluid cell to 1e-12, and must not depend on the thread count by a
// single bit.
func TestSparseHaloMatrix(t *testing.T) {
	type grid3 struct {
		p       [3]int
		balance Balance
	}
	shapes := []grid3{{p: [3]int{2, 1, 1}}, {p: [3]int{2, 2, 1}}, {p: [3]int{2, 2, 2}, balance: BalanceFluid}}
	depths := [][3]int{{1, 1, 1}, {2, 2, 2}, {2, 1, 1}}
	opts := []OptLevel{OptGC, OptNBC, OptGCC}
	models := []*lattice.Model{lattice.D3Q19(), lattice.D3Q39()}
	if testing.Short() {
		// The k = 3 domain is 27× the cells; TestSparseDeepHaloAndQ39
		// keeps a D3Q39 sparse exchange under the race detector.
		models = models[:1]
	}
	for _, m := range models {
		// Every block must own at least depth·k cells per decomposed axis.
		n := grid.Dims{NX: 8 * m.MaxSpeed * 3, NY: 8 * m.MaxSpeed, NZ: 8 * m.MaxSpeed}
		mask := sparseTestMask(n)
		ref := runField(t, Config{
			Model: m, N: n, Tau: 0.8, Steps: 6,
			Opt: OptSIMD, Ranks: 1, Threads: 1, GhostDepth: 1, Solid: mask,
		})
		for _, sh := range shapes {
			for _, depth := range depths {
				for _, stream := range []StreamScheme{StreamTwoGrid, StreamAA} {
					for _, opt := range opts {
						cfg := Config{
							Model: m, N: n, Tau: 0.8, Steps: 6,
							Opt: opt, Ranks: sh.p[0] * sh.p[1] * sh.p[2], Decomp: sh.p, Balance: sh.balance,
							GhostDepthAxes: depth, Stream: stream,
							Solid: mask, Sparse: true,
						}
						name := fmt.Sprintf("%s %v depth=%v %s %s", m.Name, sh.p, depth, stream, opt)
						cfg.Threads = 1
						one := runField(t, cfg)
						if d := maxDiffFluid(ref, one, mask.At); d > eqTol {
							t.Errorf("%s: sparse vs dense single rank max fluid |Δf| = %g", name, d)
						}
						cfg.Threads = 3
						if d := maxDiffFluid(one, runField(t, cfg), mask.At); d != 0 {
							t.Errorf("%s: 3 threads vs 1 max fluid |Δf| = %g, want bit-exact", name, d)
						}
					}
				}
			}
		}
	}
}

// TestSparseHaloBytesAreTruthful: every byte count the run reports is
// what the exchangers packed. On a masked sparse pencil the per-axis obs
// counters sum to the fabric's own count on every rank, the reported
// per-exchange payload is the busiest rank's, and it is a small fraction
// of the dense faces the same decomposition ships without the run index.
func TestSparseHaloBytesAreTruthful(t *testing.T) {
	n := grid.Dims{NX: 24, NY: 12, NZ: 10}
	cfg := Config{
		Model: lattice.D3Q19(), N: n, Tau: 0.8, Steps: 4,
		Opt: OptGCC, Ranks: 4, Decomp: [3]int{2, 2, 1}, Threads: 1, GhostDepth: 1,
		Solid: sparseTestMask(n), Sparse: true, Observe: true,
	}
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	var counted, carried int64
	var perExchange [3]int64
	for r, o := range res.Observations {
		for a := 0; a < 3; a++ {
			counted += o.CommBytes[a]
			perExchange[a] = max(perExchange[a], o.CommBytes[a]/int64(cfg.Steps))
		}
		carried += res.PerRank[r].BytesSent
	}
	if counted != carried || carried == 0 {
		t.Errorf("obs CommBytes sum to %d B, the fabric carried %d B", counted, carried)
	}
	if res.HaloAxisBytes != perExchange {
		t.Errorf("HaloAxisBytes %v, busiest rank packed %v per exchange", res.HaloAxisBytes, perExchange)
	}
	cfg.Sparse = false
	dense, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for a := 0; a < 2; a++ {
		if res.HaloAxisBytes[a] <= 0 || 2*res.HaloAxisBytes[a] > dense.HaloAxisBytes[a] {
			t.Errorf("axis %d: sparse payload %d B not under half the dense face %d B", a, res.HaloAxisBytes[a], dense.HaloAxisBytes[a])
		}
	}
}
