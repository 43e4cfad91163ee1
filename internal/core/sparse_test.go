package core

import (
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
