package tune

import (
	"math"
	"testing"

	"repro/internal/core"
	"repro/internal/geom"
	"repro/internal/grid"
	"repro/internal/lattice"
	"repro/internal/perfsim"
)

// TestPinnedPrices holds the one job builder to the numbers its
// predecessors produced (recorded at 809ca0d, when the sweep and the
// tuner each built their own perfsim.Job): every sweep point's total under
// truthCoeffs, and the tuner's price of the default candidate and of a
// masked, sparse, fluid-balanced, per-axis-depth candidate on the
// bifurcation96 scenario, unfitted and fitted. Equal to the last bit — a
// changed price is a changed model, and belongs in a PR that says so.
// One has, with the per-axis ghost rule (PR 22): the pencil point is the
// 1×2×2 shape of Points; as 2×2×1 it priced 0.03055877415384615 with
// ghosts on its uncut z and 0.0294003190153846 without (no z wrap copies,
// 32- not 34-cell faces).
func TestPinnedPrices(t *testing.T) {
	truth := truthCoeffs()
	sw := &Sweep{Model: "D3Q19", Dims: [3]int{64, 32, 32}, Steps: 8}
	sweep := map[string]uint64{
		"slab GC blocking d1 r2": 0x3fa62be8d4ab3314, // 0.04330375286153845
		"slab GC blocking d2 r2": 0x3fa618c2202548c9, // 0.043157640861538456
		"slab NB-C d1 r2":        0x3fa5f77b0ed4fa8d, // 0.04290375286153845
		"slab GC-C d2 r2":        0x3fa0d82d67bd09a9, // 0.032899302400000004
		"pencil GC-C d1 r4":      0x3f9f59315ec908d7, // 0.03061368123076921
		"slab SIMD r1 t1":        0x3faefbf212fd3ecb, // 0.06051594239999999
		"slab SIMD r1 t2":        0x3fa01c9c993c01f0, // 0.031468290048
		"slab SIMD r1 t4":        0x3f972284f649095a, // 0.022592618496000007
		"trt GC-C d1 r2":         0x3fa6e1f75efa3efc, // 0.04469273599999998
		"mrt GC-C d1 r2":         0x3faec5acb6c694ea, // 0.060101888000000006
		"fused GC-C d1 r2":       0x3f98ba0b2928ee35, // 0.024147199999999997
		"aa GC-C d2 r2":          0x3f9b9da84084ca49, // 0.02696860212126698
	}
	pts := Points()
	if len(pts) != len(sweep) {
		t.Fatalf("sweep has %d points, %d pinned", len(pts), len(sweep))
	}
	for _, pt := range pts {
		_, total, err := PricePoint(sw, pt, truth)
		if err != nil {
			t.Fatal(err)
		}
		if want := math.Float64frombits(sweep[pt.Label]); total != want {
			t.Errorf("PricePoint(%s) = %v, pinned %v", pt.Label, total, want)
		}
	}

	n := grid.Dims{NX: 96, NY: 48, NZ: 48}
	s := &Scenario{
		Name: "bifurcation96", Model: lattice.D3Q19(), N: n, Tau: 0.8,
		Solid: geom.Bifurcation(n, 0.1*float64(n.NY)),
	}
	masked := Candidate{
		Ranks: 2, Decomp: [3]int{2, 1, 1}, Threads: 1,
		Opt: core.OptGCC.String(), Depth: [3]int{2, 1, 1},
		Stream: core.StreamTwoGrid.String(), Kernel: "bgk",
		Balance: core.BalanceFluid.String(), Sparse: true,
	}
	for _, c := range []struct {
		name   string
		cand   Candidate
		coeffs *perfsim.Coeffs
		want   uint64
	}{
		{"default unfitted", DefaultCandidate(), nil, 0x4000511fc7098326}, // 2.0396113920000003
		{"default fitted", DefaultCandidate(), truth, 0x3fda0909a1bbe851}, // 0.4068016127999999
		{"masked sparse unfitted", masked, nil, 0x3fb26fe74ec349f5},       // 0.07202001259728504
		{"masked sparse fitted", masked, truth, 0x3f88f620eaa909bf},       // 0.012188203011764707
	} {
		secs, err := Price(s, c.cand, c.coeffs, 16, 2)
		if err != nil {
			t.Fatal(err)
		}
		if want := math.Float64frombits(c.want); secs != want {
			t.Errorf("Price(%s) = %v, pinned %v", c.name, secs, want)
		}
	}
}
