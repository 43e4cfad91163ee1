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
// 32- not 34-cell faces). And every depth-1 point and the depth-1 default
// candidate have, with core.DirectedFaces (PR 23): a ghost face exactly k
// wide carries the 5 of 19 populations pulled out of it, so its pack, wire,
// unpack and local-wrap terms are priced at 5/19 of the bytes (the pencil
// 0.0306 → 0.0210, the 2-rank slabs 0.0433 → 0.0357); the four depth-2
// rows, whose faces carry all Q, are the bits they were. And the SIMD
// candidates have, when the rung began stepping with the gather sweep
// (priced as perfsim's Fused traffic, 2·Q·8 B per cell): the default
// candidate 2.0230963200000005 → 1.3506969600000003 unfitted and
// 0.40432435199999994 → 0.2967404544000001 fitted. The sweep's thread
// ladder moved from SIMD to GC-C and its fused holdout from GC-C to SIMD
// to keep stepping as before; on one node the fitted model prices the two
// rungs alike, so those four rows kept their bits under new labels.
func TestPinnedPrices(t *testing.T) {
	truth := truthCoeffs()
	sw := &Sweep{Model: "D3Q19", Dims: [3]int{64, 32, 32}, Steps: 8}
	sweep := map[string]uint64{
		"slab GC blocking d1 r2": 0x3fa246af2575f663, // 0.035695527384615365
		"slab GC blocking d2 r2": 0x3fa618c2202548c9, // 0.043157640861538456
		"slab NB-C d1 r2":        0x3fa212415f9fbdde, // 0.035295527384615374
		"slab GC-C d2 r2":        0x3fa0d82d67bd09a9, // 0.032899302400000004
		"pencil GC-C d1 r4":      0x3f957a3c00f74d26, // 0.0209740996923077
		"slab GC-C r1 t1":        0x3faeb3ca47616879, // 0.05996543999999999
		"slab GC-C r1 t2":        0x3f9fee2e87acfc04, // 0.031182028799999997
		"slab GC-C r1 t4":        0x3f96eca4b02d6cbc, // 0.022387097600000003
		"trt GC-C d1 r2":         0x3fa699cf935e68ad, // 0.044142233600000004
		"mrt GC-C d1 r2":         0x3fae7d84eb2abe99, // 0.05955138560000001
		"fused SIMD d1 r2":       0x3f9829bb91f14191, // 0.023596697599999997
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
		{"default unfitted", DefaultCandidate(), nil, 0x3ff59c746a601b1f}, // 1.3506969600000003
		{"default fitted", DefaultCandidate(), truth, 0x3fd2fdcbacc31560}, // 0.2967404544000001
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
