package experiments

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/geom"
	"repro/internal/grid"
	"repro/internal/metrics"
)

// RealBalance measures the fluid-balanced decomposition and sparse
// row-run traversal on a mostly-solid vascular mask with the real
// kernels: the same bifurcation geometry runs under (a) equal-extent
// volume cuts with dense traversal, (b) fluid-balanced cuts with dense
// traversal, and (c) fluid-balanced cuts with sparse traversal. The
// table reports end-to-end Mflup/s (fluid-cell normalized), the
// per-rank fluid-cell spread each cut policy produces, and the
// resulting imbalance ratio — the arterial-geometry argument of the
// paper's §VII carried onto the working code. It takes the description's
// model, ranks, threads and steps, on its own box and slab cuts, and
// refuses the flags it does not use.
func RealBalance(r Run) (*Table, error) {
	if err := r.ignores("balance", "sweeps cut policy and traversal on the two-grid kernels", "stream"); err != nil {
		return nil, err
	}
	if err := r.ignores("balance", "runs BGK on slabs at depth 1", "decomp", "depth", "collision"); err != nil {
		return nil, err
	}
	m, ranks := r.Model, r.Ranks
	n := grid.Dims{NX: 96, NY: 48, NZ: 48}
	mask := geom.Bifurcation(n, 0.1*float64(n.NY))
	fluid := mask.Fluids()
	solidFrac := 100 * float64(mask.Solids()) / float64(n.Cells())

	t := &Table{
		Title: fmt.Sprintf("Balance (real kernels) — %s, %s bifurcation mask (%.0f%% solid, %d fluid cells), %d ranks, %d threads",
			m.Name, n, solidFrac, fluid, ranks, r.Threads),
		Header: []string{"cuts", "traversal", "MFlup/s", "speedup", "fluid/rank min", "median", "max", "imbalance"},
	}

	cases := []struct {
		label, traversal string
		balance          core.Balance
		sparse           bool
	}{
		{"volume", "dense", core.BalanceVolume, false},
		{"fluid", "dense", core.BalanceFluid, false},
		{"fluid", "sparse", core.BalanceFluid, true},
	}
	var base float64
	for _, c := range cases {
		res, err := core.Run(core.Config{
			Model: m, N: n, Tau: 0.8, Steps: r.Steps,
			Opt: core.OptSIMD, Ranks: ranks, Decomp: [3]int{ranks, 1, 1},
			Threads: r.Threads, GhostDepth: 1,
			Solid: mask, Balance: c.balance, Sparse: c.sparse,
			Observe: true,
		})
		if err != nil {
			return nil, err
		}
		perRank := make([]float64, len(res.Observations))
		for i, o := range res.Observations {
			perRank[i] = float64(o.FluidCells)
		}
		s := metrics.Summarize(perRank)
		imb := "n/a"
		if s.Min > 0 {
			imb = fmt.Sprintf("%.2fx", s.Max/s.Min)
		}
		if base == 0 {
			base = res.MFlups
		}
		t.Rows = append(t.Rows, []string{
			c.label, c.traversal,
			fmt.Sprintf("%.2f", res.MFlups),
			fmt.Sprintf("%.2fx", res.MFlups/base),
			fmt.Sprintf("%.0f", s.Min),
			fmt.Sprintf("%.0f", s.Median),
			fmt.Sprintf("%.0f", s.Max),
			imb,
		})
	}
	t.Notes = append(t.Notes,
		"Mflup/s counts fluid-cell updates only; all three runs integrate the identical geometry",
		"volume cuts split the box into equal extents; fluid cuts place planes by fluid-cell bisection",
		"sparse traversal visits fluid z-runs only and weights thread chunks by fluid cells")
	return t, nil
}
