package experiments

import (
	"fmt"

	"repro/internal/collision"
	"repro/internal/core"
)

// threadCounts returns the sweep points 1, 2, 4, ... up to max, always
// including max itself.
func threadCounts(max int) []int {
	if max < 1 {
		max = 1
	}
	var out []int
	for t := 1; t < max; t *= 2 {
		out = append(out, t)
	}
	return append(out, max)
}

// RealThreads sweeps worker threads per rank with the real kernels: the
// in-rank analog of the paper's Fig. 11 hybrid study, isolating the
// threading model itself. Each row runs four configurations at the same
// domain:
//
//   - bgk: the split stream/collide path at OptGCC on one rank;
//   - fused: the gather sweep (OptSIMD) on the same rank;
//   - op: the generic operator path (TRT unless the description names
//     another non-BGK operator) — its "gap" column is bgk/op, the cost of the
//     operator indirection, which the z-run-blocked kernel must hold
//     near 1 at every thread count;
//   - cavity: the operator on a 2-rank GC-C lid-driven cavity, whose
//     thin rim slabs exercise the shared chunk queue (a static per-axis
//     partition would flatline here).
//
// MFlup/s is million fluid-lattice updates per second — cell rate. The
// sweep runs up to the description's threads, on one rank (two for the
// cavity) of its box.
func RealThreads(r Run) (*Table, error) {
	if r.Stream != core.StreamTwoGrid {
		return nil, fmt.Errorf("threads sweeps the two-grid kernels; drop -stream")
	}
	opSpec := r.Collision
	if opSpec.IsBGK() {
		opSpec = collision.Spec{Kind: collision.TRT}
	}
	t := &Table{
		Title: fmt.Sprintf("Thread sweep (real kernels) — %s, %s, %s operator, local machine (MFlup/s)",
			r.Model.Name, r.N, opSpec),
		Header: []string{"threads", "bgk", "vs 1T", "fused", opSpec.String(), "op gap", "cavity GC-C 2r"},
	}
	var bgk1 float64
	for _, th := range threadCounts(r.Threads) {
		base := core.Config{
			Model: r.Model, N: r.N, Tau: 0.8, Steps: r.Steps,
			Opt: core.OptGCC, Ranks: 1, Threads: th, GhostDepth: 1,
		}
		fused, op, cav := base, base, base
		fused.Opt = core.OptSIMD
		op.Collision = opSpec
		cav.Ranks, cav.Decomp, cav.Collision, cav.Boundary = 2, [3]int{2, 1, 1}, opSpec, core.CavitySpec(0.05)
		var rates [4]float64
		for i, cfg := range []core.Config{base, fused, op, cav} {
			res, err := core.Run(cfg)
			if err != nil {
				return nil, err
			}
			rates[i] = res.MFlups
		}
		if th == 1 {
			bgk1 = rates[0]
		}
		t.Rows = append(t.Rows, []string{
			fmt.Sprintf("%d", th),
			fmt.Sprintf("%.2f", rates[0]),
			fmt.Sprintf("%.2fx", rates[0]/bgk1),
			fmt.Sprintf("%.2f", rates[1]),
			fmt.Sprintf("%.2f", rates[2]),
			fmt.Sprintf("%.2fx", rates[0]/rates[2]),
			fmt.Sprintf("%.2f", rates[3]),
		})
	}
	t.Notes = append(t.Notes,
		"op gap = bgk / operator rate on the identical domain (the cost of the generic path)",
		"cavity column: bounded domain (ghosts on x and y, z wrapped), 2 slab ranks, GC-C rims drained from the shared chunk queue")
	return t, nil
}
