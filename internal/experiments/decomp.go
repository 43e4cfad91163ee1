package experiments

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/decomp"
	"repro/internal/machine"
	"repro/internal/perfsim"
)

// DecompTable compares slab (1-D), pencil (2-D) and block (3-D) rank
// grids on a Blue Gene machine model: per-axis and total halo payload
// per rank per exchange, and the projected runtime at two optimization
// levels — NB-C (posted receives) and GC-C (the per-axis compute/
// communication overlap). This is the
// beyond-paper experiment the Cartesian decomposition unlocks — the
// paper's §IV fixes the slab to isolate ghost-depth effects, and this
// table shows both where that choice stops scaling (slab surface stays
// O(NY·NZ) per rank while the block's shrinks with P^(2/3)) and that the
// overlap composes with every shape instead of trading off against the
// decomposition.
func DecompTable(machineName string) (*Table, error) {
	m, err := machine.ByName(machineName)
	if err != nil {
		return nil, err
	}
	const n = 512 // global cube edge
	t := &Table{
		Title: fmt.Sprintf("Decomposition scaling — %s, D3Q19, %d^3 cells, depth 1 (per-rank halo KB/exchange; time per opt level)",
			m.Name, n),
		Header: []string{"ranks", "shape", "grid", "opt", "x KB", "y KB", "z KB", "total KB", "time (s)", "GFlup/s"},
	}
	shapes := []struct {
		axes  int
		label string
	}{{1, "slab"}, {2, "pencil"}, {3, "block"}}
	for _, ranks := range []int{8, 64, 512} {
		for _, sh := range shapes {
			axes, label := sh.axes, sh.label
			p, err := decomp.Factor(ranks, axes, [3]int{n, n, n})
			if err != nil {
				return nil, err
			}
			for _, opt := range []core.OptLevel{core.OptNBC, core.OptGCC} {
				res, err := perfsim.Run(perfsim.Job{
					Machine: m, Spec: machine.SpecD3Q19(), K: 1,
					Nodes: ranks, TasksPerNode: 1, ThreadsPerTask: min(16, m.CoresPerNode),
					NX: n, NY: n, NZ: n, Decomp: p,
					Steps: 50, Depth: 1, Opt: opt,
					Imbalance: 0.05, Seed: 21,
				})
				if err != nil {
					return nil, err
				}
				t.Rows = append(t.Rows, []string{
					fmt.Sprintf("%d", ranks),
					label,
					fmt.Sprintf("%dx%dx%d", p[0], p[1], p[2]),
					opt.String(),
					kb(res.AxisBytes[0]), kb(res.AxisBytes[1]), kb(res.AxisBytes[2]),
					kb(res.SurfaceBytes()),
					fmt.Sprintf("%.3f", res.Seconds),
					fmt.Sprintf("%.2f", res.MFlups/1e3),
				})
			}
		}
	}
	t.Notes = append(t.Notes,
		"slab surface per rank is constant in the rank count; pencil and block shrink it, crossing over by 8 ranks",
		"shapes picked by decomp.Factor: the minimum-surface near-cubic factorization per axis budget",
		"GC-C overlaps each axis's messages with the box schedule's interior/rim compute")
	return t, nil
}

func kb(b float64) string {
	if b == 0 {
		return "-"
	}
	return fmt.Sprintf("%.0f", b/1024)
}
