package experiments

import (
	"fmt"
	"time"

	"repro/internal/collision"
	"repro/internal/core"
	"repro/internal/decomp"
	"repro/internal/grid"
	"repro/internal/lattice"
)

// The Real* experiments execute the actual Go kernels on the local machine
// at laptop scale. They demonstrate the same qualitative trade-offs as the
// perfsim projections with no model in between.

// Run describes the -real experiments' runs: lbmbench's flags, parsed and
// checked once by NewRun. Each experiment sweeps some of these itself
// (fig10 the depth, fig11 ranks and threads) and ignores what it fixes.
type Run struct {
	Model *lattice.Model
	// N is the laptop-scale box (D3Q39 cells carry ~2× the data, so its
	// box is smaller).
	N              grid.Dims
	Ranks, Threads int
	Steps          int
	// Decomp is the decomposition spec (1d, 2d, 3d or PxxPyxPz), resolved
	// against each run's rank count and box.
	Decomp    string
	Depth     int
	DepthAxes [3]int
	Collision collision.Spec
	Stream    core.StreamScheme
}

// NewRun builds the run description from lbmbench's -real flags: the
// model's name, the ranks, the threads per rank (0 = NumCPU/ranks), the
// steps, the decomposition spec and the ghost depth ("2" or per-axis
// "2,1,1"), with an already validated operator and stream.
func NewRun(model string, ranks, threads, steps int, decompSpec, depthSpec string, col collision.Spec, stream core.StreamScheme) (Run, error) {
	m, err := lattice.ByName(model)
	if err != nil {
		return Run{}, err
	}
	threads, err = core.ResolveThreads(threads, ranks)
	if err != nil {
		return Run{}, err
	}
	depth, axes, err := core.ParseGhostDepth(depthSpec)
	if err != nil {
		return Run{}, err
	}
	n := grid.Dims{NX: 64, NY: 32, NZ: 32}
	if m.Q == 39 {
		n = grid.Dims{NX: 48, NY: 24, NZ: 24}
	}
	return Run{
		Model: m, N: n, Ranks: ranks, Threads: threads, Steps: steps,
		Decomp: decompSpec, Depth: depth, DepthAxes: axes,
		Collision: col, Stream: stream,
	}, nil
}

// config returns the core.Config of one rung of the ladder on box n cut
// for ranks ranks. At Orig it is the paper's geometry (P×1×1 slab, depth
// 1, two-grid), the only one the no-ghost protocol runs on
// (core.PaperGeometry); every other rung takes the description's shape,
// depth and stream.
func (r Run) config(opt core.OptLevel, ranks int, n grid.Dims) (core.Config, error) {
	d, err := decomp.ParseShape(r.Decomp, ranks, [3]int{n.NX, n.NY, n.NZ})
	if err != nil {
		return core.Config{}, err
	}
	cfg := core.Config{
		Model: r.Model, N: n, Tau: 0.8, Steps: r.Steps,
		Opt: opt, Ranks: ranks, Decomp: d.P, Threads: r.Threads,
		GhostDepth: r.Depth, GhostDepthAxes: r.DepthAxes,
		Collision: r.Collision, Stream: r.Stream,
	}
	if opt == core.OptOrig {
		cfg.Decomp, cfg.GhostDepth, cfg.GhostDepthAxes, cfg.Stream = [3]int{ranks, 1, 1}, 1, [3]int{}, core.StreamTwoGrid
	}
	return cfg, nil
}

// RealFig8 measures MFlup/s for each optimization level with the real
// kernels (the local analog of Fig. 8). Orig always runs the paper's
// geometry; the other levels use the requested decomposition shape. The
// operator (TRT/MRT) shows the ladder with the generic operator kernel in
// place of the specialized BGK collide.
func RealFig8(r Run) (*Table, error) {
	t := &Table{Header: []string{"level", "MFlup/s", "speedup vs Orig"}}
	var first float64
	var shape [3]int
	for _, opt := range core.Levels() {
		cfg, err := r.config(opt, r.Ranks, r.N)
		if err != nil {
			return nil, err
		}
		res, err := core.Run(cfg)
		if err != nil {
			return nil, err
		}
		if opt == core.OptOrig {
			first = res.MFlups
		}
		shape = cfg.Decomp
		t.Rows = append(t.Rows, []string{
			opt.String(),
			fmt.Sprintf("%.2f", res.MFlups),
			fmt.Sprintf("%.2fx", res.MFlups/first),
		})
	}
	t.Title = fmt.Sprintf("Fig. 8 (real kernels) — %s, %s, %d ranks (%dx%dx%d), %s, %s streaming, local machine (MFlup/s)", r.Model.Name, r.N, r.Ranks, shape[0], shape[1], shape[2], r.Collision, r.Stream)
	return t, nil
}

// RealFig9 measures the per-rank communication-time balance with injected
// per-step jitter (the local analog of Fig. 9).
func RealFig9(r Run) (*Table, error) {
	t := &Table{
		Title:  fmt.Sprintf("Fig. 9 (real kernels) — %s, %d ranks, per-rank comm time (ms)", r.Model.Name, r.Ranks),
		Header: []string{"protocol", "min", "median", "max"},
	}
	configs := []struct {
		label string
		opt   core.OptLevel
	}{
		{"blocking, no ghost cells (Orig)", core.OptOrig},
		{"NB-C & GC", core.OptNBC},
		{"GC-C", core.OptGCC},
	}
	for _, c := range configs {
		cfg, err := r.config(c.opt, r.Ranks, r.N)
		if err != nil {
			return nil, err
		}
		cfg.StepJitter = 2 * time.Millisecond
		res, err := core.Run(cfg)
		if err != nil {
			return nil, err
		}
		s := res.CommSummary()
		t.Rows = append(t.Rows, []string{
			c.label,
			fmt.Sprintf("%.1f", 1e3*s.Min),
			fmt.Sprintf("%.1f", 1e3*s.Median),
			fmt.Sprintf("%.1f", 1e3*s.Max),
		})
	}
	t.Notes = append(t.Notes, "deterministic per-rank jitter of up to 2 ms/step injected to provoke imbalance")
	return t, nil
}

// RealFig10 sweeps ghost depth × domain size with the real kernels (the
// local analog of Fig. 10), reporting runtimes normalized to depth 1.
func RealFig10(r Run) (*Table, error) {
	if r.Depth != 1 || r.DepthAxes != ([3]int{}) {
		return nil, fmt.Errorf("fig10 sweeps ghost depth itself; drop -depth")
	}
	m := r.Model
	t := &Table{
		Title:  fmt.Sprintf("Fig. 10 (real kernels) — %s, %d ranks (time / time at GC=1)", m.Name, r.Ranks),
		Header: []string{"NX", "GC=1", "GC=2", "GC=3", "GC=4"},
	}
	ny := 16
	if m.Q == 39 {
		ny = 8
	}
	for _, nx := range []int{r.Ranks * 8 * m.MaxSpeed, r.Ranks * 16 * m.MaxSpeed, r.Ranks * 32 * m.MaxSpeed} {
		row := []string{fmt.Sprintf("%d", nx)}
		var base float64
		for depth := 1; depth <= 4; depth++ {
			if nx/r.Ranks < depth*m.MaxSpeed {
				row = append(row, "n/a")
				continue
			}
			cfg, err := r.config(core.OptSIMD, r.Ranks, grid.Dims{NX: nx, NY: ny, NZ: ny})
			if err != nil {
				return nil, err
			}
			cfg.GhostDepth, cfg.StepJitter = depth, time.Millisecond
			res, err := core.Run(cfg)
			if err != nil {
				return nil, err
			}
			secs := res.WallTime.Seconds()
			if depth == 1 {
				base = secs
			}
			row = append(row, fmt.Sprintf("%.3f", secs/base))
		}
		t.Rows = append(t.Rows, row)
	}
	return t, nil
}

// RealFig11 sweeps ranks×threads at a fixed total worker count (the local
// analog of Fig. 11).
func RealFig11(r Run) (*Table, error) {
	t := &Table{
		Title:  fmt.Sprintf("Fig. 11 (real kernels) — %s, %s tasks×threads on the local machine", r.Model.Name, r.N),
		Header: []string{"tasks-threads", "time (ms)", "MFlup/s"},
	}
	for _, c := range [][2]int{{1, 1}, {1, 2}, {1, 4}, {2, 1}, {2, 2}, {4, 1}} {
		cfg, err := r.config(core.OptSIMD, c[0], r.N)
		if err != nil {
			return nil, err
		}
		cfg.Threads = c[1]
		res, err := core.Run(cfg)
		if err != nil {
			return nil, err
		}
		t.Rows = append(t.Rows, []string{
			fmt.Sprintf("%d-%d", c[0], c[1]),
			fmt.Sprintf("%.1f", 1e3*res.WallTime.Seconds()),
			fmt.Sprintf("%.2f", res.MFlups),
		})
	}
	return t, nil
}
