package experiments

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/machine"
	"repro/internal/perfsim"
)

// modelParams bundles the per-lattice constants the simulator needs.
type modelParams struct {
	spec machine.KernelSpec
	k    int
}

var q19Params = modelParams{spec: machine.SpecD3Q19(), k: 1}
var q39Params = modelParams{spec: machine.SpecD3Q39(), k: 3}

// fig8Job is the simulated Fig. 8 workload: 128 nodes of flat-MPI tasks
// — virtual-node mode (4) on BG/P, 32 unthreaded tasks on BG/Q (§VI) —
// with 64 planes of 64×64 cells per rank.
func fig8Job(m machine.Machine, p modelParams, opt core.OptLevel) perfsim.Job {
	tasks := m.CoresPerNode
	if m.ThreadsPerCore > 1 {
		tasks *= 2
	}
	return perfsim.Job{
		Machine: m, Spec: p.spec, K: p.k,
		Nodes: 128, TasksPerNode: tasks, ThreadsPerTask: 1,
		NX: 128 * tasks * 64, NY: 64, NZ: 64,
		Steps: 50, Depth: 1, Opt: opt,
		Imbalance: 0.05, Seed: 7,
	}
}

// Fig8 regenerates the optimization-ladder figure for one machine: MFlup/s
// per optimization level for both lattices, against the model peak.
func Fig8(machineName string) (*Table, error) {
	m, err := machine.ByName(machineName)
	if err != nil {
		return nil, err
	}
	const nodes = 128
	t := &Table{
		Title:  fmt.Sprintf("Fig. 8 — %s optimization impacts (128 nodes, MFlup/s)", m.Name),
		Header: []string{"level", "D3Q19", "%peak", "D3Q39", "%peak"},
	}
	models := []modelParams{q19Params, q39Params}
	var peak, first, last [2]float64
	for i, p := range models {
		peak[i] = machine.MaxMFlups(m, p.spec).Attainable * nodes
	}
	for _, opt := range core.Levels() {
		row := []string{opt.String()}
		for i, p := range models {
			res, err := perfsim.Run(fig8Job(m, p, opt))
			if err != nil {
				return nil, err
			}
			if opt == core.OptOrig {
				first[i] = res.MFlups
			}
			last[i] = res.MFlups
			row = append(row, fmt.Sprintf("%.0f", res.MFlups), fmt.Sprintf("%.0f%%", 100*res.MFlups/peak[i]))
		}
		t.Rows = append(t.Rows, row)
	}
	t.Rows = append(t.Rows, []string{
		"model peak",
		fmt.Sprintf("%.0f", peak[0]), "100%",
		fmt.Sprintf("%.0f", peak[1]), "100%",
	})
	t.Notes = append(t.Notes,
		fmt.Sprintf("overall improvement: D3Q19 %.1f×, D3Q39 %.1f×", last[0]/first[0], last[1]/first[1]))
	switch m.Name {
	case "BG/P":
		t.Notes = append(t.Notes, "paper: 92% (D3Q19) and 83% (D3Q39) of predicted peak; ~3× overall")
	case "BG/Q":
		t.Notes = append(t.Notes, "paper: 85% (D3Q19) and 79% (D3Q39) of predicted peak; ~7.5× overall")
	}
	return t, nil
}

// Fig9 regenerates the communication-balance figure: min/median/max
// per-rank communication time for the three protocol stages, both models.
func Fig9(machineName string) (*Table, error) {
	m, err := machine.ByName(machineName)
	if err != nil {
		return nil, err
	}
	t := &Table{
		Title:  fmt.Sprintf("Fig. 9 — %s per-rank communication time (s), 256 ranks, 300 steps", m.Name),
		Header: []string{"model", "protocol", "min", "median", "max"},
	}
	configs := []struct {
		label string
		opt   core.OptLevel
		depth int
	}{
		{"NB-C (no ghost cells)", core.OptOrig, 1},
		{"NB-C & GC", core.OptNBC, 3},
		{"GC-C", core.OptGCC, 3},
	}
	for _, p := range []modelParams{q19Params, q39Params} {
		for _, cfgc := range configs {
			job := perfsim.Job{
				Machine: m, Spec: p.spec, K: p.k,
				Nodes: 64, TasksPerNode: 4, ThreadsPerTask: 1,
				NX: 64 * 4 * 24, NY: 96, NZ: 96,
				Steps: 300, Depth: cfgc.depth, Opt: cfgc.opt,
				Imbalance: 0.15, PersistentImbalance: 0.25, Seed: 11,
			}
			res, err := perfsim.Run(job)
			if err != nil {
				return nil, err
			}
			s := res.CommSummary()
			t.Rows = append(t.Rows, []string{
				p.spec.Name, cfgc.label,
				fmt.Sprintf("%.2f", s.Min), fmt.Sprintf("%.2f", s.Median), fmt.Sprintf("%.2f", s.Max),
			})
		}
	}
	t.Notes = append(t.Notes,
		"paper (BG/P, D3Q19): naive non-blocking spans 4.8-40 s; GC-C narrows it to 3-5 s",
		"the paper's \"NB-C\" solid lines are the no-ghost-cell code, reproduced here by the naive protocol",
		"for D3Q39 the depth-1-equivalent halo ships 117 planes vs the naive protocol's 18, so its wire time partly offsets the wait reduction — the paper does not quantify this either")
	return t, nil
}

// The deep-halo workloads of Fig. 10 and Tables III/IV, each run setting
// NX and Depth: D3Q19 on 2048 processors of BG/P (512 nodes in
// virtual-node mode), D3Q39 on 16 nodes of BG/Q with 16 tasks and 1
// thread each ("due to differences in memory constraints").
var (
	q19Halo = perfsim.Job{
		Machine: machine.BGP(), Spec: q19Params.spec, K: q19Params.k,
		Nodes: 512, TasksPerNode: 4, ThreadsPerTask: 1, NY: 156, NZ: 156,
		Steps: 300, Opt: core.OptNBC, Imbalance: 0.40, Seed: 5,
	}
	q39Halo = perfsim.Job{
		Machine: machine.BGQ(), Spec: q39Params.spec, K: q39Params.k,
		Nodes: 16, TasksPerNode: 16, ThreadsPerTask: 1, NY: 40, NZ: 40,
		Steps: 300, Opt: core.OptNBC, Imbalance: 0.40, Seed: 5,
	}
)

// Fig10 regenerates Fig. 10: runtime vs ghost depth, normalized to depth
// 1, across decomposed-dimension sizes — (a) D3Q19 on 2048 BG/P
// processors, (b) D3Q39 on 16 BG/Q nodes.
func Fig10() ([]*Table, error) {
	studies := []struct {
		title  string
		sizes  []int
		labels []string
		job    perfsim.Job
		note   string
	}{
		{"Fig. 10a — D3Q19 deep halos, 2048 procs BG/P (time / time at GC=1)",
			[]int{8192, 16384, 32768, 65536, 133000}, []string{"8k", "16k", "32k", "64k", "133k"}, q19Halo,
			"paper: GC=2/3 become optimal at 64k and 133k; GC=4 at 133k ran out of memory"},
		{"Fig. 10b — D3Q39 deep halos, 16 nodes BG/Q × 16 tasks (time / time at GC=1)",
			[]int{16384, 32768, 65536, 133120, 174080, 204800}, []string{"16k", "32k", "64k", "133k", "170k", "200k"}, q39Halo,
			"paper: deeper levels start to pay off at the larger sizes; ratios beyond 800:1 untestable"},
	}
	var out []*Table
	for _, st := range studies {
		t := &Table{
			Title:  st.title,
			Header: []string{"size", "GC=1", "GC=2", "GC=3", "GC=4", "best"},
			Notes:  []string{st.note},
		}
		for i, nx := range st.sizes {
			row := []string{st.labels[i]}
			var base float64
			best, bestD := 0.0, 0
			for depth := 1; depth <= 4; depth++ {
				j := st.job
				j.NX, j.Depth = nx, depth
				if nx/(j.Nodes*j.TasksPerNode) < depth*j.K {
					row = append(row, "n/a")
					continue
				}
				res, err := perfsim.Run(j)
				if err != nil {
					return nil, err
				}
				if res.OOM {
					row = append(row, "OOM")
					continue
				}
				if depth == 1 {
					base = res.Seconds
				}
				if best == 0 || res.Seconds < best {
					best, bestD = res.Seconds, depth
				}
				row = append(row, fmt.Sprintf("%.3f", res.Seconds/base))
			}
			t.Rows = append(t.Rows, append(row, fmt.Sprintf("GC=%d", bestD)))
		}
		out = append(out, t)
	}
	return out, nil
}

// Table3 sweeps the lattice-points-per-processor ratio and reports the
// optimal ghost depth for D3Q19 (paper Table III).
func Table3() (*Table, error) {
	return depthTable("Table III — optimal D3Q19 ghost depth vs planes/processor (2048 procs BG/P)",
		[]int{4, 8, 16, 24, 32, 48, 64, 66}, q19Halo,
		func(r int) string {
			switch {
			case r <= 16:
				return "1"
			case r <= 32:
				return "3"
			case r <= 66:
				return "2"
			}
			return "untested"
		},
		"shape reproduced: depth 1 at small ratios, deeper halos at large ratios; the paper's non-monotonic 3-then-2 ordering at mid ratios is within its measurement noise (see EXPERIMENTS.md)")
}

// Table4 is the D3Q39 analog on 16 BG/Q nodes (paper Table IV).
func Table4() (*Table, error) {
	return depthTable("Table IV — optimal D3Q39 ghost depth vs planes/processor (256 tasks BG/Q)",
		[]int{64, 128, 256, 384, 512, 600, 680, 800}, q39Halo,
		func(r int) string {
			switch {
			case r < 256:
				return "1"
			case r <= 532:
				return "3"
			case r <= 680:
				return "2"
			case r <= 800:
				return "2 or 3"
			}
			return "untested"
		})
}

// depthTable reports the optimal ghost depth of job at each ratio R of
// planes per processor beside the paper's.
func depthTable(title string, ratios []int, job perfsim.Job, paper func(r int) string, notes ...string) (*Table, error) {
	t := &Table{
		Title:  title,
		Header: []string{"R (planes/proc)", "optimal depth (ours)", "paper"},
		Notes:  notes,
	}
	for _, r := range ratios {
		job.NX = r * job.Nodes * job.TasksPerNode
		_, depth, err := bestDepth(job)
		if err != nil {
			return nil, err
		}
		t.Rows = append(t.Rows, []string{fmt.Sprintf("%d", r), fmt.Sprintf("%d", depth), paper(r)})
	}
	return t, nil
}

// bestDepth runs job at each ghost depth 1..4 that fits in its ranks'
// slabs and returns the fastest run's time and depth.
func bestDepth(job perfsim.Job) (float64, int, error) {
	best, bestD := 0.0, 0
	for depth := 1; depth <= 4; depth++ {
		if job.NX/(job.Nodes*job.TasksPerNode) < depth*job.K {
			continue
		}
		job.Depth = depth
		res, err := perfsim.Run(job)
		if err != nil {
			return 0, 0, err
		}
		if best == 0 || res.Seconds < best {
			best, bestD = res.Seconds, depth
		}
	}
	return best, bestD, nil
}

// Fig11 regenerates the hybrid tasks×threads study for one machine: the
// runtime of the best ghost depth for each configuration.
func Fig11(machineName string) (*Table, error) {
	m, err := machine.ByName(machineName)
	if err != nil {
		return nil, err
	}
	type combo struct {
		label          string
		tasks, threads int
	}
	var combos []combo
	var nodes int
	if m.Name == "BG/P" {
		nodes = 32
		combos = []combo{
			{"1T", 1, 1}, {"2T", 1, 2}, {"3T", 1, 3}, {"4T", 1, 4}, {"VN", 4, 1},
		}
	} else {
		nodes = 16
		for _, c := range [][2]int{{1, 64}, {2, 32}, {4, 1}, {4, 4}, {4, 8}, {4, 16}, {8, 8}, {16, 1}, {16, 2}, {16, 4}, {32, 1}, {32, 2}, {64, 1}} {
			combos = append(combos, combo{fmt.Sprintf("%d-%d", c[0], c[1]), c[0], c[1]})
		}
	}
	t := &Table{
		Title:  fmt.Sprintf("Fig. 11 — %s hybrid study (relative runtime at best ghost depth)", m.Name),
		Header: []string{"tasks-threads", "D3Q19 time", "D3Q19 depth", "D3Q39 time", "D3Q39 depth"},
	}
	// The paper holds the global domain fixed at the maximum tested ratio:
	// 66 planes per processor (D3Q19) and 800 (D3Q39), processor = core.
	procs := nodes * m.CoresPerNode
	for _, c := range combos {
		row := []string{c.label}
		for _, p := range []modelParams{q19Params, q39Params} {
			perProc := 66
			if p.spec.Q == 39 {
				perProc = 800
			}
			bestT, bestD, err := bestDepth(perfsim.Job{
				Machine: m, Spec: p.spec, K: p.k,
				Nodes: nodes, TasksPerNode: c.tasks, ThreadsPerTask: c.threads,
				NX: perProc * procs, NY: 48, NZ: 48,
				Steps: 50, Opt: core.OptSIMD,
				Imbalance: 0.15, Seed: 3,
			})
			if err != nil {
				return nil, err
			}
			row = append(row, fmt.Sprintf("%.2f", bestT), fmt.Sprintf("%d", bestD))
		}
		t.Rows = append(t.Rows, row)
	}
	if m.Name == "BG/P" {
		t.Notes = append(t.Notes,
			"paper: 4T ≈ VN for D3Q19; for D3Q39 the 4-thread hybrid with deep halos outperforms virtual-node mode")
	} else {
		t.Notes = append(t.Notes, "paper: the optimal pairing is 4 tasks × 16 threads for both models")
	}
	return t, nil
}
