package main

import (
	"time"

	"repro/internal/collision"
	"repro/internal/comm"
	"repro/internal/core"
	"repro/internal/decomp"
	"repro/internal/geom"
	"repro/internal/grid"
	"repro/internal/halo"
	"repro/internal/lattice"
	"repro/internal/machine"
	"repro/internal/macro"
	"repro/internal/obs"
	"repro/internal/output"
	"repro/internal/parallel"
	"repro/internal/perfsim"
	"repro/internal/tune"
)

// The replays below call each layer from outside, with the arguments the
// workload's step would pass: the rank-local field shape, the face boxes
// of its halo exchange, its operator, its thread count. Nothing inside the
// solver is instrumented for them.

// replayFloor is how long each replay loops at least; long enough for the
// clock's resolution not to matter, short enough that all of them together
// stay within a few seconds.
const replayFloor = 40 * time.Millisecond

// repeat calls fn until replayFloor has passed (at least once) inside one
// span and returns the mean seconds per call.
func repeat(tr *tracer, parent int, name string, fn func()) float64 {
	calls := 0
	total := tr.timed(name, parent, func() {
		for t0 := time.Now(); calls == 0 || time.Since(t0) < replayFloor; calls++ {
			fn()
		}
	})
	return total / float64(calls)
}

// decomposition rebuilds the cut the solver makes for cfg, from the same
// exported constructors: fluid-weighted planes under BalanceFluid with a
// mask, equal extents otherwise.
func decomposition(cfg core.Config) (decomp.Cartesian, error) {
	global := [3]int{cfg.N.NX, cfg.N.NY, cfg.N.NZ}
	shape := cfg.Decomp
	if shape == ([3]int{}) {
		shape = [3]int{max(cfg.Ranks, 1), 1, 1}
	}
	bounded := cfg.Boundary.BoundedAxes()
	var weights [3][]int
	if cfg.Balance == core.BalanceFluid && cfg.Solid != nil {
		for a := 0; a < 3; a++ {
			if shape[a] > 1 {
				weights[a] = cfg.Solid.PlaneFluids(a)
			}
		}
	}
	return decomp.NewCartesianWeighted(global, shape, bounded, weights)
}

// usesSlabStepper mirrors the solver's routing rule: the periodic slab
// stepper keeps ghosts on x only; everything else runs on the box stepper
// with ghosts on all three axes.
func usesSlabStepper(cfg core.Config, dec decomp.Cartesian) bool {
	return dec.IsSlab() && cfg.Boundary == nil && cfg.GhostDepthAxes == ([3]int{}) &&
		cfg.Stream != core.StreamAA && !cfg.Sparse
}

// rankShape is one rank's local field geometry and halo faces.
type rankShape struct {
	slab      bool
	start     [3]int // global coordinate of the first owned cell
	own, w    [3]int // owned extents and ghost widths (w is 0 on ghostless axes)
	dims      grid.Dims
	neighbors [3][2]int
}

func shapeOf(cfg core.Config, dec decomp.Cartesian, rank int) (rankShape, error) {
	s := rankShape{slab: usesSlabStepper(cfg, dec)}
	width := max(cfg.GhostDepth, 1) * cfg.Model.MaxSpeed
	for a := 0; a < 3; a++ {
		s.start[a], s.own[a] = dec.Own(rank, a)
		if !s.slab || a == 0 {
			s.w[a] = width
		}
	}
	s.dims = grid.Dims{NX: s.own[0] + 2*s.w[0], NY: s.own[1] + 2*s.w[1], NZ: s.own[2] + 2*s.w[2]}
	top, err := comm.NewCartTopologyBounded(dec.Ranks(), dec.Shape(), dec.Bounded)
	if err != nil {
		return s, err
	}
	s.neighbors = top.Neighbors(rank)
	return s, nil
}

// face is one halo face: the border box the step packs and the ghost box
// it unpacks into, in local coordinates. Like the exchangers' faces it
// spans the full local extent of the other axes.
type face struct {
	border, ghost [2][3]int // lo, hi
}

// faces lists the faces a rank's step exchanges: both sides of every axis
// that has ghosts and a neighbour (itself, on an undecomposed periodic
// axis).
func (s rankShape) faces() []face {
	var out []face
	full := [3]int{s.dims.NX, s.dims.NY, s.dims.NZ}
	for a := 0; a < 3; a++ {
		if s.w[a] == 0 {
			continue
		}
		w, own := s.w[a], s.own[a]
		// Low side: border [w, 2w) feeds the neighbour's high ghost; this
		// rank's low ghost is [0, w). High side mirrored.
		sides := [2][2][2]int{
			{{w, 2 * w}, {0, w}},
			{{own, own + w}, {w + own, 2*w + own}},
		}
		for side := 0; side < 2; side++ {
			if s.neighbors[a][side] == comm.NoNeighbor {
				continue
			}
			var f face
			f.border[1], f.ghost[1] = full, full
			f.border[0][a], f.border[1][a] = sides[side][0][0], sides[side][0][1]
			f.ghost[0][a], f.ghost[1][a] = sides[side][1][0], sides[side][1][1]
			out = append(out, f)
		}
	}
	return out
}

func boxCells(lo, hi [3]int) int {
	return (hi[0] - lo[0]) * (hi[1] - lo[1]) * (hi[2] - lo[2])
}

// replayLayers fills every per-layer metric that comes from calling a
// layer directly. field is the gathered result of the check run.
func replayLayers(tr *tracer, root int, cfg core.Config, field *grid.Field, m map[string]float64) error {
	id := tr.begin("layer replays", root)
	defer tr.end(id)
	dec, err := decomposition(cfg)
	if err != nil {
		return err
	}
	shape, err := shapeOf(cfg, dec, 0)
	if err != nil {
		return err
	}
	q := cfg.Model.Q
	// Errors inside timed closures are kept and returned at the end; none
	// can occur unless a layer rejects what the solver itself just passed.
	var failed error
	note := func(err error) {
		if err != nil && failed == nil {
			failed = err
		}
	}

	// halo: pack and unpack over rank 0's own faces, and one full exchange.
	local := grid.NewField(q, shape.dims, grid.SoA)
	faces := shape.faces()
	maxFace, faceVals := 0, 0
	for _, f := range faces {
		n := q * boxCells(f.border[0], f.border[1])
		faceVals += n
		maxFace = max(maxFace, n)
	}
	buf := make([]float64, maxFace)
	packS := repeat(tr, id, "halo.PackBox", func() {
		for _, f := range faces {
			halo.PackBox(local, f.border[0], f.border[1], buf)
		}
	})
	unpackS := repeat(tr, id, "halo.UnpackBox", func() {
		for _, f := range faces {
			halo.UnpackBox(local, f.ghost[0], f.ghost[1], buf)
		}
	})
	m["halo.pack_gbs"] = float64(8*faceVals) / packS / 1e9
	m["halo.unpack_gbs"] = float64(8*faceVals) / unpackS / 1e9
	local = nil
	if m["halo.payload_fluid_frac"], err = payloadFluidFrac(cfg, dec); err != nil {
		return err
	}
	exchangeS, err := exchangeSeconds(tr, id, cfg, dec)
	if err != nil {
		return err
	}
	m["halo.exchange_ms"] = 1e3 * exchangeS

	// comm: a fresh two-rank fabric, whatever the workload's rank count —
	// the fabric's costs do not depend on who uses it. The message size is
	// the workload's largest halo face.
	if m["comm.pingpong_us"], m["comm.msg_gbs"], m["comm.barrier_us"], err = commCosts(tr, id, maxFace); err != nil {
		return err
	}

	// parallel: the pool's cost of handing out an empty batch of the size
	// the box runner submits (four chunks per worker, one when single).
	threads := max(cfg.Threads, 1)
	chunks := 1
	if threads > 1 {
		chunks = 4 * threads
	}
	pool := parallel.NewPool(threads)
	m["parallel.dispatch_us"] = 1e6 * repeat(tr, id, "parallel.Pool.Run", func() {
		pool.Run(chunks, func(worker, chunk int) {})
	})
	pool.Close()

	// collision and lattice: per-cell costs over one z-run of the local
	// field.
	run := shape.dims.NZ
	op, err := cfg.Collision.New(cfg.Model, cfg.Tau)
	if err != nil {
		return err
	}
	cell := make([]float64, q)
	cfg.Model.Equilibrium(1, 0.01, 0.02, -0.01, cell)
	m["collision.relax_ns"] = 1e9 / float64(run) * repeat(tr, id, "collision.Relax", func() {
		for i := 0; i < run; i++ {
			op.Relax(cell, 1, 0.011, 0.019, -0.009)
		}
	})
	// BGK has no row form (its production path is the solver's own fast
	// kernels); the TRT rows of the same lattice stand in, being the row
	// path a BGK problem would take through the generic operator kernel.
	rows, ok := op.(collision.RowRelaxer)
	if !ok {
		rows = collision.NewTRT(cfg.Model, cfg.Tau, collision.DefaultMagic).(collision.RowRelaxer)
	}
	src, feq := rowBlock(cfg.Model, run), rowBlock(cfg.Model, run)
	m["collision.rows_ns"] = 1e9 / float64(run) * repeat(tr, id, "collision.RelaxRows", func() {
		rows.RelaxRows(src, src, feq, run)
	})
	m["lattice.equilibrium_ns"] = 1e9 / float64(run) * repeat(tr, id, "lattice.Equilibrium", func() {
		for i := 0; i < run; i++ {
			cfg.Model.Equilibrium(1, 0.01, 0.02, -0.01, cell)
		}
	})
	m["lattice.moments_ns"] = 1e9 / float64(run) * repeat(tr, id, "lattice.Moments", func() {
		for i := 0; i < run; i++ {
			rho, jx, jy, jz := cfg.Model.Moments(cell)
			sink = rho + jx + jy + jz
		}
	})

	// grid: allocating one rank-local field, as set-up does twice per rank.
	fieldBytes := float64(8 * q * shape.dims.Cells())
	m["grid.alloc_gbs"] = fieldBytes / 1e9 / repeat(tr, id, "grid.NewField", func() {
		sink = grid.NewField(q, shape.dims, grid.SoA).Data[0]
	})

	// geom and decomp: building and hashing a vessel mask of the workload's
	// grid (the workload's own mask when it has one), and cutting it.
	var mask *geom.Mask
	m["geom.build_s"] = tr.timed("geom.Bifurcation", id, func() {
		mask = geom.Bifurcation(cfg.N, 0.1*float64(cfg.N.NY))
	})
	m["geom.hash_ms"] = 1e3 * repeat(tr, id, "geom.Mask.Hash", func() { mask.Hash() })
	m["decomp.cut_ms"] = 1e3 * repeat(tr, id, "decomp.cut", func() {
		weights := [3][]int{mask.PlaneFluids(0), nil, nil}
		_, err := decomp.NewCartesianWeighted(dec.Global, dec.P, dec.Bounded, weights)
		note(err)
	})

	// macro and output: post-processing of the check field. The VTK writer
	// gets the first planes only — it is a text format, and the whole field
	// would take longer to print than the run took to compute.
	var mf *macro.Fields
	half := [3]float64{cfg.Accel[0] / 2, cfg.Accel[1] / 2, cfg.Accel[2] / 2}
	macroS := repeat(tr, id, "macro.Compute", func() { mf = macro.Compute(cfg.Model, field, half) })
	m["macro.compute_mcells"] = float64(field.D.Cells()) / macroS / 1e6
	slab := vtkSlab(mf, 8)
	var written countingWriter
	vtkS := tr.timed("output.WriteVTK", id, func() {
		note(output.WriteVTK(&written, "benchmark", slab))
	})
	m["output.vtk_mbs"] = float64(written) / vtkS / 1e6

	// obs: the cost of one recorder span, the unit obs.overhead_frac is
	// made of.
	rec := obs.New(0, time.Now(), false)
	const spansPerCall = 1000
	m["obs.span_ns"] = 1e9 / spansPerCall * repeat(tr, id, "obs.Recorder span", func() {
		for i := 0; i < spansPerCall; i++ {
			rec.End(obs.Interior, rec.Begin())
		}
	})

	// perfsim and tune: the 512-rank Fig. 8 job, and pricing the workload's
	// own scenario over the default two-worker search space.
	m["perfsim.run_ms"] = 1e3 * repeat(tr, id, "perfsim.Run", func() {
		job := perfsim.Job{
			Machine: machine.BGP(), Spec: machine.SpecD3Q19(), K: 1,
			Nodes: 128, TasksPerNode: 4, ThreadsPerTask: 1,
			NX: 128 * 4 * 64, NY: 64, NZ: 64,
			Steps: 50, Depth: 1, Opt: core.OptSIMD, Imbalance: 0.05, Seed: 7,
		}
		_, err := perfsim.Run(job)
		note(err)
	})
	scn := &tune.Scenario{
		Name: "benchmark", Model: cfg.Model, N: cfg.N, Tau: cfg.Tau,
		Boundary: cfg.Boundary, Solid: cfg.Solid, Accel: cfg.Accel, Init: cfg.Init,
	}
	space := tune.DefaultSpace(2)
	space.Kernels = []string{cfg.Collision.Kind.String()}
	var cands []tune.Candidate
	enumS := tr.timed("tune.Enumerate", id, func() { cands = tune.Enumerate(scn, space) })
	priceS := tr.timed("tune.Price", id, func() {
		for _, c := range cands {
			_, err := tune.Price(scn, c, nil, cfg.Steps, 2)
			note(err)
		}
	})
	m["tune.candidates"] = float64(len(cands))
	m["tune.price_us"] = 1e6 * (enumS + priceS) / float64(max(len(cands), 1))
	return failed
}

// rowBlock returns Q rows of n equilibrium populations.
func rowBlock(model *lattice.Model, n int) [][]float64 {
	feq := make([]float64, model.Q)
	model.Equilibrium(1, 0.01, 0.02, -0.01, feq)
	rows := make([][]float64, model.Q)
	for v := range rows {
		rows[v] = make([]float64, n)
		for i := range rows[v] {
			rows[v][i] = feq[v]
		}
	}
	return rows
}

// payloadFluidFrac is the share of fluid cells among the owned cells every
// rank packs into halo faces: 1 without a mask; on a masked domain the part
// of each dense face that carries anything a neighbour will read.
func payloadFluidFrac(cfg core.Config, dec decomp.Cartesian) (float64, error) {
	if cfg.Solid == nil {
		return 1, nil
	}
	fluid, cells := 0, 0
	for rank := 0; rank < dec.Ranks(); rank++ {
		s, err := shapeOf(cfg, dec, rank)
		if err != nil {
			return 0, err
		}
		for _, f := range s.faces() {
			// The owned part of the border box, in global coordinates.
			var lo, hi [3]int
			for a := 0; a < 3; a++ {
				l, h := max(f.border[0][a], s.w[a]), min(f.border[1][a], s.w[a]+s.own[a])
				lo[a], hi[a] = s.start[a]+l-s.w[a], s.start[a]+h-s.w[a]
			}
			fluid += cfg.Solid.FluidsInBox(lo, hi)
			cells += boxCells(lo, hi)
		}
	}
	return float64(fluid) / float64(cells), nil
}

// exchangeSeconds times one full halo exchange on a fresh fabric with the
// exchanger and protocol the workload's stepper uses: the median over a
// few exchanges, each between two barriers, as seen by rank 0.
func exchangeSeconds(tr *tracer, parent int, cfg core.Config, dec decomp.Cartesian) (float64, error) {
	const reps = 5
	times := make([]float64, reps)
	q := cfg.Model.Q
	id := tr.begin("halo exchange", parent)
	defer tr.end(id)
	err := comm.NewFabric(dec.Ranks()).Run(func(r *comm.Rank) error {
		s, err := shapeOf(cfg, dec, r.ID)
		if err != nil {
			return err
		}
		f := grid.NewField(q, s.dims, grid.SoA)
		var exchange func()
		if s.slab {
			ex, err := halo.NewExchanger(q, s.dims, s.own[0], s.w[0], s.neighbors[0][0], s.neighbors[0][1])
			if err != nil {
				return err
			}
			exchange = func() { ex.ExchangeNonBlocking(r, f) }
			if r.N == 1 {
				exchange = func() { ex.ExchangeLocal(f) }
			}
		} else {
			ex, err := halo.NewCartExchanger(q, s.dims, s.own, s.w, r.ID, s.neighbors)
			if err != nil {
				return err
			}
			exchange = func() { ex.ExchangeAll(r, f, cfg.Opt >= core.OptNBC) }
		}
		for i := 0; i < reps; i++ {
			r.Barrier()
			t0 := time.Now()
			exchange()
			r.Barrier()
			if r.ID == 0 {
				times[i] = time.Since(t0).Seconds()
			}
		}
		return nil
	})
	return median(times), err
}

// commCosts measures the fabric on two ranks: the round trip of one
// float64, the rate of round trips of msgVals float64s, and a barrier.
func commCosts(tr *tracer, parent int, msgVals int) (pingpongUS, msgGBs, barrierUS float64, err error) {
	const smallTrips, bigTrips, barriers = 2000, 8, 2000
	id := tr.begin("comm fabric", parent)
	defer tr.end(id)
	err = comm.NewFabric(2).Run(func(r *comm.Rank) error {
		peer := 1 - r.ID
		trips := func(n int, buf []float64) float64 {
			r.Barrier()
			t0 := time.Now()
			for i := 0; i < n; i++ {
				if r.ID == 0 {
					r.Send(peer, 1, buf)
					r.Recv(peer, 2, buf)
				} else {
					r.Recv(peer, 1, buf)
					r.Send(peer, 2, buf)
				}
			}
			return time.Since(t0).Seconds()
		}
		small := trips(smallTrips, make([]float64, 1))
		big := trips(bigTrips, make([]float64, msgVals))
		t0 := time.Now()
		for i := 0; i < barriers; i++ {
			r.Barrier()
		}
		bar := time.Since(t0).Seconds()
		if r.ID == 0 {
			pingpongUS = 1e6 * small / smallTrips
			msgGBs = float64(2*8*msgVals*bigTrips) / big / 1e9
			barrierUS = 1e6 * bar / barriers
		}
		return nil
	})
	return pingpongUS, msgGBs, barrierUS, err
}

// vtkSlab is the first planes x-planes of a macroscopic field: a prefix of
// every array, because x is the slowest index.
func vtkSlab(f *macro.Fields, planes int) *macro.Fields {
	planes = min(planes, f.D.NX)
	n := planes * f.D.PlaneCells()
	return &macro.Fields{
		D:   grid.Dims{NX: planes, NY: f.D.NY, NZ: f.D.NZ},
		Rho: f.Rho[:n], Ux: f.Ux[:n], Uy: f.Uy[:n], Uz: f.Uz[:n],
	}
}

// countingWriter counts the bytes written to it and keeps none.
type countingWriter int64

func (c *countingWriter) Write(p []byte) (int, error) {
	*c += countingWriter(len(p))
	return len(p), nil
}
