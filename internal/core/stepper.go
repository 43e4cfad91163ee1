package core

import (
	"math"
	"time"

	"repro/internal/comm"
	"repro/internal/decomp"
	"repro/internal/grid"
	"repro/internal/halo"
	"repro/internal/lattice"
	"repro/internal/metrics"
	"repro/internal/obs"
)

// stepper holds one rank's state for the stepping loop.
//
// Local plane coordinates: the field spans [0, own+2W) in x, where W is the
// halo width (GhostDepth·k). Planes [W, W+own) are owned; [0,W) is the left
// ghost region and [W+own, own+2W) the right one. For OptOrig, W equals k
// and the side regions are transient egress margins rather than ghosts.
type stepper struct {
	cfg   *Config
	model *lattice.Model
	r     *comm.Rank

	startX int // first owned global plane
	own    int // owned planes
	k      int // lattice max speed (planes crossed per step)
	depth  int // deep-halo depth
	w      int // halo width = depth·k

	d       grid.Dims // local field dims (own+2w, NY, NZ)
	f, fadv *grid.Field
	ex      *halo.Exchanger
	orig    *origProto

	br           boxRunner
	scratch      []*workerScratch
	ghostUpdates int64
	collider                             // collision state and the configuration's row kernel (collide.go)
	collide      func(worker int, b box) // collideRows, bound once so dispatching it allocates nothing
	srcY         [][]int32               // per velocity: pull-stream source row per dst row (LoBr+)
	jit          *metrics.RNG
	rec          *obs.Recorder // nil unless Config.Observe; every call site is nil-safe

	// Obstacles (see boundary.go, fixindex.go).
	mask      []bool
	fix       *fixIndex
	stepForce [numBodies][3]float64
	forceSer  []float64
}

func newStepper(cfg *Config, dec decomp.Cartesian, r *comm.Rank) (*stepper, error) {
	startX, own := dec.Own(r.ID, decomp.AxisX)
	left := dec.Neighbor(r.ID, decomp.AxisX, -1)
	right := dec.Neighbor(r.ID, decomp.AxisX, +1)
	k := cfg.Model.MaxSpeed
	w := cfg.GhostDepth * k
	s := &stepper{
		cfg: cfg, model: cfg.Model, r: r,
		startX: startX, own: own,
		k: k, depth: cfg.GhostDepth, w: w,
	}
	if err := s.collider.init(cfg); err != nil {
		return nil, err
	}
	s.collide = s.collideRows
	s.d = grid.Dims{NX: own + 2*w, NY: cfg.N.NY, NZ: cfg.N.NZ}
	s.br = newBoxRunner(cfg.Threads)
	s.scratch = newScratches(s.br.threads(), cfg.Model.Q, s.d.NZ, s.op, cfg.Layout == grid.AoS)
	s.f = grid.NewField(cfg.Model.Q, s.d, cfg.Layout)
	s.fadv = grid.NewField(cfg.Model.Q, s.d, cfg.Layout)
	if cfg.Opt == OptOrig {
		s.orig = newOrigProto(s, left, right)
	} else {
		ex, err := halo.NewExchanger(cfg.Model.Q, s.d, own, w, left, right)
		if err != nil {
			return nil, err
		}
		s.ex = ex
	}
	if cfg.Opt >= OptLoBr {
		s.buildSrcYTables()
	}
	if cfg.StepJitter > 0 {
		s.jit = metrics.NewRNG(uint64(r.ID)*0x9e3779b9 + 1)
	}
	s.buildMask()
	return s, nil
}

// buildSrcYTables precomputes, for every velocity, the pull-stream source
// row index for each destination row: srcY[v][y] = (y − cy) mod NY. This is
// the branch-reduction analog of the paper's Fig. 6 index arrays: the inner
// loops then contain no wrap arithmetic at all.
func (s *stepper) buildSrcYTables() {
	ny := s.d.NY
	s.srcY = make([][]int32, s.model.Q)
	for v := 0; v < s.model.Q; v++ {
		tab := make([]int32, ny)
		for y := 0; y < ny; y++ {
			tab[y] = int32(((y-s.model.Cy[v])%ny + ny) % ny)
		}
		s.srcY[v] = tab
	}
}

// testPoisonGhosts, set by tests, floods every cell with NaN before the
// owned region is initialized. Every ghost copy is then poison until the
// exchange or face fill that defines it runs, so a kernel that consumes a
// ghost value one step too early — an off-by-one in the shrinking-box
// schedule, a missed axis in a refresh, a fill pass that skips a layer —
// drags NaN into the owned region and fails the bit-exact comparison
// against the clean run. NaN is the one poison that survives arithmetic.
var testPoisonGhosts bool

func poisonField(f *grid.Field) {
	for i := range f.Data {
		f.Data[i] = math.NaN()
	}
}

// initField writes the equilibrium of the configured initial condition into
// the owned region. Ghost planes are populated by the first exchange.
func (s *stepper) initField() {
	if testPoisonGhosts {
		poisonField(s.f)
	}
	feq := make([]float64, s.model.Q)
	rest := make([]float64, s.model.Q)
	s.model.Equilibrium(1, 0, 0, 0, rest)
	for ix := 0; ix < s.own; ix++ {
		gx := s.startX + ix
		for iy := 0; iy < s.d.NY; iy++ {
			for iz := 0; iz < s.d.NZ; iz++ {
				if s.mask != nil && s.mask[s.d.Index(s.w+ix, iy, iz)] {
					// Solid cells hold a benign rest state; their values are
					// never consumed (every link out of them is bounced).
					s.f.SetCell(s.w+ix, iy, iz, rest)
					continue
				}
				rho, ux, uy, uz := s.cfg.Init(gx, iy, iz)
				s.model.Equilibrium(rho, ux, uy, uz, feq)
				s.f.SetCell(s.w+ix, iy, iz, feq)
			}
		}
	}
}

// run advances the configured number of steps.
func (s *stepper) run() {
	if s.orig != nil {
		for n := 0; n < s.cfg.Steps; n++ {
			s.orig.step()
			s.endForceStep()
			s.jitter()
		}
		return
	}
	for done := 0; done < s.cfg.Steps; {
		runLen := s.depth
		if rest := s.cfg.Steps - done; rest < runLen {
			runLen = rest
		}
		if s.cfg.Fused {
			s.fusedCycle(runLen)
		} else {
			s.cycle(runLen)
		}
		done += runLen
	}
}

// jitter injects the configured deterministic per-rank delay.
func (s *stepper) jitter() {
	if s.jit == nil {
		return
	}
	time.Sleep(time.Duration(s.jit.Float64() * float64(s.cfg.StepJitter)))
}

// cycle performs one deep-halo cycle: a halo exchange followed by runLen
// (≤ depth) stream+collide steps on a shrinking valid region.
func (s *stepper) cycle(runLen int) {
	exts := halo.CycleExtents(s.depth, s.k)
	overlap := s.cfg.Opt >= OptGCC && s.r.N > 1
	switch {
	case s.r.N == 1:
		// Single rank: periodic wrap in x is a local copy.
		s.ex.ExchangeLocal(s.f)
	case overlap:
		s.overlappedFirstStep(exts[0])
	case s.cfg.Opt >= OptNBC:
		s.ex.ExchangeNonBlocking(s.r, s.f)
	default:
		s.ex.ExchangeBlocking(s.r, s.f)
	}
	start := 0
	if overlap {
		s.jitter()
		start = 1
	}
	for si := start; si < runLen; si++ {
		ext := exts[si]
		lo, hi := s.regionFor(ext)
		s.streamRegion(lo, hi)
		s.applyBounceBack(lo, hi)
		s.collideRegion(lo, hi)
		s.countUpdates(lo, hi)
		s.endForceStep()
		s.jitter()
	}
}

// regionFor returns the destination plane range computable in a step whose
// inputs are valid on owned ± ext planes: owned ± (ext − k).
func (s *stepper) regionFor(ext int) (lo, hi int) {
	return s.w - (ext - s.k), s.w + s.own + (ext - s.k)
}

// planFirstStep runs the box schedule planner for the slab's overlapped
// first step: the slab is the one-stale-axis (x) degenerate case, with
// full y/z extents and borders packed before any compute (no late packs).
func (s *stepper) planFirstStep(lo, hi int) stepPlan {
	dest := box{lo: [3]int{lo, 0, 0}, hi: [3]int{hi, s.d.NY, s.d.NZ}}
	return planStep(dest, [3]int{s.own, s.d.NY, s.d.NZ}, [3]int{s.w, 0, 0}, s.k,
		[3]bool{true, false, false}, [3]bool{})
}

// overlappedFirstStep implements the GC-C schedule (§V.F, Fig. 7) for the
// first step of a cycle: receives posted, borders of the previous state
// sent, interior streamed and partially collided while messages fly, then
// the ghost-dependent rim finished after WaitUnpack. The interior/rim
// split comes from the box schedule planner (schedule.go), which chooses
// it so no collide overwrites state an edge stream still needs.
func (s *stepper) overlappedFirstStep(ext int) {
	lo, hi := s.regionFor(ext) // [k, own+2w−k)
	plan := s.planFirstStep(lo, hi)
	// Stream may run ahead wherever its inputs avoid the ghost planes;
	// collide only where edge streams will not re-read f.
	isLo, isHi := plan.interiorS.lo[0], plan.interiorS.hi[0]
	icLo, icHi := plan.interiorC.lo[0], plan.interiorC.hi[0]

	s.ex.PostRecvs(s.r)
	s.ex.SendBorders(s.r, s.f)
	s.streamRegion(isLo, isHi)
	s.applyBounceBack(isLo, isHi)
	s.collideRegion(icLo, icHi)
	s.ex.WaitUnpack(s.r, s.f)
	t0 := s.rec.Begin()
	s.streamRegionPair(lo, isLo, isHi, hi)
	s.rec.EndAxis(obs.Rim, 0, t0)
	s.applyBounceBack(lo, isLo)
	s.applyBounceBack(isHi, hi)
	t0 = s.rec.Begin()
	s.collideRegionPair(lo, icLo, icHi, hi)
	s.rec.EndAxis(obs.Rim, 0, t0)
	s.countUpdates(lo, hi)
	s.endForceStep()
}

// countUpdates accumulates the ghost-region overhead metric.
func (s *stepper) countUpdates(lo, hi int) {
	extra := (hi - lo) - s.own
	if extra > 0 {
		s.ghostUpdates += int64(extra) * int64(s.d.PlaneCells())
	}
}

// slabBox is the box form of a destination plane range: planes [lo,hi)
// with the full y/z cross-section.
func (s *stepper) slabBox(lo, hi int) box {
	return box{lo: [3]int{lo, 0, 0}, hi: [3]int{hi, s.d.NY, s.d.NZ}}
}

// streamKernel resolves the streaming kernel for the configured level.
func (s *stepper) streamKernel() func(worker int, b box) {
	switch {
	case s.cfg.Opt <= OptGC:
		return s.streamScalar
	case s.cfg.Opt < OptLoBr:
		return s.streamCopy
	default:
		return s.streamCopyIndexed
	}
}

// streamRegion advances the streaming step for destination planes [lo,hi).
func (s *stepper) streamRegion(lo, hi int) {
	if hi <= lo {
		return
	}
	t0 := s.rec.Begin()
	s.br.run(s.streamKernel(), s.slabBox(lo, hi))
	s.rec.End(obs.Interior, t0)
}

// streamRegionPair streams two disjoint plane ranges (the separated
// ghost-region loops of §V.D) as one chunk batch, so the thin rim pair
// load-balances across the whole team.
func (s *stepper) streamRegionPair(lo1, hi1, lo2, hi2 int) {
	s.br.run(s.streamKernel(), s.slabBox(lo1, hi1), s.slabBox(lo2, hi2))
}

// collideRegion applies the configured collision to planes [lo,hi).
func (s *stepper) collideRegion(lo, hi int) {
	if hi <= lo {
		return
	}
	t0 := s.rec.Begin()
	s.br.run(s.collide, s.slabBox(lo, hi))
	s.rec.End(obs.Interior, t0)
}

// collideRegionPair collides two disjoint plane ranges.
func (s *stepper) collideRegionPair(lo1, hi1, lo2, hi2 int) {
	s.br.run(s.collide, s.slabBox(lo1, hi1), s.slabBox(lo2, hi2))
}

// collideRows is the slab's view-forming caller of the row kernel: every
// (x, y) row of the chunk, full z extent, fadv → f. SoA rows are relaxed
// in place through slice views; AoS rows (Orig/GC layout ablation) are
// transposed through the worker's gathered rows.
func (s *stepper) collideRows(worker int, bx box) {
	sc := s.scratch[worker]
	nz, q := s.d.NZ, s.model.Q
	var rows [][]float64
	if s.f.Layout == grid.AoS {
		rows, _ = sc.gathered(nz)
	}
	for ix := bx.lo[0]; ix < bx.hi[0]; ix++ {
		for iy := bx.lo[1]; iy < bx.hi[1]; iy++ {
			base := s.d.Index(ix, iy, 0)
			if rows == nil {
				s.relax(sc, rowViews(sc.sv, s.fadv, base, nz), rowViews(sc.dv, s.f, base, nz), nz)
				continue
			}
			// AoS keeps a row's nz cells as nz contiguous Q-blocks.
			src := s.fadv.Data[base*q : (base+nz)*q]
			for z := 0; z < nz; z++ {
				for v := range rows {
					rows[v][z] = src[z*q+v]
				}
			}
			s.relax(sc, rows, rows, nz)
			dst := s.f.Data[base*q : (base+nz)*q]
			for z := 0; z < nz; z++ {
				for v := range rows {
					dst[z*q+v] = rows[v][z]
				}
			}
		}
	}
}

// ownedSums returns mass and momentum summed over the owned fluid cells.
func (s *stepper) ownedSums() (mass, mx, my, mz float64) {
	fc := make([]float64, s.model.Q)
	for ix := s.w; ix < s.w+s.own; ix++ {
		for iy := 0; iy < s.d.NY; iy++ {
			for iz := 0; iz < s.d.NZ; iz++ {
				if s.mask != nil && s.mask[s.d.Index(ix, iy, iz)] {
					continue
				}
				s.f.Cell(ix, iy, iz, fc)
				rho, jx, jy, jz := s.model.Moments(fc)
				mass += rho
				mx += jx
				my += jy
				mz += jz
			}
		}
	}
	return
}

// ownedSlab packs the owned region of the final state velocity-major (for
// every velocity, the owned planes in order), independent of layout.
func (s *stepper) ownedSlab() []float64 {
	plane := s.d.PlaneCells()
	n := s.own * plane
	out := make([]float64, s.model.Q*n)
	if s.f.Layout == grid.SoA {
		for v := 0; v < s.model.Q; v++ {
			blk := s.f.V(v)
			copy(out[v*n:(v+1)*n], blk[s.w*plane:(s.w+s.own)*plane])
		}
		return out
	}
	for v := 0; v < s.model.Q; v++ {
		for c := 0; c < n; c++ {
			out[v*n+c] = s.f.Data[(s.w*plane+c)*s.model.Q+v]
		}
	}
	return out
}

// ghosts, gather, axisBytes and forceSeries adapt the stepper to the
// shared Run harness (the cart stepper implements the same quartet).
func (s *stepper) ghosts() int64          { return s.ghostUpdates }
func (s *stepper) close()                 { s.br.close() }
func (s *stepper) gather() []float64      { return s.ownedSlab() }
func (s *stepper) forceSeries() []float64 { return s.forceSer }

// setRecorder attaches the per-phase recorder to the stepper and its
// exchanger (called by Run before initField when Config.Observe is set).
func (s *stepper) setRecorder(rec *obs.Recorder) {
	s.rec = rec
	if s.ex != nil {
		s.ex.Rec = rec
	}
}

// observation snapshots the recorder plus the pool's per-worker chunk
// counts.
func (s *stepper) observation() obs.RankObservation {
	o := s.rec.Observation()
	if s.br.pool.Threads() > 1 {
		o.WorkerChunks = s.br.pool.ChunkCounts()
		o.WorkerWeights = s.br.weightTotals()
	}
	return o
}

// axisBytes reports this rank's halo payload per full exchange: the
// exchanger's own accounting (x only — the slab has no y/z halo). Zero
// for the no-ghost Orig protocol and for single-rank local wraps.
func (s *stepper) axisBytes() [3]int64 {
	if s.ex == nil || s.r.N == 1 {
		return [3]int64{}
	}
	return [3]int64{s.ex.BytesPerExchange(), 0, 0}
}
