package core

// The stepper: one rank's state and stepping loop for every
// configuration. The owned-region/ghost-width bookkeeping is per axis:
// axis a carries ghost layers of width w[a] = depth[a]·k, refreshed every
// depth[a] steps (Config.GhostDepthAxes lets a pencil spend halo width
// where its surface is largest), and the deep-halo schedule shrinks an
// axis-aligned box between refreshes. A y or z axis with neither a
// neighbour nor a wall — uncut and periodic, on a two-grid dense run —
// carries none (w = 0, a "wrap axis": GhostWidths): the stream kernels
// (stream.go), the gather sweep (gather.go) and the bounce-back link
// builder (buildFixups) fold across it themselves, y and z independently.
// Where an uncut periodic axis does carry ghosts (x always; every axis
// under AA or sparse storage) they are filled by a local copy and the
// kernels stream across it as plain offset copies. Everything else here
// is geometry-blind.
//
// Every rung streams with the form stream.go selects for it — block by
// block into fadv (streamRows), or row by row in the gather sweep (fused,
// AA) — and then advances its rows, in spans of back-to-back rows, through
// the one row body of gather.go: links, the row kernel collide.go selects, sponge.
// So 1-D and 3-D runs agree bit for bit. On two fields every path computes
// the next state in fadv and the fields swap when the step is done: the
// state f is never written mid-step. NB-C and above switch the per-axis
// exchange to the posted-receive protocol; GC-C and above run the phased
// overlapped schedule of schedule.go (interior box while messages fly,
// per-axis rims after each WaitUnpackAxis). The no-ghost Orig protocol
// (orig.go) rides on the same state with its own step.

import (
	"math"
	"slices"
	"time"

	"repro/internal/comm"
	"repro/internal/decomp"
	"repro/internal/grid"
	"repro/internal/halo"
	"repro/internal/lattice"
	"repro/internal/metrics"
	"repro/internal/obs"
)

// box is an axis-aligned local cell region: [lo[a], hi[a]) per axis.
type box struct {
	lo, hi [3]int
}

// cells returns the number of cells in the box.
func (b box) cells() int {
	n := 1
	for a := 0; a < 3; a++ {
		if b.hi[a] <= b.lo[a] {
			return 0
		}
		n *= b.hi[a] - b.lo[a]
	}
	return n
}

// cartStepper holds one rank's state for the stepping loop. Local
// coordinates on axis a: [w[a], w[a]+own[a]) is owned, [0, w[a]) the low
// ghost and [w[a]+own[a], own[a]+2w[a]) the high ghost. For OptOrig w[0]
// equals k and the x side regions are transient egress margins rather
// than ghosts.
type cartStepper struct {
	cfg   *Config
	model *lattice.Model
	r     *comm.Rank

	start [3]int // first owned global cell per axis
	own   [3]int // owned extents
	k     int    // lattice max speed
	depth [3]int // deep-halo depth per axis
	w     [3]int // ghost width per side per axis: depth[a]·k, or 0 on a wrap axis

	d       grid.Dims
	f, fadv *grid.Field // fadv is nil under AA streaming (single-field)
	ex      *halo.CartExchanger
	aa      bool       // AA-pattern in-place streaming (aa.go)
	gathers bool       // Config.GatherSweep: a step is one gather sweep (gather.go), not stream → row body
	views   bool       // the sweep relaxes upwind rows that are plain slices of f in place (two fields only)
	orig    *origProto // the no-ghost protocol (orig.go); nil on every ghost-cell rung

	br           *boxRunner
	scratch      []*workerScratch
	ghostUpdates int64
	collider                             // collision state and the configuration's row kernel (collide.go)
	stream       func(worker int, b box) // the rung's stream kernel (stream.go), bound once so dispatching it allocates nothing
	srcY         [][]int32               // per velocity: pull-stream source row per destination row (stream.go)
	jit          *metrics.RNG
	rec          *obs.Recorder // nil unless Config.Observe; every call site is nil-safe

	// The other chunk kernels, bound once for the same reason: advance's, the
	// row body (gather.go), wall and inlet face fills (inlet: the face filled).
	next, gather, restFace, inletFace func(worker int, b box)
	inlet                             *Face

	mask []bool
	// The run index (sparse.go): per-row CSR of fluid z-intervals and their
	// compact field offsets, installed when Config.Sparse and a mask are
	// present. Nil runStart keeps the fields dense and every kernel on its
	// dense branch.
	runIndex
	fix      *fixIndex
	forceSer []float64 // per step, per body: the momentum-exchange force on the owned links

	spec      *BoundarySpec  // global-face boundary conditions (nil = periodic)
	rest      []float64      // rest-state equilibrium, the wall ghost filler
	class     [3][]axisClass // per-axis local-index classification (set when spec or mask present)
	sponge    [3][]float64   // per-axis, per-local-index sponge blend factor (nil = no sponge on axis)
	hasSponge bool

	// Constant faces (wall, moving wall, inlet: fillFace writes the same
	// values every time) are written into each field on its first refresh
	// and left alone after (ConstFacesOnce): filledIn[axis][side] holds the
	// last two fields the face was written into. refill[axis] says the
	// axis rewrites them at every refresh anyway.
	filledIn [3][2][2]*grid.Field
	refill   [3]bool

	// Q-length buffers of the serial open-face passes (fillPressureLayer,
	// aaFillColumns): a cell's populations and its two equilibria.
	faceFc, faceFeqR, faceFeq1 []float64

	// AA-pattern state (aa.go): aaStar says the field is in star
	// arrangement — between a transport sub-step and its compact, and after
	// a run of odd Steps; aaFill holds the pressure-outlet fill values of
	// the serial open-face replay.
	aaStar bool
	aaFill []float64
}

func newCartStepper(cfg *Config, dec decomp.Cartesian, r *comm.Rank) (*cartStepper, error) {
	cs := &cartStepper{
		cfg: cfg, model: cfg.Model, r: r,
		k:    cfg.Model.MaxSpeed,
		aa:   cfg.Stream == StreamAA,
		spec: cfg.Boundary,
	}
	if err := cs.collider.init(cfg); err != nil {
		return nil, err
	}
	cs.gathers, cs.views = cfg.GatherSweep(), !cs.aa
	cs.next, cs.gather, cs.restFace, cs.inletFace = cs.streamRows, cs.gatherRows, cs.restFaceRows, cs.inletFaceRows
	if cs.gathers {
		cs.next = cs.gather
	}
	cs.depth, cs.w = cfg.ghostGeometry(dec)
	open := cfg.Boundary.hasFace(BCOutflow, BCPressureOutlet)
	for a := range cs.refill {
		cs.refill[a] = testRefillFaces || !ConstFacesOnce(cs.depth[a], cfg.Stream, open)
	}
	for a := 0; a < 3; a++ {
		cs.start[a], cs.own[a] = dec.Own(r.ID, a)
	}
	cs.d = grid.Dims{NX: cs.own[0] + 2*cs.w[0], NY: cs.own[1] + 2*cs.w[1], NZ: cs.own[2] + 2*cs.w[2]}
	cs.br = newBoxRunner(cfg.Threads)
	cs.scratch = newScratches(cs.br.threads(), cfg.Model.Q, cs.d.NZ, cs.op)
	cs.rest = make([]float64, cfg.Model.Q)
	cs.faceFc, cs.faceFeqR, cs.faceFeq1 = make([]float64, cfg.Model.Q), make([]float64, cfg.Model.Q), make([]float64, cfg.Model.Q)
	cfg.Model.Equilibrium(1, 0, 0, 0, cs.rest)
	// Neighbor ranks come from the fabric-level Cartesian topology (the
	// MPI_Cart_create analog); the decomposition supplies only extents and
	// per-axis periodicity. Both number ranks z-fastest, which the
	// equivalence tests pin. At the global edge of a bounded axis the
	// topology reports NoNeighbor, which makes the exchanger skip that
	// face and leaves its ghosts to the boundary fill below.
	top, err := comm.NewCartTopologyBounded(r.N, dec.Shape(), dec.Bounded)
	if err != nil {
		cs.close()
		return nil, err
	}
	obstacle := cs.buildMask()
	cs.allocFields()
	if cs.mask != nil {
		cs.buildFixups(obstacle)
	}
	cs.buildSponge()
	cs.bindStream()
	// The halo follows the storage: under the run index its faces list the
	// stored cells of their rows, at compact offsets.
	var stored halo.Clip
	if cs.runStart != nil {
		stored = cs.clip
	}
	cs.ex, err = halo.NewCartExchangerClipped(cfg.Model.Q, cs.d, cs.own, cs.w, r.ID, top.Neighbors(r.ID), stored, cfg.faceVelocities(cs.w))
	if err != nil {
		cs.close()
		return nil, err
	}
	if cfg.Opt == OptOrig {
		cs.orig = newOrigProto(cs, cs.ex.Neighbors[0])
	}
	if cfg.StepJitter > 0 {
		cs.jit = metrics.NewRNG(uint64(r.ID)*0x9e3779b9 + 1)
	}
	return cs, nil
}

// allocFields allocates the distribution fields. They follow the mask:
// dense over the local box, or — with the run index installed — exactly
// the cells of its fluid runs. They are mapped outside the Go heap,
// zeroed and faulted in here, inside set-up (grid.NewMappedField), and
// live until releaseFields.
func (cs *cartStepper) allocFields() {
	q, d := cs.model.Q, cs.fieldDims()
	cs.f = grid.NewMappedField(q, d)
	if !cs.aa {
		// AA streams in place: the second field never exists, which is the
		// scheme's whole point — footprint and f-traffic are halved.
		cs.fadv = grid.NewMappedField(q, d)
	}
}

// releaseFields unmaps both fields.
func (cs *cartStepper) releaseFields() {
	cs.f.Release()
	cs.fadv.Release()
}

// testPoisonGhosts, set by tests, floods every cell of both fields with NaN
// before the owned region is initialized. Every ghost slot is then poison
// until the exchange or face fill that defines it runs, so a kernel that
// consumes a ghost value one step too early — an off-by-one in the
// shrinking-box schedule, a missed axis in a refresh, a fill pass that
// skips a layer, a population a depth-1 face does not carry — drags NaN
// into the owned region and fails the bit-exact comparison against the
// clean run. NaN is the one poison that survives arithmetic.
var testPoisonGhosts bool

func poisonField(f *grid.Field) {
	for i := range f.Data {
		f.Data[i] = math.NaN()
	}
}

// initField writes the equilibrium of the configured initial condition
// into the owned box, chunked across the team (initRows); ghosts are
// populated by the first exchange. Dense fields also hold the solid cells,
// which get a benign rest state — their values are never consumed (every
// link out of them is bounced). It returns the global index + 1 of the
// first owned cell whose Init is not a state (validState), 0 when every
// one is.
func (cs *cartStepper) initField() (bad int) {
	if testPoisonGhosts {
		poisonField(cs.f)
		if cs.fadv != nil {
			poisonField(cs.fadv) // the fields swap: its ghosts are live one step later
		}
	}
	for _, sc := range cs.scratch {
		sc.bad = 0
	}
	cs.br.run(cs.initRows, cs.ownedBox())
	for _, sc := range cs.scratch {
		if sc.bad != 0 && (bad == 0 || sc.bad < bad) {
			bad = sc.bad
		}
	}
	return bad
}

// initRows is initField's chunk kernel. Per z-run it fills the pair
// kernels' shared rows from the initial condition — ρ, q_a = u_a/c_s² and
// base = 1 − u²/(2c_s²), no forcing shift; a dense field's solid cell
// gets ρ = 1, u = 0, which is exactly cs.rest — forms t_k = w_k·ρ, and
// lets eqRows write f_eq = t·(even ± odd) into the run's rows of f.
func (cs *cartStepper) initRows(worker int, b box) {
	sc := cs.scratch[worker]
	rb := &sc.rb
	invCs2, invCs2h := cs.invCs2, cs.invCs2h
	cs.forRuns(b, func(ix, iy, zlo, zhi, base int) {
		zn := zhi - zlo
		rho, qx, qy, qz, bs := rb.rho[:zn], rb.j[0][:zn], rb.j[1][:zn], rb.j[2][:zn], rb.base[:zn]
		msk := cs.rowMask(base, zn)
		gx, gy, gz := cs.start[0]+ix-cs.w[0], cs.start[1]+iy-cs.w[1], cs.start[2]+zlo-cs.w[2]
		for z := range rho {
			r, ux, uy, uz := 1.0, 0.0, 0.0, 0.0
			if msk == nil || !msk[z] {
				r, ux, uy, uz = cs.cfg.Init(gx, gy, gz+z)
				if !validState(r, ux, uy, uz) {
					if i := cs.cfg.N.Index(gx, gy, gz+z) + 1; sc.bad == 0 || i < sc.bad {
						sc.bad = i
					}
				}
			}
			rho[z] = r
			bs[z] = 1 - (ux*ux+uy*uy+uz*uz)*invCs2h
			qx[z], qy[z], qz[z] = ux*invCs2, uy*invCs2, uz*invCs2
		}
		cs.weighRows(rb, cs.wk, zn)
		cs.eqRows(rb, rowViews(sc.sv, cs.f, base, zn), zn)
	})
}

// validState reports whether (ρ, u) is a state the solver can start from:
// ρ finite and positive, every component of u finite.
func validState(rho, ux, uy, uz float64) bool {
	const big = math.MaxFloat64
	return rho > 0 && rho <= big && math.Abs(ux) <= big && math.Abs(uy) <= big && math.Abs(uz) <= big
}

// rowMask returns the solid flags of the run [base, base+zn) of a dense
// masked field, or nil when every cell of the run is fluid: no mask, or a
// run of the run index.
func (cs *cartStepper) rowMask(base, zn int) []bool {
	if cs.mask == nil || cs.runStart != nil {
		return nil
	}
	return cs.mask[base : base+zn]
}

// run advances the configured number of steps. Each ghosted axis runs its
// own deep-halo cycle: axis a's ghosts are refreshed every depth[a] steps
// and its valid extent shrinks by k per step in between, so the computed
// destination box is the intersection of the per-axis validity intervals.
// A wrap axis has no ghosts to go stale and always spans its owned extent.
// AA's depths are even (aaDepths), so its refreshes land on even steps —
// pair starts, where the field is in normal arrangement and the exchanger's
// pack/unpack maps apply.
func (cs *cartStepper) run() {
	if cs.orig != nil {
		for n := 0; n < cs.cfg.Steps; n++ {
			cs.measureForces()
			cs.orig.step()
			cs.jitter()
		}
		return
	}
	var since [3]int // steps since each axis's refresh; due when == depth[a]
	for a := range since {
		since[a] = cs.depth[a] // every axis due at step 0
	}
	for step := 0; step < cs.cfg.Steps; step++ {
		var stale [3]bool
		for a := 0; a < 3; a++ {
			if cs.w[a] > 0 && since[a] >= cs.depth[a] {
				stale[a], since[a] = true, 0
			}
		}
		var ext [3]int
		for a := 0; a < 3; a++ {
			ext[a] = (cs.depth[a] - since[a]) * cs.k
		}
		b := cs.boxFor(ext)
		cs.measureForces()
		cs.step(b, stale)
		cs.countUpdates(b)
		cs.jitter()
		for a := range since {
			since[a]++
		}
	}
}

// jitter injects the configured deterministic per-rank delay.
func (cs *cartStepper) jitter() {
	if cs.jit == nil {
		return
	}
	time.Sleep(time.Duration(cs.jit.Float64() * float64(cs.cfg.StepJitter)))
}

// step advances one time step on destination box b: compute the next
// state, then make it the state. On two fields that is the swap — nothing
// wrote f while the step computed (TestStepNeverWritesState), which is why
// any box may be advanced as soon as its inputs are valid. AA's one field
// just flips its arrangement.
func (cs *cartStepper) step(b box, stale [3]bool) {
	cs.compute(b, stale)
	if cs.aa {
		cs.aaStar = !cs.aaStar
		return
	}
	cs.f, cs.fadv = cs.fadv, cs.f
}

// compute refreshes the stale axes' ghosts and advances box b — overlapped
// under the GC-C schedule when messages are in play, synchronously
// otherwise (always under AA). Open-face ghosts follow the current state
// every step: refilled from it, or on AA's odd sub-step — no ghost is
// rewritten mid-pair — replayed into the pushed slots (aa.go).
func (cs *cartStepper) compute(b box, stale [3]bool) {
	if cs.aaStar {
		cs.aaFixOpenFaces(b)
	} else {
		cs.fillOpenFaces()
	}
	if cs.cfg.Opt >= OptGCC && !cs.aa && cs.hasMessagingStale(stale) {
		cs.overlappedStep(b, stale)
		return
	}
	if stale != ([3]bool{}) {
		cs.refreshAxes(stale)
	}
	cs.advance(obs.Interior, obs.NoAxis, b)
}

// hasMessagingStale reports whether any stale axis exchanges real
// messages (the precondition for the overlapped schedule to hide
// anything).
func (cs *cartStepper) hasMessagingStale(stale [3]bool) bool {
	for a := 0; a < 3; a++ {
		if stale[a] && cs.ex.Messaging(a) {
			return true
		}
	}
	return false
}

// refreshAxes makes the stale axes' ghost layers valid, synchronously.
// Axes are processed in x, y, z order, and within an axis the boundary
// fill runs before the exchange: the fill of axis a spans the full local
// extent of the other axes, so the already-refreshed earlier axes give it
// current corner data, and the exchanges of later axes transport the
// filled faces to neighboring ranks — the same sequential ride-along that
// covers periodic edges and corners, extended to boundary data. Interior
// ranks of a bounded axis only exchange; edge ranks additionally fill
// their NoNeighbor faces. Axes that are not stale still hold a valid
// (shrunken) ghost extent and are skipped; the data a later axis's
// payload carries from their ghost regions is exact within that extent,
// which is all the receiver's shrinking box ever reads.
func (cs *cartStepper) refreshAxes(stale [3]bool) {
	nonblocking := cs.cfg.Opt >= OptNBC
	for axis := 0; axis < 3; axis++ {
		if !stale[axis] {
			continue
		}
		cs.fillAxisFaces(axis)
		cs.ex.ExchangeAxis(cs.r, cs.f, axis, nonblocking)
	}
}

// fillAxisFaces fills the boundary ghost faces (NoNeighbor sides) of one
// axis, if any. Open faces are skipped: fillOpenFaces refreshed them at
// the start of the step (every step, not just refresh steps). So is a
// constant face already written into the current field, unless the axis
// refills (refill).
func (cs *cartStepper) fillAxisFaces(axis int) {
	if cs.spec == nil {
		return
	}
	for side := 0; side < 2; side++ {
		if cs.ex.Neighbors[axis][side] != halo.NoNeighbor || openFace(cs.spec.Faces[axis][side].Kind) {
			continue
		}
		in := &cs.filledIn[axis][side]
		if !cs.refill[axis] && (in[0] == cs.f || in[1] == cs.f) {
			continue
		}
		cs.fillFace(axis, side)
		in[0], in[1] = cs.f, in[0]
	}
}

// testRefillFaces, set by tests, makes every refresh rewrite every
// constant face, as a deep halo does — the reference the write-once faces
// must reproduce to the last bit (TestConstFacesOnceBitIdentity).
var testRefillFaces bool

// overlappedStep is the per-axis GC-C schedule (§V.F generalized to every
// decomposition): ghost receives for the messaging stale axes are posted
// up front, then each stale axis is refreshed at its slot in x→y→z order
// — boundary fills and border sends (or the local wraparound) first,
// WaitUnpackAxis to complete — with the compute interleaved so every wire
// window hides work: the interior box overlaps the first messaging axis's
// messages, and each later axis's messages overlap the previous axis's
// rim compute. Packing an axis only at its slot, after the previous
// axis's unpack, is what preserves the sequential ride-along corner
// coverage: every payload spans the full local extent — fresh ghosts
// included — of the axes already exchanged.
func (cs *cartStepper) overlappedStep(b box, stale [3]bool) {
	// Stale axes that exchange no messages — local wraps and boundary
	// fills — refresh synchronously before any compute. The ride-along
	// corner argument needs a consistent axis order across ranks, not the
	// x→y→z order specifically (whether an axis messages is a property of
	// the rank grid, so every rank agrees on this split), and keeping
	// them out of the phase chain leaves the largest possible interior
	// box overlapping the first messages and no message-free rim phases.
	var chain [3]bool
	axes := make([]int, 0, 3) // stays on the stack
	for a := 0; a < 3; a++ {
		if stale[a] && !cs.ex.Messaging(a) {
			cs.beginAxis(a) // completes synchronously
		}
	}
	for a := 0; a < 3; a++ {
		if !stale[a] || !cs.ex.Messaging(a) {
			continue
		}
		chain[a] = true
		axes = append(axes, a)
	}
	plan := planStep(b, cs.own, cs.w, cs.k, chain)
	for _, a := range axes {
		cs.ex.PostRecvsAxis(cs.r, a)
	}
	cs.beginAxis(axes[0])
	cs.advance(obs.Interior, obs.NoAxis, plan.interior)
	for i, a := range axes {
		if i > 0 {
			// The previous axis completed below; this axis's pack now
			// reads its fresh ghosts, and the previous axis's rims
			// compute while this axis's messages fly.
			cs.beginAxis(a)
			cs.advanceRims(plan, axes[i-1])
		}
		cs.ex.WaitUnpackAxis(cs.r, cs.f, a)
	}
	cs.advanceRims(plan, axes[len(axes)-1])
}

// beginAxis starts one axis's ghost refresh at its slot: boundary faces
// are filled first (they ride along on this and later axes' payloads),
// then the borders go out — as messages on a messaging axis (completed
// later by WaitUnpackAxis), or synchronously as the local periodic wrap.
func (cs *cartStepper) beginAxis(axis int) {
	cs.fillAxisFaces(axis)
	if cs.ex.Messaging(axis) {
		cs.ex.SendBordersAxis(cs.r, cs.f, axis)
		return
	}
	cs.ex.ExchangeAxis(cs.r, cs.f, axis, false) // local wrap or boundary no-op
}

// advanceRims finishes one stale axis's two rim slabs after its ghosts
// became valid.
func (cs *cartStepper) advanceRims(p stepPlan, axis int) {
	cs.advance(obs.Rim, axis, p.rims[axis][0], p.rims[axis][1])
}

// advance computes one step's next state on the given disjoint boxes, out
// of f into fadv — streamRows on the split path, the row body alone on the
// sweep — as one chunk batch over all the boxes (a thin rim pair balances
// across the whole team: §V.D's separated ghost-region loops), timed as
// phase ph of axis. Nothing here writes f, so the boxes of a step may be
// advanced in any order their inputs allow.
func (cs *cartStepper) advance(ph obs.Phase, axis int, boxes ...box) {
	cs.timed(cs.next, ph, axis, boxes...)
}

// streamRows is the split path's chunk kernel. Per block — y rows of one
// x-plane up to spanCells stored cells (z extent dense, fluid cells under
// the run index), skipped when empty — it streams with the rung's kernel,
// then runs the row body while fadv's rows are in cache. The row body
// touches only the block's cells of fadv, so blocking changes no value.
func (cs *cartStepper) streamRows(worker int, b box) {
	for ix := b.lo[0]; ix < b.hi[0]; ix++ {
		blk := box{lo: [3]int{ix, b.lo[1], b.lo[2]}, hi: [3]int{ix + 1, b.lo[1], b.hi[2]}}
		for blk.hi[1] < b.hi[1] {
			n, r := 0, ix*cs.ny
			for blk.lo[1] = blk.hi[1]; blk.hi[1] < b.hi[1] && n < spanCells; blk.hi[1]++ {
				n += b.hi[2] - b.lo[2]
				if cs.runStart != nil {
					n = int(cs.rowCells(r+blk.lo[1], r+blk.hi[1]+1)) // the block's fluid cells so far
				}
			}
			if n > 0 {
				cs.stream(worker, blk)
				cs.gatherRows(worker, blk)
			}
		}
	}
}

// timed runs one chunk kernel over the boxes as one batch, recorded as
// phase ph of axis.
func (cs *cartStepper) timed(kernel func(worker int, b box), ph obs.Phase, axis int, boxes ...box) {
	t0 := cs.rec.Begin()
	cs.br.run(kernel, boxes...)
	cs.rec.EndAxis(ph, axis, t0)
}

// faceBox returns the ghost box of one global boundary face: the full
// w[axis] ghost layers on the given side of axis, spanning the full local
// extent of the other axes.
func (cs *cartStepper) faceBox(axis, side int) box {
	b := box{hi: [3]int{cs.d.NX, cs.d.NY, cs.d.NZ}}
	if side == 0 {
		b.lo[axis], b.hi[axis] = 0, cs.w[axis]
	} else {
		b.lo[axis], b.hi[axis] = cs.w[axis]+cs.own[axis], cs.own[axis]+2*cs.w[axis]
	}
	return b
}

// fillFace writes boundary data into the ghost box of one global face.
// Wall faces (moving or not) hold the rest-state equilibrium: their
// values are never consumed by fluid cells — the bounce-back fixups
// replace every population streamed out of a solid ghost — but a valid
// distribution keeps the extended-box collisions of deep-halo cycles
// stable and the ride-along exchange payloads deterministic. Velocity
// inlets hold the inlet equilibrium (ρ0 = 1 at the prescribed velocity)
// for the same reason, per lattice point when the face has a profile.
// These three are constant: fillAxisFaces writes one into a field on the
// field's first refresh, and again only where a step may have overwritten
// it — a deep halo computes into its ghosts, AA's even sub-step scatters
// into ghost slots, and an open face's fill spans the other axes' ghost
// rows (ConstFacesOnce). Every rank writes the same constant, so corners
// a later axis's exchange carries in hold it too.
// Outflow faces are zero-gradient: every ghost layer copies the
// outermost owned layer.
func (cs *cartStepper) fillFace(axis, side int) {
	t0 := cs.rec.Begin()
	defer cs.rec.EndAxis(obs.Face, axis, t0)
	switch face := &cs.spec.Faces[axis][side]; face.Kind {
	case BCInlet:
		cs.fillInletFace(face, cs.faceBox(axis, side))
	case BCWall, BCMovingWall:
		cs.fillRestFace(cs.faceBox(axis, side))
	case BCOutflow:
		src := cs.w[axis] // first owned layer
		if side == 1 {
			src = cs.w[axis] + cs.own[axis] - 1 // last owned layer
		}
		b := cs.faceBox(axis, side)
		for l := b.lo[axis]; l < b.hi[axis]; l++ {
			cs.copyAxisLayer(axis, l, src)
		}
	case BCPressureOutlet:
		src := cs.w[axis]
		if side == 1 {
			src = cs.w[axis] + cs.own[axis] - 1
		}
		cs.fillPressureLayer(axis, side, src)
	}
}

// fillInletFace writes the inlet equilibrium into the ghost box of a
// velocity-inlet face, row-blocked over z-runs and chunked across the
// team. A uniform face computes the Q equilibrium values once per chunk
// and fills per-velocity runs; a profiled face makes exactly the same
// per-point Equilibrium calls as the old per-cell loop, staged through
// the worker's row buffers so the writes become contiguous per-velocity
// copies — same values either way, bit for bit.
func (cs *cartStepper) fillInletFace(face *Face, fb box) {
	cs.inlet = face
	cs.br.run(cs.inletFace, fb)
}

// inletFaceRows is fillInletFace's chunk kernel, for the face cs.inlet.
func (cs *cartStepper) inletFaceRows(worker int, b box) {
	m, face := cs.model, cs.inlet
	sc := cs.scratch[worker]
	zn := b.hi[2] - b.lo[2]
	if zn <= 0 {
		return
	}
	feq := sc.feqR
	if face.Profile == nil {
		m.Equilibrium(1, face.U[0], face.U[1], face.U[2], feq)
		cs.fillRuns(b, feq)
		return
	}
	rows := sc.rows(zn)
	cs.forRuns(b, func(ix, iy, zlo, zhi, base int) {
		for iz := zlo; iz < zhi; iz++ {
			c := [3]axisClass{cs.class[0][ix], cs.class[1][iy], cs.class[2][iz]}
			u := face.velocityAt(c[0].g, c[1].g, c[2].g)
			m.Equilibrium(1, u[0], u[1], u[2], feq)
			for v := 0; v < m.Q; v++ {
				rows[v][iz-zlo] = feq[v]
			}
		}
		for v := 0; v < m.Q; v++ {
			copy(cs.f.V(v)[base:base+zhi-zlo], rows[v])
		}
	})
}

// fillRestFace writes the rest-state equilibrium into a wall face's ghost
// box as per-velocity z-run fills, chunked across the team.
func (cs *cartStepper) fillRestFace(fb box) { cs.br.run(cs.restFace, fb) }

func (cs *cartStepper) restFaceRows(worker int, b box) { cs.fillRuns(b, cs.rest) }

// fillRuns writes val[v] into every stored cell of box b of each velocity
// v, one z-run at a time. (Under the run index the region beyond a wall or
// inlet face is solid and has no storage: the fill finds nothing to write.)
func (cs *cartStepper) fillRuns(b box, val []float64) {
	for v, x := range val {
		blk := cs.f.V(v)
		cs.forRuns(b, func(ix, iy, zlo, zhi, base int) {
			run := blk[base : base+zhi-zlo]
			for z := range run {
				run[z] = x
			}
		})
	}
}

// fillPressureLayer writes the non-equilibrium extrapolation of the
// outermost owned layer (axis position src) into every ghost layer of
// the face: each cell's populations re-anchored at unit density.
func (cs *cartStepper) fillPressureLayer(axis, side, src int) {
	b := cs.faceBox(axis, side)
	fc := cs.faceFc
	// Iterate the transverse cross-section: project the face box onto the
	// src layer, transform once per column, write all w ghost layers.
	lo, hi := b.lo, b.hi
	lo[axis], hi[axis] = src, src+1
	for ix := lo[0]; ix < hi[0]; ix++ {
		for iy := lo[1]; iy < hi[1]; iy++ {
			for iz := lo[2]; iz < hi[2]; iz++ {
				edge, ok := cs.cell(ix, iy, iz)
				if !ok {
					continue // a solid column: its ghost copies have no storage either
				}
				for v := range fc {
					fc[v] = cs.f.V(v)[edge]
				}
				cs.reanchor(fc)
				p := [3]int{ix, iy, iz}
				for l := b.lo[axis]; l < b.hi[axis]; l++ {
					p[axis] = l
					if dst, ok := cs.cell(p[0], p[1], p[2]); ok {
						for v, x := range fc {
							cs.f.V(v)[dst] = x
						}
					}
				}
			}
		}
	}
}

// reanchor replaces a cell's populations fc with their pressure-outlet
// extrapolation: the equilibrium part moved to unit density at the cell's
// velocity, f + f_eq(1, u) − f_eq(ρ, u). Serial passes only — it works in
// the stepper's own face buffers.
func (cs *cartStepper) reanchor(fc []float64) {
	m, feqR, feq1 := cs.model, cs.faceFeqR, cs.faceFeq1
	rho, jx, jy, jz := m.Moments(fc)
	ux, uy, uz := jx/rho, jy/rho, jz/rho
	m.Equilibrium(rho, ux, uy, uz, feqR)
	m.Equilibrium(1, ux, uy, uz, feq1)
	for v := range fc {
		fc[v] += feq1[v] - feqR[v]
	}
}

// openFace reports whether a face kind is an open (non-solid) boundary
// whose ghost fill is a function of the current interior state — the
// faces refilled at the start of every step rather than only at refresh,
// which keeps them zero-gradient against the *current* layer under deep
// halos (and is what the link-by-link oracle of the tests assumes).
func openFace(k BCKind) bool { return k == BCOutflow || k == BCPressureOutlet }

// fillOpenFaces refreshes the open-face ghosts of every bounded axis
// from the pre-stream state; called at the start of each step, before
// any exchange packs, so the fills also ride along on this step's
// payloads exactly as a refresh-time fill would.
func (cs *cartStepper) fillOpenFaces() {
	if cs.spec == nil {
		return
	}
	for axis := 0; axis < 3; axis++ {
		for side := 0; side < 2; side++ {
			if cs.ex.Neighbors[axis][side] == halo.NoNeighbor && openFace(cs.spec.Faces[axis][side].Kind) {
				cs.fillFace(axis, side)
			}
		}
	}
}

// copyAxisLayer copies the full cross-section layer at axis position src
// to position dst (local indices, ghosts included in the cross-section),
// row by row: every stored cell of the dst layer pulls its src twin.
func (cs *cartStepper) copyAxisLayer(axis, dst, src int) {
	layer := box{hi: [3]int{cs.d.NX, cs.d.NY, cs.d.NZ}}
	layer.lo[axis], layer.hi[axis] = dst, dst+1
	var shift [3]int
	shift[axis] = src - dst
	for v := 0; v < cs.model.Q; v++ {
		blk := cs.f.V(v)
		cs.forRuns(layer, func(ix, iy, zlo, zhi, base int) {
			cs.pull(blk[base:base+zhi-zlo], blk, ix+shift[0], iy+shift[1], zlo+shift[2])
		})
	}
}

// boxFor returns the destination box computable in a step whose inputs
// are valid on owned ± ext[a] cells per axis: owned ± (ext[a] − k), and
// exactly the owned extent on a wrap axis.
func (cs *cartStepper) boxFor(ext [3]int) box {
	b := cs.ownedBox()
	for a := 0; a < 3; a++ {
		if cs.w[a] > 0 {
			b.lo[a] -= ext[a] - cs.k
			b.hi[a] += ext[a] - cs.k
		}
	}
	return b
}

// ownedBox returns the owned region (the depth-1 destination box of a
// steady step).
func (cs *cartStepper) ownedBox() box {
	var b box
	for a := 0; a < 3; a++ {
		b.lo[a] = cs.w[a]
		b.hi[a] = cs.w[a] + cs.own[a]
	}
	return b
}

// countUpdates accumulates the ghost-region overhead metric.
func (cs *cartStepper) countUpdates(b box) {
	if extra := b.cells() - cs.own[0]*cs.own[1]*cs.own[2]; extra > 0 {
		cs.ghostUpdates += int64(extra)
	}
}

// axisClass classifies one local index on one axis: the in-domain global
// coordinate (periodic wrap, or zero-gradient clamp beyond a non-wall
// face) and the bounded face the point lies beyond, if any.
type axisClass struct {
	g    int // in-domain global coordinate (wrapped or clamped)
	side int // -1 inside the domain; else 0/1, the bounded face crossed
}

// classifyAxis precomputes axisClass for every local index of one axis.
func (cs *cartStepper) classifyAxis(a, n int) []axisClass {
	g := [3]int{cs.cfg.N.NX, cs.cfg.N.NY, cs.cfg.N.NZ}[a]
	out := make([]axisClass, n)
	for i := 0; i < n; i++ {
		gi := cs.start[a] + i - cs.w[a]
		c := axisClass{side: -1}
		switch {
		case cs.spec.AxisPeriodic(a):
			c.g = ((gi % g) + g) % g
		case gi < 0:
			c.g, c.side = 0, 0
		case gi >= g:
			c.g, c.side = g-1, 1
		default:
			c.g = gi
		}
		out[i] = c
	}
	return out
}

// solidAt classifies one local point: whether it is solid, and whether
// the solidity comes from a global boundary face (walls, moving walls,
// velocity inlets) rather than the user's voxel mask. Mask coordinates
// wrap on periodic axes and clamp beyond non-wall bounded faces (the
// mask analog of zero gradient).
func (cs *cartStepper) solidAt(c [3]axisClass) (solid, face bool) {
	for a := 0; a < 3; a++ {
		if c[a].side >= 0 {
			switch cs.spec.Faces[a][c[a].side].Kind {
			case BCWall, BCMovingWall, BCInlet:
				return true, true
			}
		}
	}
	return cs.cfg.Solid != nil && cs.cfg.Solid.At(c[0].g, c[1].g, c[2].g), false
}

// faceDelta returns the bounce-back correction for a link whose solid
// endpoint has the given classification. Endpoints beyond exactly one
// bounded face pick up the face's term:
//
//   - moving wall: the standard 2·w_v·ρ0·(c_v·u_w)/c_s² momentum
//     correction (the second-order odd part of the wall equilibrium);
//
//   - velocity inlet: the full Zou-He odd part
//     f_eq_v(1, u_w) − f_eq_opp(1, u_w) — the even/odd pair split of the
//     collision subsystem applied to the wall equilibrium, third-order
//     terms included, with u_w from the face's profile at the endpoint.
//
// Endpoints beyond two or three faces (edge and corner ghosts) bounce as
// stationary walls, the corner convention of the cavity literature — no
// inlet or lid data reaches a corner link.
func (cs *cartStepper) faceDelta(v int, c [3]axisClass) float64 {
	outside, axis := 0, -1
	for a := 0; a < 3; a++ {
		if c[a].side >= 0 {
			outside++
			axis = a
		}
	}
	if outside != 1 {
		return 0
	}
	m := cs.model
	face := &cs.spec.Faces[axis][c[axis].side]
	switch face.Kind {
	case BCMovingWall:
		cu := float64(m.Cx[v])*face.U[0] + float64(m.Cy[v])*face.U[1] + float64(m.Cz[v])*face.U[2]
		return 2 * m.W[v] * cu / m.CsSq
	case BCInlet:
		u := face.velocityAt(c[0].g, c[1].g, c[2].g)
		return m.EquilibriumAt(v, 1, u[0], u[1], u[2]) - m.EquilibriumAt(m.Opp[v], 1, u[0], u[1], u[2])
	}
	return 0
}

// buildMask evaluates the solid geometry over the local box (ghosts
// included) and, under Config.Sparse, installs the run index over it. Two
// sources make a cell solid: the user's voxel mask over the global domain
// and the region beyond a wall, moving-wall or velocity-inlet global face.
// It returns the cells that are solid by the voxel mask (nil when the run
// has no solid geometry at all), which buildFixups tags links with.
func (cs *cartStepper) buildMask() (obstacle []bool) {
	if cs.cfg.Solid == nil && !cs.spec.hasWallFaces() {
		return nil
	}
	nx, ny, nz := cs.d.NX, cs.d.NY, cs.d.NZ
	cs.class = [3][]axisClass{
		cs.classifyAxis(0, nx), cs.classifyAxis(1, ny), cs.classifyAxis(2, nz),
	}
	class := cs.class
	cs.mask = make([]bool, cs.d.Cells())
	obstacle = make([]bool, cs.d.Cells())
	for ix := 0; ix < nx; ix++ {
		for iy := 0; iy < ny; iy++ {
			for iz := 0; iz < nz; iz++ {
				solid, face := cs.solidAt([3]axisClass{class[0][ix], class[1][iy], class[2][iz]})
				cs.mask[cs.d.Index(ix, iy, iz)] = solid
				obstacle[cs.d.Index(ix, iy, iz)] = solid && !face
			}
		}
	}
	if cs.cfg.Sparse {
		cs.buildRuns()
	}
	return obstacle
}

// buildFixups builds the per-box bounce-back fixup index over the mask:
// one link per population a fluid cell pulls out of a solid cell, found by
// following the stream kernels' own source map (offsets, folded on a wrap
// axis); the per-link corrections come from faceDelta. Links are tagged
// with their body (mask vs faces) and with ownership, the
// force-measurement filter, and address the fields as allocated — which
// is also why this runs after the allocation: the link list grows by
// doubling, and built on an empty heap its garbage paces the collector
// through every doubling (measured: +10 % of cavity-trt's set-up).
//
// The scan goes by source row: a link's upwind cell is solid, so only the
// velocities whose upwind row holds a solid cell can link a row's cells,
// and a row with none of them — most of a walled box — is skipped whole.
// The rest loop z, then those velocities ascending: the (ix, iy, iz, v)
// order of an exhaustive per-cell scan, so the same links in the same
// CSR order.
func (cs *cartStepper) buildFixups(obstacle []bool) {
	nx, ny, nz := cs.d.NX, cs.d.NY, cs.d.NZ
	class, m := cs.class, cs.model
	ownedAt := func(a, i int) bool { return i >= cs.w[a] && i < cs.w[a]+cs.own[a] }
	wrapY, wrapZ := cs.w[1] == 0, cs.w[2] == 0
	cs.fix = newFixIndex(cs.d, m)
	solidRow := make([]bool, nx*ny)
	for r := range solidRow {
		solidRow[r] = slices.Contains(cs.mask[r*nz:(r+1)*nz], true)
	}
	type upwind struct{ v, sx, sy int }
	ups := make([]upwind, 0, m.Q)
	for ix := 0; ix < nx; ix++ {
		for iy := 0; iy < ny; iy++ {
			ups = ups[:0]
			for v := 0; v < m.Q; v++ {
				sx, sy := ix-m.Cx[v], iy-m.Cy[v]
				if wrapY {
					sy = (sy + ny) % ny // the stream kernels fold a wrap axis the same way
				}
				if sx >= 0 && sx < nx && sy >= 0 && sy < ny && solidRow[sx*ny+sy] {
					ups = append(ups, upwind{v, sx, sy}) // outside the allocation is never streamed
				}
			}
			if len(ups) == 0 {
				continue
			}
			owned2 := ownedAt(0, ix) && ownedAt(1, iy)
			for iz := 0; iz < nz; iz++ {
				if cs.mask[cs.d.Index(ix, iy, iz)] {
					continue
				}
				owned := owned2 && ownedAt(2, iz)
				for _, u := range ups {
					sz := iz - m.Cz[u.v]
					if wrapZ {
						sz = (sz + nz) % nz
					}
					if sz < 0 || sz >= nz {
						continue
					}
					src := cs.d.Index(u.sx, u.sy, sz)
					if !cs.mask[src] {
						continue
					}
					var flags uint8
					if owned {
						flags |= fixOwned
					}
					if obstacle[src] {
						flags |= fixObstacle
					}
					cell, _ := cs.cell(ix, iy, iz)
					cs.fix.add(ix, iy, cell, u.v, m.Opp[u.v],
						cs.faceDelta(u.v, [3]axisClass{class[0][u.sx], class[1][u.sy], class[2][sz]}), flags)
				}
			}
		}
	}
	cs.fix.finish()
}

// buildSponge precomputes the per-axis sponge blend factors of any
// pressure-outlet face that enables the absorbing layer (Face.SpongeWidth
// / SpongeStrength). The factor is a function of the *global* coordinate
// only — a quadratic ramp σ(g) = S·ξ², ξ rising from 0 at the inner edge
// to 1 at the outlet face — so every rank, every decomposition and every
// ghost copy agrees on it, and the layer stays invariant to 1e-12 across
// shapes and thread counts like the rest of the stepper. Factors of
// multiple sponge faces combine as 1 − Π(1 − σ_a).
func (cs *cartStepper) buildSponge() {
	if cs.spec == nil {
		return
	}
	gdim := [3]int{cs.cfg.N.NX, cs.cfg.N.NY, cs.cfg.N.NZ}
	ns := [3]int{cs.d.NX, cs.d.NY, cs.d.NZ}
	for a := 0; a < 3; a++ {
		for side := 0; side < 2; side++ {
			f := &cs.spec.Faces[a][side]
			if f.SpongeWidth <= 0 || f.SpongeStrength <= 0 {
				continue
			}
			if cs.sponge[a] == nil {
				cs.sponge[a] = make([]float64, ns[a])
			}
			cs.hasSponge = true
			for i := 0; i < ns[a]; i++ {
				g := cs.start[a] + i - cs.w[a]
				if g < 0 {
					g = 0
				}
				if g >= gdim[a] {
					g = gdim[a] - 1
				}
				dist := g
				if side == 1 {
					dist = gdim[a] - 1 - g
				}
				if dist >= f.SpongeWidth {
					continue
				}
				xi := 1 - float64(dist)/float64(f.SpongeWidth)
				s := f.SpongeStrength * xi * xi
				cs.sponge[a][i] = 1 - (1-cs.sponge[a][i])*(1-s)
			}
		}
	}
}

// spongeSig fills sig[:zn] with the combined sponge factor of row
// (ix, iy) over z ∈ [zlo, zlo+zn); returns false when the whole row lies
// outside every sponge layer.
func (cs *cartStepper) spongeSig(sig []float64, ix, iy, zlo, zn int) bool {
	prod := 1.0
	if sx := cs.sponge[0]; sx != nil {
		prod *= 1 - sx[ix]
	}
	if sy := cs.sponge[1]; sy != nil {
		prod *= 1 - sy[iy]
	}
	sz := cs.sponge[2]
	if sz == nil {
		s := 1 - prod
		if s == 0 {
			return false
		}
		for z := 0; z < zn; z++ {
			sig[z] = s
		}
		return true
	}
	any := false
	for z := 0; z < zn; z++ {
		sig[z] = 1 - prod*(1-sz[zlo+z])
		if sig[z] != 0 {
			any = true
		}
	}
	return any
}

// applySpongeRow blends one row's post-collision populations toward the
// unit-density equilibrium at the local velocity, f ← f + σ·(f_eq(1, u) −
// f), per cell. This is the absorbing layer that stops pressure waves
// from reflecting off the outlet's zero-gradient copy (the source of the
// Re=100 Cd-envelope ripple): the density perturbation — the acoustic
// carrier — is damped by (1 − σ) per step toward the ρ₀ = 1 the
// BCPressureOutlet anchors (sponges are restricted to those faces, so the
// target is consistent), while the non-equilibrium part shrinks by the
// same factor, a smooth effective-viscosity ramp over the sponge columns.
// The local velocity is kept, so vortical outflow passes through and is
// only flattened, not blocked. Deliberately non-conservative: the
// absorbed acoustic mass leaves through the open face. The row body
// (gather.go) blends every collided row, so every path stays bit-identical
// here; a dense field's solid cells are blended too, and nobody reads them.
// Each cell is independent — the §8 row contract holds.
func applySpongeRow(m *lattice.Model, fc []float64, rows [][]float64, sig []float64, zn int) {
	for z := 0; z < zn; z++ {
		s := sig[z]
		if s == 0 {
			continue
		}
		for v := 0; v < m.Q; v++ {
			fc[v] = rows[v][z]
		}
		rho, jx, jy, jz := m.Moments(fc)
		ux, uy, uz := jx/rho, jy/rho, jz/rho
		for v := 0; v < m.Q; v++ {
			feq := m.EquilibriumAt(v, 1, ux, uy, uz)
			rows[v][z] = fc[v] + s*(feq-fc[v])
		}
	}
}

// measureForces appends one step's momentum-exchange forces to the series
// Run reduces across ranks (Config.MeasureForces): every owned link adds
// c_opp·(2·f_opp + δ) to its body, f_opp the cell's pre-stream population
// the link bounces. One pass for every path, before the step computes
// anything, serial and in CSR order — the sums keep one accumulation order,
// whatever the schedule, the thread count and the streaming scheme. Under
// AA's star arrangement the link's slot holds the pushed r_opp + δ, so δ
// comes off first (one rounding from the two-grid quantity when δ ≠ 0 —
// cross-scheme force checks use tolerances, not bit equality).
func (cs *cartStepper) measureForces() {
	if !cs.cfg.MeasureForces {
		return
	}
	t0 := cs.rec.Begin()
	var acc [numBodies][3]float64
	if fi := cs.fix; !fi.empty() {
		cells := cs.f.D.Cells()
		for _, fx := range fi.links {
			if fx.flags&fixOwned == 0 {
				continue
			}
			fo := cs.f.Data[int(fx.opp)*cells+int(fx.cell)]
			if cs.aaStar {
				fo -= fx.delta
			}
			body := bodyFaces
			if fx.flags&fixObstacle != 0 {
				body = bodyObstacle
			}
			p := 2*fo + fx.delta
			acc[body][0] += fi.cxo[fx.v] * p
			acc[body][1] += fi.cyo[fx.v] * p
			acc[body][2] += fi.czo[fx.v] * p
		}
	}
	for _, f := range acc {
		cs.forceSer = append(cs.forceSer, f[0], f[1], f[2])
	}
	cs.rec.End(obs.Force, t0)
}

// ownedSums returns mass and momentum summed over the owned fluid cells:
// pairMoments over the rows of each owned run (stateRows), then the run's
// fluid cells added serially in row order — one accumulation order, so the
// sums are the same bits at any thread count.
func (cs *cartStepper) ownedSums() (mass, mx, my, mz float64) {
	sc := cs.scratch[0]
	rb := &sc.rb
	cs.forRuns(cs.ownedBox(), func(ix, iy, zlo, zhi, base int) {
		zn := zhi - zlo
		cs.pairMoments(rb, cs.stateRows(sc, ix, iy, zlo, zhi, base), nil, zn)
		msk := cs.rowMask(base, zn)
		for z := 0; z < zn; z++ {
			if msk != nil && msk[z] {
				continue
			}
			mass += rb.rho[z]
			mx += rb.j[0][z]
			my += rb.j[1][z]
			mz += rb.j[2][z]
		}
	})
	return mass, mx, my, mz
}

// stateRows returns the populations of the cells z ∈ [zlo, zhi) of row
// (ix, iy), stored from field offset base, as per-velocity rows: views of
// f, or — in AA's star arrangement — rows gathered into the worker's
// scratch, population v of cell y pulled from its slot (opp(v), y + c_v)
// row by row (starPop's rule: where that slot has no storage the
// population bounced, and the link's own slot holds it + δ).
func (cs *cartStepper) stateRows(sc *workerScratch, ix, iy, zlo, zhi, base int) [][]float64 {
	m, f := cs.model, cs.f
	zn := zhi - zlo
	if !cs.aaStar {
		return rowViews(sc.sv, f, base, zn)
	}
	rows := sc.gathered(zn)
	for v, row := range rows {
		cs.pull(row, f.V(m.Opp[v]), ix+m.Cx[v], iy+m.Cy[v], zlo+m.Cz[v])
	}
	if cs.runStart != nil && !cs.fix.empty() {
		for _, fx := range cs.fix.rowLinks(ix*cs.d.NY+iy, base, base+zn) {
			rows[fx.opp][int(fx.cell)-base] = f.V(int(fx.opp))[fx.cell] - fx.delta
		}
	}
	return rows
}

// ownedBlock packs the owned box of the final state velocity-major (for
// every velocity, x-major y then z runs), the wire format assembleCart
// expects, read run by run through stateRows. Cells without storage — the
// solid cells under the run index — read as the rest state. Dense solid
// cells carry whatever their untouched slots hold, and under AA star
// arrangement that is scheme-specific garbage, so masked comparisons must
// filter solid cells.
func (cs *cartStepper) ownedBlock() []float64 {
	owned := cs.ownedBox()
	cells := owned.cells()
	out := make([]float64, cs.model.Q*cells)
	if cs.runStart != nil {
		for v, x := range cs.rest {
			blk := out[v*cells : (v+1)*cells]
			for i := range blk {
				blk[i] = x
			}
		}
	}
	sc := cs.scratch[0]
	cs.forRuns(owned, func(ix, iy, zlo, zhi, base int) {
		at := ((ix-owned.lo[0])*cs.own[1]+iy-owned.lo[1])*cs.own[2] + zlo - owned.lo[2]
		for v, row := range cs.stateRows(sc, ix, iy, zlo, zhi, base) {
			copy(out[v*cells+at:], row)
		}
	})
	return out
}

// setRecorder attaches the per-phase recorder to the stepper and its
// exchanger (called by Run before initField when Config.Observe is set).
func (cs *cartStepper) setRecorder(rec *obs.Recorder) {
	cs.rec = rec
	cs.ex.Rec = rec
}

// observation snapshots the recorder plus the pool's per-worker chunk
// counts.
func (cs *cartStepper) observation() obs.RankObservation {
	o := cs.rec.Observation()
	if cs.br.pool.Threads() > 1 {
		o.WorkerChunks = cs.br.pool.ChunkCounts()
		o.WorkerWeights = cs.br.weightTotals()
	}
	return o
}

// close stops the worker pool and releases the fields; it is idempotent.
func (cs *cartStepper) close() {
	cs.br.close()
	cs.releaseFields()
}

// axisBytes reports this rank's halo payload per full exchange, from the
// exchanger that does the sending — the cells its border spans hold,
// fluid-only under sparse traversal — so it stays truthful to the actual
// pack shapes. Zero for the no-ghost Orig protocol, which never exchanges.
func (cs *cartStepper) axisBytes() [3]int64 {
	if cs.orig != nil {
		return [3]int64{}
	}
	return [3]int64{cs.ex.BytesPerExchange(0), cs.ex.BytesPerExchange(1), cs.ex.BytesPerExchange(2)}
}

// fieldBytes reports what this rank's distribution fields occupy.
func (cs *cartStepper) fieldBytes() int64 {
	n := len(cs.f.Data)
	if cs.fadv != nil {
		n += len(cs.fadv.Data)
	}
	return int64(8 * n)
}

// assembleCart glues the per-rank owned blocks into one global SoA field.
func assembleCart(cfg *Config, dec decomp.Cartesian, blocks [][]float64) *grid.Field {
	g := grid.NewField(cfg.Model.Q, cfg.N, grid.SoA)
	for r := 0; r < dec.Ranks(); r++ {
		var st, sz [3]int
		for a := 0; a < 3; a++ {
			st[a], sz[a] = dec.Own(r, a)
		}
		src := blocks[r]
		n := sz[0] * sz[1] * sz[2]
		pos := 0
		for v := 0; v < cfg.Model.Q; v++ {
			blk := g.V(v)
			for ix := 0; ix < sz[0]; ix++ {
				for iy := 0; iy < sz[1]; iy++ {
					off := cfg.N.Index(st[0]+ix, st[1]+iy, st[2])
					copy(blk[off:off+sz[2]], src[pos:pos+sz[2]])
					pos += sz[2]
				}
			}
		}
		if pos != cfg.Model.Q*n {
			panic("core: cart gather size mismatch")
		}
	}
	return g
}
