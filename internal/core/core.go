// Package core implements the lattice Boltzmann solver of Randles et al.
// (IPDPS 2013): BGK collision with 2nd- (D3Q19) or 3rd-order (D3Q39)
// Hermite equilibria over a periodic cubic box, 1-D domain decomposition in
// x, deep-halo ghost cells, and the paper's ladder of optimizations from
// the naive implementation (Fig. 2) to the overlapped, separated
// ghost-collide version (§V) — plus multi-axis decompositions, bounded
// domains, TRT/MRT operators, fused and AA streaming that grew around it.
//
// One stepper (cart.go) runs every configuration. Its geometry is data,
// decided per axis: an axis carries ghost layers of width depth·k where it
// has a neighbour or a wall to fill them from, and a periodic uncut y or z
// carries none — the kernels wrap across it (GhostWidths). The paper's own
// case, a fully periodic domain cut into x slabs, keeps ghosts on x only;
// a walled cavity or channel wraps its periodic z. What a ghost face
// carries is data too: at depth 1 each ghost plane holds only the
// populations streaming pulls out of it (DirectedFaces).
//
// The collision arithmetic lives in one place: collide.go holds one row
// kernel per rung of the ladder (naive, row-generic, pair-symmetric) and
// the operators' (TRT's pair kernel, MRT's feq rows + RelaxRows, the
// per-cell fallback), and every path relaxes through the one its rung
// and operator select, inside the one row body of gather.go — on the split
// path just after a block of the field streamed, relaxing it in place, or
// as the gather sweep that fused and AA streaming both are; on
// two fields both end a step by swapping them, so both run on one box
// schedule (schedule.go). Walls,
// solids, open faces, forces and every operator compose with all of them.
// Running one configuration another way (decomposition, ghost depth, thread
// count, fused or not, streaming scheme) therefore reproduces the field to
// the last bit (TestCrossPathBitIdentity); the rungs differ from each other only by
// floating point reassociation (~1e-12), which the rest of the suite
// enforces across rank counts, thread counts and ghost depths.
package core

import (
	"fmt"
	"math"
	"strconv"
	"strings"
	"time"

	"repro/internal/collision"
	"repro/internal/comm"
	"repro/internal/decomp"
	"repro/internal/geom"
	"repro/internal/grid"
	"repro/internal/lattice"
	"repro/internal/metrics"
	"repro/internal/obs"
)

// OptLevel identifies a rung on the paper's optimization ladder (the x-axis
// of Fig. 8). Levels are cumulative: each includes all previous ones.
type OptLevel int

const (
	// OptOrig is the naive implementation (paper Fig. 2): no ghost cells,
	// blocking per-step exchange of the populations that crossed the rank
	// boundary during streaming, velocity-innermost branchy loops, and
	// divisions in the collision.
	OptOrig OptLevel = iota
	// OptGC adds ghost cells: a halo of depth·k planes per side exchanged
	// every depth steps (§V.A), still with blocking communication.
	OptGC
	// OptDH adds the data-handling optimizations (§V.B): loops reordered so
	// each velocity's contiguous block is traversed in memory order (the
	// streaming step becomes bulk rotated copies), temporaries hoisted, and
	// divisions replaced by reciprocal multiplications.
	OptDH
	// OptCF stands in for the paper's compiler-flag study (§V.C): the
	// generic per-velocity collision is replaced by per-model specialized
	// kernels with precomputed coefficient tables and opposite-pair
	// symmetric equilibrium evaluation — the transformations -O5/-qipa=2
	// performed for the authors, written out by hand since a pure-Go build
	// has no equivalent switch.
	OptCF
	// OptLoBr adds loop restructuring and branch reduction (§V.D):
	// per-velocity wrap index tables are precomputed so the inner streaming
	// loops contain no wrap arithmetic, and ghost/interior regions are
	// processed by separate loop nests.
	OptLoBr
	// OptNBC switches the halo exchange to the paper's non-blocking pattern
	// (MPI_Irecv/Isend/Waitall with receives posted early, §V.E): both
	// ghost faces of an axis are awaited together, then unpacked.
	OptNBC
	// OptGCC separates the ghost-region computation from the domain of
	// interest (§V.F): border planes are computed and sent first, interior
	// work overlaps the messages in flight, and the ghost-adjacent rim is
	// finished after the receives complete.
	OptGCC
	// OptSIMD is the double-hummer/QPX intrinsics work (§V.G) plus the
	// paper's next step (§VII): GC-C's schedule stepped by the gather sweep
	// (gather.go), 2·Q·8 B per cell, with the pair kernel's row passes on
	// 4-wide AVX2 bodies where the CPU has them (rows_amd64.s; no FMA, so
	// every value is bit-identical to GC-C's split path). DESIGN.md §2-3.
	// The tuner prices it at the sweep's traffic; perfsim's named machines
	// (Fig. 8, Table II) keep the paper's meaning: intrinsics on the split
	// traffic.
	OptSIMD
)

// Levels lists all optimization levels in ladder order.
func Levels() []OptLevel {
	return []OptLevel{OptOrig, OptGC, OptDH, OptCF, OptLoBr, OptNBC, OptGCC, OptSIMD}
}

var optNames = map[OptLevel]string{
	OptOrig: "Orig", OptGC: "GC", OptDH: "DH", OptCF: "CF",
	OptLoBr: "LoBr", OptNBC: "NB-C", OptGCC: "GC-C", OptSIMD: "SIMD",
}

func (o OptLevel) String() string {
	if s, ok := optNames[o]; ok {
		return s
	}
	return fmt.Sprintf("OptLevel(%d)", int(o))
}

// ParseOptLevel resolves a level name as printed in the paper's Fig. 8.
func ParseOptLevel(s string) (OptLevel, error) {
	for lvl, name := range optNames {
		if name == s {
			return lvl, nil
		}
	}
	return 0, fmt.Errorf("core: unknown optimization level %q", s)
}

// ParseGhostDepth parses a CLI ghost-depth argument: a single integer
// ("2") is the uniform deep-halo depth; a comma-separated triple
// ("2,1,1") sets per-axis depths (returned in axes, zero for the uniform
// form); a wrap axis ignores its entry. Anything else — two
// values, four values, a trailing comma — is a spelled-out error rather
// than a silent fallthrough.
func ParseGhostDepth(s string) (uniform int, axes [3]int, err error) {
	parts := strings.Split(s, ",")
	switch len(parts) {
	case 1:
		uniform, err = strconv.Atoi(strings.TrimSpace(parts[0]))
		if err == nil && uniform < 1 {
			err = fmt.Errorf("depth %d < 1", uniform)
		}
		if err != nil {
			return 0, axes, fmt.Errorf("core: bad ghost depth %q: %v", s, err)
		}
		return uniform, axes, nil
	case 3:
		for a, p := range parts {
			axes[a], err = strconv.Atoi(strings.TrimSpace(p))
			if err == nil && axes[a] < 1 {
				err = fmt.Errorf("axis %d depth %d < 1", a, axes[a])
			}
			if err != nil {
				return 0, [3]int{}, fmt.Errorf("core: bad ghost depth %q: %v", s, err)
			}
		}
		// The uniform depth is the fallback for callers that take one value.
		return axes[0], axes, nil
	}
	if strings.TrimSpace(parts[len(parts)-1]) == "" {
		return 0, axes, fmt.Errorf("core: bad ghost depth %q: trailing comma (want d or dx,dy,dz)", s)
	}
	return 0, axes, fmt.Errorf("core: bad ghost depth %q: %d values (want 1 uniform depth or 3 per-axis depths dx,dy,dz)", s, len(parts))
}

// StreamScheme selects the streaming storage scheme.
type StreamScheme int

const (
	// StreamTwoGrid is the classic two-field scheme: streaming copies every
	// population from f into fNew, collisions relax fNew in place, and the
	// fields swap. Simple and schedule-friendly — the state a step reads is
	// never written while it runs — but each step streams 2·Q·8 bytes per
	// cell on top of the collide's and the second field doubles the
	// resident footprint.
	StreamTwoGrid StreamScheme = iota
	// StreamAA is the AA-pattern in-place scheme (Bailey et al. 2009): one
	// field, with streaming folded into the collision's reads and writes.
	// Time steps run in pairs. The first (transport) sub-step pulls each
	// cell's populations from the neighbor slots, collides, and pushes the
	// results into the *reversed* slots of the opposite neighbors: cell y's
	// read set {(v, y−c_v)} and write set {(opp(v), y+c_v)} are the same
	// exclusive slot star, so no other cell ever touches them and the
	// worker pool stays bit-exact (DESIGN.md §8/§9). The second (compact)
	// sub-step reads each cell's own slots reversed, collides, and writes
	// them back in normal arrangement — after which the array is
	// indistinguishable from the two-grid f. Halves memory traffic and
	// footprint; requires a ghost-cell level, and excludes Fused
	// (it is the same gather sweep, on one field).
	StreamAA
)

var streamNames = map[StreamScheme]string{
	StreamTwoGrid: "twogrid", StreamAA: "aa",
}

func (s StreamScheme) String() string {
	if n, ok := streamNames[s]; ok {
		return n
	}
	return fmt.Sprintf("StreamScheme(%d)", int(s))
}

// ParseStreamScheme resolves a CLI -stream argument.
func ParseStreamScheme(s string) (StreamScheme, error) {
	norm := strings.ToLower(strings.TrimSpace(s))
	for sc, name := range streamNames {
		if name == norm {
			return sc, nil
		}
	}
	return 0, fmt.Errorf("core: unknown stream scheme %q (want aa or twogrid)", s)
}

// Balance selects the decomposition's cut-plane placement policy.
type Balance int

const (
	// BalanceVolume is the classic equal-extent split: every rank column
	// on an axis owns the same number of planes (±1).
	BalanceVolume Balance = iota
	// BalanceFluid places each decomposed axis's cut planes by recursive
	// bisection over the solid mask's per-plane fluid-cell histogram
	// (geom.Mask.PlaneFluids), balancing fluid sites — the paper's N_fl,
	// the quantity its performance model actually counts — instead of box
	// volume. The rank grid and neighbor topology are unchanged; only the
	// per-rank extents move, so the halo exchanger and stepper run
	// verbatim. Without a Solid mask it degrades to the volume split.
	BalanceFluid
)

var balanceNames = map[Balance]string{
	BalanceVolume: "volume", BalanceFluid: "fluid",
}

func (b Balance) String() string {
	if n, ok := balanceNames[b]; ok {
		return n
	}
	return fmt.Sprintf("Balance(%d)", int(b))
}

// ParseBalance resolves a CLI -balance argument.
func ParseBalance(s string) (Balance, error) {
	norm := strings.ToLower(strings.TrimSpace(s))
	if norm == "" {
		return BalanceVolume, nil
	}
	for b, name := range balanceNames {
		if name == norm {
			return b, nil
		}
	}
	return 0, fmt.Errorf("core: unknown balance policy %q (want volume or fluid)", s)
}

// InitFunc returns the initial macroscopic state at a global lattice point.
type InitFunc func(ix, iy, iz int) (rho, ux, uy, uz float64)

// UniformInit is the trivial initial condition: unit density at rest.
func UniformInit(ix, iy, iz int) (rho, ux, uy, uz float64) { return 1, 0, 0, 0 }

// Config describes one simulation.
type Config struct {
	Model *lattice.Model
	// N is the global interior size (periodic in all directions).
	N grid.Dims
	// Tau is the relaxation time of the hydrodynamic (shear) moments; the
	// kinematic viscosity is ν = c_s²(τ−½) for every collision operator.
	// Must exceed 0.5.
	Tau float64
	// Collision selects the collision operator. The zero value is the
	// paper's BGK, which runs the ladder's own row kernel at every
	// optimization level; TRT and MRT relax through the operator row
	// kernel, on every path.
	Collision collision.Spec
	// Steps is the number of time steps.
	Steps int
	// Opt selects the optimization level.
	Opt OptLevel
	// GhostDepth is the deep-halo depth d: halo width d·k planes, exchanged
	// every d steps. Must be 1 for OptOrig (which has no ghost cells). A
	// depth-1 ghost plane carries only the populations streaming pulls out
	// of it, a deeper halo's all Q (DirectedFaces): depth d ≥ 2 trades bytes
	// as well as ghost-cell updates for its d-fold fewer messages.
	GhostDepth int
	// GhostDepthAxes optionally sets the deep-halo depth per axis: axis a
	// keeps a halo of depth[a]·k cells per side, refreshed every depth[a]
	// steps, so a decomposition can spend halo width where its surface is
	// largest. The zero value applies GhostDepth to every axis. A wrap
	// axis (GhostWidths) has no depth and ignores its entry: on a periodic
	// slab {d,1,1} is the uniform depth-d run.
	GhostDepthAxes [3]int
	// Ranks is the number of message-passing ranks ("MPI tasks").
	Ranks int
	// Decomp is the rank-grid shape (Px, Py, Pz) of the Cartesian domain
	// decomposition; its product must equal Ranks. The zero value selects
	// the paper's 1-D slab (Ranks, 1, 1), the one shape on which the whole
	// ladder — the no-ghost Orig protocol included — is legal. Multi-axis
	// shapes (pencil/block) require a ghost-cell level (not Orig); every
	// other rung — the NB-C posted
	// receives, the GC-C per-axis compute/communication overlap, the fused
	// kernel — runs on them through the same schedule (schedule.go).
	Decomp [3]int
	// Threads is the number of worker threads per rank ("OpenMP threads").
	Threads int
	// Stream selects the streaming storage scheme. The zero value is the
	// classic two-grid layout; StreamAA keeps a single field and streams in
	// place via the AA pattern, halving f-memory traffic and footprint.
	// StreamAA keeps ghosts on every axis (uncut periodic ones included) and
	// requires a ghost-cell level; Fused is rejected
	// with it (AA is the fused gather sweep on one field). It composes with
	// walls, solids, every operator, sparse storage and force measurement;
	// open faces (outflow, pressure outlet) may sit on one axis only.
	// Per-axis ghost depths are rounded up to the next even value:
	// exchanges happen only at step-pair boundaries, when the field is in
	// normal arrangement, so the existing pack/unpack maps apply unchanged,
	// and the GC-C overlap is not scheduled (refreshes are synchronous).
	Stream StreamScheme
	// Fused selects the gather sweep (gather.go, bit-identical to the split
	// path) at a rung below SIMD, which steps with it anyway (GatherSweep).
	// Requires a ghost-cell level (OptGC or above) and not StreamAA (which is the same sweep on one field).
	Fused bool
	// Boundary assigns conditions to the six global faces (walls, moving
	// walls, outflow, periodic — see BoundarySpec). Nil, and any spec
	// whose faces are all periodic, keeps the fully periodic domain. A
	// spec with non-periodic faces requires a ghost-cell level (not Orig),
	// and keeps ghosts on every bounded axis — uncut on a
	// slab-shaped rank grid included — because the boundary fills live in
	// the ghost layers.
	Boundary *BoundarySpec
	// Solid marks lattice points as solid walls (halfway bounce-back,
	// no-slip): a voxel mask over the global domain — built
	// programmatically (geom.FromFunc, geom.CylinderZ, ...) or loaded from
	// a voxel file (geom.Load). Its dims must equal N. Each rank slices
	// the global mask into its local bounce-back fixup index (periodic
	// axes wrap, coordinates beyond a non-wall bounded face clamp).
	// Applies to every optimization level, fused or not, two-grid or AA.
	// Nil means fully periodic fluid.
	Solid *geom.Mask
	// Balance selects the cut-plane placement policy of the domain
	// decomposition (see Balance). The zero value is the equal-extent
	// volume split; BalanceFluid balances fluid cells per rank over the
	// Solid mask's per-plane histograms.
	Balance Balance
	// Sparse enables the sparse run index: each rank precomputes a
	// per-(x,y)-row RLE of fluid z-runs from its local slice of the Solid
	// mask, and that index is both the traversal order and the storage
	// order. Traversal: the row-blocked kernels visit fluid runs only —
	// all-solid rows drop out of the worker pool's chunk batches, and chunk
	// weights switch from cell count to fluid-cell count so the atomic
	// queue load-balances inside the rank too. Storage: the fields hold
	// exactly the cells of the fluid runs of the rank's ghosted box, run
	// after run; a solid cell has no storage, so a mostly-solid vessel
	// costs the memory of its fluid, not of its bounding box
	// (RankStats.FieldBytes). The halo follows the run index: every face
	// payload, messages and local periodic wraps alike, carries only the
	// fluid z-runs of its rows, so solid cells are never packed, sent or
	// unpacked. Equivalent to the dense sweep to 1e-12 on every fluid cell
	// and bit-exact across thread counts; keeps ghosts on every axis (uncut
	// periodic ones included). In the gathered Result.Field solid cells read
	// as the rest state. Without a mask (no Solid and no wall faces) there
	// is nothing to index: traversal and storage stay dense.
	Sparse bool
	// MeasureForces records the momentum-exchange force on the solid
	// geometry at every step: Result.ObstacleForce holds the per-step
	// force the fluid exerts on the voxel mask (drag/lift), FaceForce the
	// aggregate on the global boundary faces, both reduced across ranks.
	// One serial pass over the rank's owned links per step, the same on
	// every path (split, fused, AA).
	MeasureForces bool
	// Accel is a constant body acceleration driving the flow (velocity-
	// shift forcing); zero means unforced.
	Accel [3]float64
	// Init provides the initial condition; nil means UniformInit. It is
	// called concurrently — by every rank, and by the worker threads of a
	// rank, each for its own cells — so it must be a pure function of the
	// global cell. A cell whose ρ is not finite and positive, or whose u is
	// not finite, fails the run before its first step with an error naming
	// the lowest such cell.
	Init InitFunc
	// KeepField gathers the final global distribution field on completion
	// (for verification; costs memory proportional to the global field).
	KeepField bool
	// StepJitter, when positive, injects a deterministic per-rank delay of
	// up to StepJitter per step, reproducing the load imbalance whose
	// communication-time signature the paper plots in Fig. 9.
	StepJitter time.Duration
	// Observe enables the per-phase instrumentation recorder: each rank's
	// schedule is timed span by span (interior compute, per-axis rims,
	// pack, wire wait, unpack, fixup, face fill, sponge, forcing) into
	// Result.Observations. Purely observational — instrumented runs are
	// bit-identical to uninstrumented ones, and the disabled path costs a
	// nil check per span (fenced by BenchmarkRecorderOverhead).
	Observe bool
	// Trace additionally retains every recorded span for the Chrome
	// trace-event timeline (obs.WriteTrace); implies Observe. Memory
	// grows with steps × spans, so keep traced runs short.
	Trace bool
	// Fabric optionally supplies a pre-built fabric (e.g. with a message
	// delay model); it must have exactly Ranks ranks.
	Fabric *comm.Fabric
}

// check normalizes the configuration's defaults and rejects illegal
// feature combinations — everything that can be decided without the
// domain decomposition.
func (c *Config) check() error {
	if c.Model == nil {
		return fmt.Errorf("core: Config.Model is nil")
	}
	if c.Ranks < 1 {
		c.Ranks = 1
	}
	if c.Threads < 1 {
		c.Threads = 1
	}
	if c.GhostDepth < 1 {
		c.GhostDepth = 1
	}
	if c.GhostDepthAxes != ([3]int{}) {
		for a, d := range c.GhostDepthAxes {
			if d < 1 {
				return fmt.Errorf("core: GhostDepthAxes[%d] = %d, want >= 1 on every axis (or the zero value)", a, d)
			}
		}
	}
	if c.Init == nil {
		c.Init = UniformInit
	}
	if c.Trace {
		c.Observe = true
	}
	if c.Steps < 0 {
		return fmt.Errorf("core: negative Steps %d", c.Steps)
	}
	// Written so that NaN fails too: every comparison with NaN is false.
	if !(c.Tau > 0.5) || math.IsInf(c.Tau, 1) {
		return fmt.Errorf("core: Tau %g is not a finite relaxation time > 0.5 (≤ 0.5 is unstable)", c.Tau)
	}
	if err := c.Collision.Validate(); err != nil {
		return err
	}
	k := c.Model.MaxSpeed
	if d := c.ghostDepths()[0]; c.Opt == OptOrig && d != 1 {
		return fmt.Errorf("core: OptOrig has no ghost cells; GhostDepth must be 1, got %d", d)
	}
	if c.Fused && c.Opt == OptOrig {
		return fmt.Errorf("core: the fused kernel requires ghost cells (OptGC or above)")
	}
	if c.Solid != nil {
		if d := c.Solid.D; d != c.N {
			return fmt.Errorf("core: solid mask dims %v != domain %v", d, c.N)
		}
	}
	if c.Stream == StreamAA {
		if c.Opt == OptOrig {
			return fmt.Errorf("core: AA streaming requires ghost cells (OptGC or above)")
		}
		if c.Fused {
			return fmt.Errorf("core: AA streaming is inherently fused (one field pass per sub-step); disable Fused")
		}
		if c.Boundary != nil {
			// Two open-bounded axes make corner ghost fills fills-of-fills
			// in the two-grid reference; the AA slot algebra cannot
			// reproduce that mid-pair (DESIGN.md §9).
			openAxes := 0
			for a := 0; a < 3; a++ {
				for s := 0; s < 2; s++ {
					if openFace(c.Boundary.Faces[a][s].Kind) {
						openAxes++
						break
					}
				}
			}
			if openAxes > 1 {
				return fmt.Errorf("core: AA streaming supports open faces (outflow/pressure outlet) on at most one axis, got %d", openAxes)
			}
		}
	}
	if c.N.NY < 2*k || c.N.NZ < 2*k {
		return fmt.Errorf("core: NY/NZ (%d/%d) must be >= 2k = %d for %s", c.N.NY, c.N.NZ, 2*k, c.Model.Name)
	}
	if err := c.Boundary.validate(); err != nil {
		return err
	}
	if c.Boundary != nil && c.Boundary.BoundedAxes() == ([3]bool{}) {
		// A fully periodic spec is the default domain.
		c.Boundary = nil
	}
	if c.Decomp == ([3]int{}) {
		c.Decomp = [3]int{c.Ranks, 1, 1}
	}
	if got := c.Decomp[0] * c.Decomp[1] * c.Decomp[2]; got != c.Ranks {
		return fmt.Errorf("core: decomposition %dx%dx%d covers %d ranks, config has %d",
			c.Decomp[0], c.Decomp[1], c.Decomp[2], got, c.Ranks)
	}
	if c.Fabric != nil && c.Fabric.N() != c.Ranks {
		return fmt.Errorf("core: supplied fabric has %d ranks, config wants %d", c.Fabric.N(), c.Ranks)
	}
	return nil
}

// Validate normalizes the configuration's defaults and reports why Run
// would reject it, if it would: an illegal feature combination, or a
// halo wider than the smallest block it must be cut from. It is the one
// rulebook — Run and the tuner's enumeration both go through it.
func (c *Config) Validate() error {
	_, err := c.init()
	return err
}

// init validates the configuration and returns the decomposition it
// validated the halo widths against — the one the run then uses.
func (c *Config) init() (decomp.Cartesian, error) {
	if err := c.check(); err != nil {
		return decomp.Cartesian{}, err
	}
	dec, err := c.decomposition()
	if err != nil {
		return dec, err
	}
	if c.Opt == OptOrig {
		if err := PaperGeometry(dec.Shape(), dec.Bounded, c.Stream, c.Sparse); err != nil {
			return dec, fmt.Errorf("core: %v", err)
		}
	}
	// A border message must be owned entirely by one rank.
	depth, w := c.ghostGeometry(dec)
	for a := 0; a < 3; a++ {
		if mo := dec.MinOwn(a); mo < w[a] {
			return dec, fmt.Errorf("core: axis %d smallest block (%d cells) < halo width %d (depth %d × k %d)", a, mo, w[a], depth[a], c.Model.MaxSpeed)
		}
	}
	return dec, nil
}

// decomposition builds the run's domain decomposition: equal-extent
// blocks under BalanceVolume, fluid-cell-balanced cuts (per-axis
// recursive bisection over the mask's plane histograms) under
// BalanceFluid with a solid mask. Single-column axes never need cuts.
func (c *Config) decomposition() (decomp.Cartesian, error) {
	global := [3]int{c.N.NX, c.N.NY, c.N.NZ}
	bounded := c.Boundary.BoundedAxes()
	if c.Balance == BalanceFluid && c.Solid != nil {
		var weights [3][]int
		for a := 0; a < 3; a++ {
			if c.Decomp[a] > 1 {
				weights[a] = c.Solid.PlaneFluids(a)
			}
		}
		return decomp.NewCartesianWeighted(global, c.Decomp, bounded, weights)
	}
	return decomp.NewCartesianBounded(global, c.Decomp, bounded)
}

// GatherSweep reports whether a step is one gather sweep (gather.go)
// rather than a stream and then the row body, block by block: under AA, with Fused,
// and at the SIMD rung. The stepper, run report and tuner all ask it.
func (c *Config) GatherSweep() bool {
	return c.Stream == StreamAA || c.Fused || c.Opt == OptSIMD
}

// ghostDepths resolves the configured per-axis deep-halo depths.
func (c *Config) ghostDepths() [3]int {
	if c.GhostDepthAxes != ([3]int{}) {
		return c.GhostDepthAxes
	}
	return [3]int{c.GhostDepth, c.GhostDepth, c.GhostDepth}
}

// GhostWidths is the one rule for which axes carry ghost layers; the
// stepper (Config.ghostGeometry) and the performance model (perfsim.Run)
// both ask it. x always carries dk[0] = depth[0]·k ghost cells per side.
// Axis a ∈ {y, z} carries dk[a] iff it has something to put in them: a
// neighbour (the axis is cut, shape[a] > 1) or a wall (it is bounded) —
// or the run is AA or sparse, whose slot stars and run index live in
// ghost layers whatever the axis. Otherwise it is a wrap axis of width 0:
// an uncut periodic axis is its own neighbour, so the kernels fold across
// it (stream.go, gather.go, buildFixups) instead of reading copies of
// their own far side, and it has no depth — nothing is refreshed, nothing
// goes stale. The paper's periodic slab is the case w = {d·k, 0, 0}; the
// quasi-2-D wall-bounded scenarios (cavity, channel) wrap z alone.
func GhostWidths(shape [3]int, bounded [3]bool, stream StreamScheme, sparse bool, dk [3]int) [3]int {
	if stream == StreamAA || sparse {
		return dk
	}
	for a := 1; a < 3; a++ {
		if shape[a] == 1 && !bounded[a] {
			dk[a] = 0
		}
	}
	return dk
}

// DirectedFaces is the one rule for what the ghost faces of an axis carry;
// the stepper (Config.faceVelocities, handed to its exchanger) and the
// performance model (perfsim's face bytes) both ask it. A ghost layer
// exactly as wide as the lattice reach, w = k, is read by one thing only:
// the upwind pulls of owned cells. A pull out of the low ghost's plane at
// distance d from the owned box has c_a ≥ d, and one out of the high
// ghost's c_a ≤ −d, so each ghost plane carries only the populations that
// cross it into the owned region: D3Q19 5 of 19 on its one plane, D3Q39
// 11, 6 and 1 of 39 on its three — 18 velocity-planes of the 3·39 a
// whole face moves, exactly what the no-ghost Orig protocol ships. The
// other slots of its ghost cells are resident (the fields are prefaulted)
// but never written or read. Corners hold plane by plane: a population
// pulled out of an edge or corner ghost at distances (d_a, d_b) has
// |c_a| ≥ d_a and |c_b| ≥ d_b, so it is on both planes' lists and rides
// along on each of those axes' faces. Every population travels wherever a
// ghost cell is itself computed or read whole:
//
//   - w > k: a deep halo's ghost cells are stream destinations and collide
//     whole (AA's depths are even, so always);
//   - any run with a pressure-outlet face (whole): its fill re-anchors
//     whole cells, the other axes' ghost cells of its source layer included.
//
// Outflow copies and wall and inlet fills move or write slots one by one
// and need nothing more.
func DirectedFaces(w, k int, whole bool) bool { return w == k && !whole }

// faceVelocities resolves DirectedFaces into the exchanger's per-plane
// velocity lists for ghost widths w: [axis][0][d-1] lists the populations
// the low ghost's plane d cells out carries (c_a ≥ d), [axis][1][d-1] the
// high ghost's (c_a ≤ −d); [axis][side] is nil where a face carries all Q.
func (c *Config) faceVelocities(w [3]int) (vels [3][2][][]int) {
	m := c.Model
	whole := c.Boundary.hasFace(BCPressureOutlet)
	for a, ca := range [3][]int{m.Cx, m.Cy, m.Cz} {
		if !DirectedFaces(w[a], m.MaxSpeed, whole) {
			continue
		}
		for side := range vels[a] {
			vels[a][side] = make([][]int, w[a])
		}
		for v, c := range ca {
			side := 0
			if c < 0 {
				side, c = 1, -c
			}
			for d := 1; d <= c; d++ {
				vels[a][side][d-1] = append(vels[a][side][d-1], v)
			}
		}
	}
	return vels
}

// ConstFacesOnce is the one rule for how often a constant ghost face — a
// wall, moving wall or velocity inlet, whose fill writes the same values
// every time — is written; the stepper (fillAxisFaces) and the performance
// model (perfsim's fill charge) both ask it. At depth 1 on two fields
// nothing but the fill writes such a face, so each field gets it once, on
// its first refresh. It is rewritten at every refresh of an axis with a
// deep halo (depth > 1: the computed box reaches into its ghosts), under
// AA (the even sub-step scatters into ghost slots) and in any run with an
// open face (outflow or pressure outlet: their fills span the other axes'
// ghost rows, wall corners included).
func ConstFacesOnce(depth int, stream StreamScheme, open bool) bool {
	return depth == 1 && stream != StreamAA && !open
}

// PaperGeometry reports whether a run has the geometry the rung that
// predates the ghost-cell kernels — the no-ghost Orig protocol — was
// written for, as an error that says what it means when it does not.
// Config.init and perfsim.Run reject with the same sentence.
func PaperGeometry(shape [3]int, bounded [3]bool, stream StreamScheme, sparse bool) error {
	if shape[1] == 1 && shape[2] == 1 && bounded == ([3]bool{}) && stream != StreamAA && !sparse {
		return nil
	}
	return fmt.Errorf("the no-ghost Orig protocol runs only on the paper's geometry: a fully periodic domain cut into P×1×1 slabs, two-grid, dense (one depth, on x); use a ghost-cell level")
}

// ghostGeometry resolves the run's per-axis deep-halo depths and ghost
// widths: axis a's w[a] cells per side (GhostWidths) are refreshed every
// depth[a] steps.
func (c *Config) ghostGeometry(dec decomp.Cartesian) (depth, w [3]int) {
	depth = c.runDepths()
	for a := range w {
		w[a] = depth[a] * c.Model.MaxSpeed
	}
	if testGhostsEveryAxis {
		return depth, w
	}
	return depth, GhostWidths(dec.Shape(), dec.Bounded, c.Stream, c.Sparse, w)
}

// runDepths returns the per-axis deep-halo depths the run steps with: the
// configured ones, which AA rounds up to even (aaDepths).
func (c *Config) runDepths() [3]int {
	if c.Stream == StreamAA {
		return aaDepths(c.ghostDepths())
	}
	return c.ghostDepths()
}

// testGhostsEveryAxis, set by tests, makes every run carry ghosts on every
// axis — the reference geometry a wrap axis must reproduce to the last bit
// (TestWrapAxisBitIdentity).
var testGhostsEveryAxis bool

// aaDepths rounds per-axis deep-halo depths up to the next even value:
// the AA pattern consumes 2k cells of ghost validity per step pair and
// exchanges only at pair boundaries, so its refresh cadence must be even.
func aaDepths(d [3]int) [3]int {
	for a := range d {
		if d[a]%2 != 0 {
			d[a]++
		}
	}
	return d
}

// RankStats reports per-rank communication behaviour.
type RankStats struct {
	CommTime  time.Duration
	BytesSent int64
	Messages  int64
	// SlotBytes is the high-water mark of the message buffers the fabric
	// held for this rank's sends — the transport's memory.
	SlotBytes int64
	// FieldBytes is what the rank's distribution fields occupy: two grids
	// (one under AA) over its ghosted box — or, under the sparse run index,
	// over just the fluid cells of that box.
	FieldBytes int64
}

// Result summarizes a completed run.
type Result struct {
	// WallTime is the longest per-rank time across the stepping loop.
	WallTime time.Duration
	// MFlups is the paper's metric: steps × interior cells / wall time /1e6
	// (Eq. 4).
	MFlups float64
	// InteriorUpdates counts interior (fluid) cell updates: steps × N_fl.
	InteriorUpdates int64
	// GhostUpdates counts the extra cell updates spent recomputing ghost
	// regions under the deep-halo schedule (the computational cost the
	// paper trades against message reduction).
	GhostUpdates int64
	// Mass and MomX/Y/Z are globally summed conserved quantities at the end.
	Mass, MomX, MomY, MomZ float64
	// Decomp is the rank-grid shape the run used.
	Decomp [3]int
	// HaloAxisBytes is the per-rank halo payload sent along each axis per
	// full exchange (max over ranks): the per-axis communication surface
	// that distinguishes slab, pencil and block decompositions. Zero on
	// undecomposed axes and for the no-ghost Orig protocol.
	HaloAxisBytes [3]int64
	// ObstacleForce is the per-step momentum-exchange force the fluid
	// exerts on the voxel mask (Config.Solid), summed over the mask's
	// links and reduced across ranks; length Steps when
	// Config.MeasureForces is set, else nil. Drag is the component along
	// the mean flow, lift the transverse one.
	ObstacleForce [][3]float64
	// FaceForce is the same measurement aggregated over the global
	// boundary faces (walls, moving walls, inlets).
	FaceForce [][3]float64
	// PerRank holds communication statistics per rank.
	PerRank []RankStats
	// Observations holds each rank's per-phase timing breakdown when
	// Config.Observe was set, else nil (obs.WriteTrace and core.NewReport
	// consume it).
	Observations []obs.RankObservation
	// Field is the gathered global distribution when
	// Config.KeepField was set, else nil.
	Field *grid.Field
}

// CommSummary returns min/median/max of per-rank communication times in
// seconds (the quantity of the paper's Fig. 9).
func (r *Result) CommSummary() metrics.Summary {
	ds := make([]time.Duration, len(r.PerRank))
	for i, s := range r.PerRank {
		ds[i] = s.CommTime
	}
	return metrics.SummarizeDurations(ds)
}

// Run executes the configured simulation and returns its result: one
// stepper per rank (cart.go) on the fabric, then the reductions.
func Run(cfg Config) (*Result, error) {
	dec, err := cfg.init()
	if err != nil {
		return nil, err
	}
	fab := cfg.Fabric
	if fab == nil {
		fab = comm.NewFabric(cfg.Ranks)
	}

	walls := make([]time.Duration, cfg.Ranks)
	sums := make([][5]float64, cfg.Ranks) // mass, momx, momy, momz, ghost updates
	blocks := make([][]float64, cfg.Ranks)
	axisB := make([][3]int64, cfg.Ranks)
	fieldB := make([]int64, cfg.Ranks)
	var forceTotals []float64
	var initErr error // the same on every rank; rank 0's is returned once
	var obsns []obs.RankObservation
	var epoch time.Time
	if cfg.Observe {
		obsns = make([]obs.RankObservation, cfg.Ranks)
		// One epoch shared by every rank's recorder, so trace timestamps
		// align on a single timeline.
		epoch = time.Now()
	}

	runErr := fab.Run(func(r *comm.Rank) error {
		st, err := newCartStepper(&cfg, dec, r)
		if err != nil {
			return err
		}
		defer st.close()
		if cfg.Observe {
			st.setRecorder(obs.New(r.ID, epoch, cfg.Trace))
		}
		if err := initError(&cfg, r, st.initField()); err != nil {
			if r.ID == 0 {
				initErr = err
			}
			return err
		}
		r.Barrier()
		t0 := time.Now()
		st.run()
		walls[r.ID] = time.Since(t0)
		r.Barrier()

		mass, mx, my, mz := st.ownedSums()
		sums[r.ID] = [5]float64{mass, mx, my, mz, float64(st.ghostUpdates)}
		axisB[r.ID] = st.axisBytes()
		fieldB[r.ID] = st.fieldBytes()
		if cfg.Observe {
			o := st.observation()
			o.Rank = r.ID
			o.CommSeconds = r.CommTime().Seconds()
			o.BytesSent = r.BytesSent()
			o.Messages = r.MessagesSent()
			o.FluidCells = rankFluids(&cfg, dec, r.ID)
			o.FieldBytes = fieldB[r.ID]
			obsns[r.ID] = o
		}
		if cfg.MeasureForces {
			// Each rank holds the partial force of its owned links; the
			// fabric reduction makes every step's total
			// decomposition-independent (the per-step entries differ only
			// by float summation order across shapes).
			tot := r.AllReduceSum(st.forceSer)
			if r.ID == 0 {
				forceTotals = tot
			}
		}
		if cfg.KeepField {
			blocks[r.ID] = st.ownedBlock()
		}
		return nil
	})
	if initErr != nil {
		return nil, initErr
	}
	if runErr != nil {
		return nil, runErr
	}

	res := &Result{PerRank: make([]RankStats, cfg.Ranks), Decomp: cfg.Decomp, Observations: obsns}
	for r := 0; r < cfg.Ranks; r++ {
		if walls[r] > res.WallTime {
			res.WallTime = walls[r]
		}
		res.Mass += sums[r][0]
		res.MomX += sums[r][1]
		res.MomY += sums[r][2]
		res.MomZ += sums[r][3]
		res.GhostUpdates += int64(sums[r][4])
	}
	for r, ct := range fab.CommTimes() {
		res.PerRank[r].CommTime = ct
	}
	for r, b := range fab.BytesSent() {
		res.PerRank[r].BytesSent = b
	}
	for r, m := range fab.MessagesSent() {
		res.PerRank[r].Messages = m
	}
	for r, b := range fieldB {
		res.PerRank[r].FieldBytes = b
	}
	for r, b := range fab.SlotBytes() {
		res.PerRank[r].SlotBytes = b
		if obsns != nil {
			obsns[r].SlotBytes = b
		}
	}
	for _, ab := range axisB {
		for a := 0; a < 3; a++ {
			if ab[a] > res.HaloAxisBytes[a] {
				res.HaloAxisBytes[a] = ab[a]
			}
		}
	}
	if cfg.MeasureForces {
		res.ObstacleForce = make([][3]float64, cfg.Steps)
		res.FaceForce = make([][3]float64, cfg.Steps)
		for s := 0; s < cfg.Steps && (s+1)*2*3 <= len(forceTotals); s++ {
			o := forceTotals[s*6:]
			res.ObstacleForce[s] = [3]float64{o[0], o[1], o[2]}
			res.FaceForce[s] = [3]float64{o[3], o[4], o[5]}
		}
	}
	fluid := FluidCells(cfg.N, cfg.Solid)
	res.InteriorUpdates = int64(cfg.Steps) * int64(fluid)
	res.MFlups = metrics.MFlups(cfg.Steps, fluid, res.WallTime)
	if cfg.KeepField {
		res.Field = assembleCart(&cfg, dec, blocks)
	}
	return res, nil
}

// initError turns each rank's first invalid initial-condition cell (global
// index + 1, 0 for none: initField) into one error that every rank
// returns, before any of them steps. Each rank puts its own into its slot
// of one sum, so every rank sees every slot and names the same cell — the
// lowest bad one — with the values Init gives there (a pure function of
// the cell, so any rank may ask).
func initError(cfg *Config, r *comm.Rank, bad int) error {
	slots := make([]float64, r.N)
	slots[r.ID] = float64(bad)
	first := 0
	for _, b := range r.AllReduceSum(slots) {
		if b > 0 && (first == 0 || int(b) < first) {
			first = int(b)
		}
	}
	if first == 0 {
		return nil
	}
	x, y, z := cfg.N.Coords(first - 1)
	rho, ux, uy, uz := cfg.Init(x, y, z)
	return fmt.Errorf("core: initial condition at global cell (%d, %d, %d) is not a state: ρ = %g, u = (%g, %g, %g); want a finite ρ > 0 and a finite u",
		x, y, z, rho, ux, uy, uz)
}

// rankFluids returns the number of fluid cells in rank's owned box — the
// load-balance view of a decomposition on a masked domain (the whole box
// volume when there is no mask).
func rankFluids(cfg *Config, dec decomp.Cartesian, rank int) int64 {
	var lo, hi [3]int
	vol := int64(1)
	for a := 0; a < 3; a++ {
		s, n := dec.Own(rank, a)
		lo[a], hi[a] = s, s+n
		vol *= int64(n)
	}
	if cfg.Solid == nil {
		return vol
	}
	return int64(cfg.Solid.FluidsInBox(lo, hi))
}
