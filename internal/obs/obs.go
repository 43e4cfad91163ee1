// Package obs is the per-phase instrumentation layer: a nil-guarded
// recorder the steppers thread through their schedules, plus the trace
// and report emitters built on top of it.
//
// The phase taxonomy follows the paper's timing decomposition (Figs. 8-11
// break runs into compute, pack/unpack and exposed wire time): every span
// a stepper records is one leaf of the schedule — interior compute, a rim
// recomputed after an axis exchange, a pack into send buffers, a blocked
// wait on the wire, an unpack into ghosts, an open face fill, or
// force/macro accounting. Spans never nest,
// so per-phase seconds sum to the instrumented wall time of the loop.
//
// Every Recorder method is a no-op on a nil receiver: the steppers keep a
// possibly-nil *Recorder and call it unconditionally, which keeps the
// uninstrumented hot path free of branches beyond the nil check (fenced
// by BenchmarkRecorderOverhead in internal/core).
package obs

import "time"

// Phase labels one leaf span of a stepper's schedule.
type Phase uint8

const (
	// Interior is bulk stream/collide (or fused) compute: the window GC-C
	// hides communication behind.
	Interior Phase = iota
	// Rim is the deferred recompute of the sub-regions adjacent to an
	// exchanged axis, run after that axis's ghosts arrive.
	Rim
	// Pack is copying border cells into the fabric's message slots — or, on
	// an undecomposed axis, into the local periodic wrap's staging buffer —
	// and nothing else.
	Pack
	// Wire is time blocked on message arrival: the exchangers' Take calls,
	// i.e. the exposed (un-hidden) communication time.
	Wire
	// Unpack is copying received halos out of their slots into the ghost
	// layer, nothing else.
	Unpack
	// Fixup (boundary links) and Sponge (the outlet blend) are recorded by
	// no stepper: both run inside the row body, so their time is Interior
	// or Rim. They stay in the taxonomy because trace consumers enumerate
	// every phase.
	Fixup
	// Face is ghost-face synthesis on non-messaging boundaries: open-face
	// extrapolation and bounded-axis fills.
	Face
	// Sponge: see Fixup.
	Sponge
	// Force is force/macro accounting: momentum-exchange sampling and the
	// per-step force series.
	Force
	// NumPhases bounds arrays indexed by Phase.
	NumPhases
)

var phaseNames = [NumPhases]string{
	"interior", "rim", "pack", "wire", "unpack",
	"fixup", "face", "sponge", "force",
}

func (p Phase) String() string {
	if int(p) < len(phaseNames) {
		return phaseNames[p]
	}
	return "unknown"
}

// PhaseByName returns the Phase with the given String form.
func PhaseByName(name string) (Phase, bool) {
	for p, n := range phaseNames {
		if n == name {
			return Phase(p), true
		}
	}
	return NumPhases, false
}

// NoAxis marks a span not attributed to a lattice axis (interior compute,
// fixup).
const NoAxis = -1

// axisSlots is the per-phase accumulator width: axes 0-2 plus one slot
// for NoAxis.
const axisSlots = 4

func axisSlot(axis int) int {
	if axis < 0 || axis >= 3 {
		return 3
	}
	return axis
}

// Event is one recorded span, kept only when tracing: offsets are from
// the run's shared epoch so ranks align on one timeline.
type Event struct {
	Phase Phase         `json:"phase"`
	Axis  int8          `json:"axis"`
	Start time.Duration `json:"start"`
	Dur   time.Duration `json:"dur"`
}

// Recorder accumulates one rank's per-phase time. It is not safe for
// concurrent use; each rank goroutine owns one (worker threads inside a
// rank never touch it — spans wrap whole parallel regions).
type Recorder struct {
	rank  int
	epoch time.Time
	trace bool

	durs   [NumPhases][axisSlots]time.Duration
	counts [NumPhases][axisSlots]int64
	bytes  [3]int64
	msgs   [3]int64
	events []Event
}

// New returns a recorder for one rank. epoch is the run's shared origin
// for trace timestamps; trace retains every span for WriteTrace.
func New(rank int, epoch time.Time, trace bool) *Recorder {
	return &Recorder{rank: rank, epoch: epoch, trace: trace}
}

// Begin stamps the start of a span. On a nil recorder it returns the zero
// time without reading the clock.
func (r *Recorder) Begin() time.Time {
	if r == nil {
		return time.Time{}
	}
	return time.Now()
}

// End closes a span opened by Begin under a phase with no axis attribution.
func (r *Recorder) End(p Phase, t0 time.Time) {
	r.EndAxis(p, NoAxis, t0)
}

// EndAxis closes a span opened by Begin, attributing it to an axis
// (0=x, 1=y, 2=z, or NoAxis).
func (r *Recorder) EndAxis(p Phase, axis int, t0 time.Time) {
	if r == nil {
		return
	}
	now := time.Now()
	d := now.Sub(t0)
	s := axisSlot(axis)
	r.durs[p][s] += d
	r.counts[p][s]++
	if r.trace {
		r.events = append(r.events, Event{
			Phase: p, Axis: int8(axis), Start: t0.Sub(r.epoch), Dur: d,
		})
	}
}

// AddComm counts halo payload sent over one axis (0=x, 1=y, 2=z): bytes
// of field data and the number of messages carrying them.
func (r *Recorder) AddComm(axis int, bytes, msgs int64) {
	if r == nil {
		return
	}
	r.bytes[axis] += bytes
	r.msgs[axis] += msgs
}

// PhaseObs is the aggregate of one (phase, axis) pair on one rank.
type PhaseObs struct {
	Phase string `json:"phase"`
	// Axis is 0-2, or -1 when the phase is not axis-attributed.
	Axis    int     `json:"axis"`
	Seconds float64 `json:"seconds"`
	Count   int64   `json:"count"`
}

// RankObservation is the serializable summary of one rank's recorder,
// plus rank-level counters the harness fills in (fabric comm time, wire
// traffic, per-worker chunk counts).
type RankObservation struct {
	Rank   int        `json:"rank"`
	Phases []PhaseObs `json:"phases"`
	// CommSeconds is the fabric-level blocked time (comm.Rank.CommTime),
	// the quantity the paper's Fig. 9 summarizes across ranks.
	CommSeconds float64 `json:"comm_seconds"`
	// CommBytes/CommMsgs are halo payload sent per axis, counted by the
	// exchangers from what they packed; their sum over axes equals
	// BytesSent on a run whose only messages are halo faces.
	CommBytes [3]int64 `json:"comm_bytes"`
	CommMsgs  [3]int64 `json:"comm_msgs"`
	// BytesSent/Messages are the rank's total wire traffic as counted by
	// the fabric (payload copies, all tags).
	BytesSent int64 `json:"bytes_sent"`
	Messages  int64 `json:"messages"`
	// SlotBytes is the high-water mark of the message slots the fabric held
	// for this rank's sends (comm.Fabric.SlotBytes): the transport's memory.
	SlotBytes int64 `json:"slot_bytes"`
	// FieldBytes is what the rank's distribution fields occupy (both grids;
	// one under AA streaming): the dense ghosted box, or under the sparse
	// run index just its fluid cells.
	FieldBytes int64 `json:"field_bytes"`
	// FluidCells is the number of fluid lattice sites in the rank's owned
	// box (the paper's per-rank N_fl; the whole box volume on unmasked
	// domains) — the decomposition's load-balance view on sparse
	// geometries, where box volume and useful work diverge.
	FluidCells int64 `json:"fluid_cells,omitempty"`
	// WorkerChunks is the number of schedule chunks each worker thread
	// drained from the rank's pool — the load-imbalance view of thin-rim
	// phases (nil when the rank runs single-threaded).
	WorkerChunks []int64 `json:"worker_chunks,omitempty"`
	// WorkerWeights is the total chunk weight (fluid cells under sparse
	// traversal, cells otherwise) each worker thread drained — WorkerChunks
	// weighted by how much work each chunk actually carried (nil when the
	// rank runs single-threaded).
	WorkerWeights []int64 `json:"worker_weights,omitempty"`
	// Events are the raw trace spans; populated only when tracing.
	Events []Event `json:"-"`
}

// Observation snapshots the recorder. Safe on a nil recorder (returns a
// zero observation).
func (r *Recorder) Observation() RankObservation {
	if r == nil {
		return RankObservation{}
	}
	o := RankObservation{
		Rank:      r.rank,
		CommBytes: r.bytes,
		CommMsgs:  r.msgs,
		Events:    r.events,
	}
	for p := Phase(0); p < NumPhases; p++ {
		for s := 0; s < axisSlots; s++ {
			if r.counts[p][s] == 0 {
				continue
			}
			axis := s
			if s == 3 {
				axis = NoAxis
			}
			o.Phases = append(o.Phases, PhaseObs{
				Phase:   p.String(),
				Axis:    axis,
				Seconds: r.durs[p][s].Seconds(),
				Count:   r.counts[p][s],
			})
		}
	}
	return o
}

// Seconds returns the observation's total seconds in phase p across axes.
func (o *RankObservation) Seconds(p Phase) float64 {
	var sum float64
	name := p.String()
	for _, po := range o.Phases {
		if po.Phase == name {
			sum += po.Seconds
		}
	}
	return sum
}

// PhaseSeconds is a per-phase seconds vector indexed by Phase — the
// common currency of the observe-predict bridge (observed recorder
// totals on one side, perfsim's predicted schedule on the other).
type PhaseSeconds [NumPhases]float64

// Total sums the vector.
func (ps PhaseSeconds) Total() float64 {
	var sum float64
	for _, s := range ps {
		sum += s
	}
	return sum
}

// Vector folds the observation's per-axis aggregates into a per-phase
// seconds vector.
func (o *RankObservation) Vector() PhaseSeconds {
	var ps PhaseSeconds
	for _, po := range o.Phases {
		if p, ok := PhaseByName(po.Phase); ok {
			ps[p] += po.Seconds
		}
	}
	return ps
}

// Vectors returns each rank observation's phase vector.
func Vectors(ranks []RankObservation) []PhaseSeconds {
	out := make([]PhaseSeconds, len(ranks))
	for i := range ranks {
		out[i] = ranks[i].Vector()
	}
	return out
}

// MeanPhases averages per-rank phase vectors — observed (Vectors) or
// predicted (perfsim's Result.RankPhases) — into the across-rank mean the
// observe-predict bridge compares. Zero for no ranks.
func MeanPhases(ranks []PhaseSeconds) PhaseSeconds {
	var mean PhaseSeconds
	if len(ranks) == 0 {
		return mean
	}
	for _, v := range ranks {
		for p := range mean {
			mean[p] += v[p]
		}
	}
	for p := range mean {
		mean[p] /= float64(len(ranks))
	}
	return mean
}
