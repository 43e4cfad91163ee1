// Package comm is an in-process message-passing fabric with MPI-like
// semantics: a fixed set of ranks (goroutines) exchanging tagged messages
// in buffers loaned by the fabric — Acquire, fill, Post on the sending
// side; Take, read, Release on the receiving side — with the copying
// Send/Recv on top, barriers and reductions.
//
// The fabric substitutes for MPI on Blue Gene (see DESIGN.md): it preserves
// the semantics that the paper's communication optimizations rely on —
// sends that never wait for the receiver, tag matching, and overlap of
// communication with computation — while running entirely inside one
// process. Per-rank time spent blocked in communication calls is recorded,
// which is the quantity plotted in the paper's Fig. 9.
package comm

import (
	"errors"
	"fmt"
	"runtime/debug"
	"sync"
	"time"
)

// chanCap is the per-(src,dst) channel buffer. Posts block only when this
// many messages are in flight between one pair of ranks, far above what
// the halo-exchange protocol keeps outstanding.
const chanCap = 256

// Slot is a message buffer on loan from the fabric: the one copy of a
// payload between the sender's data and the receiver's. The sender
// Acquires it, fills Data and Posts it, after which the slot belongs to
// the fabric and then to the receiver that Takes it; the receiver reads
// Data and Releases the slot to the pool of the (src, dst) pair it
// travels, where the sender's next Acquire finds it.
type Slot struct {
	Data     []float64
	src, dst int
	state    slotState
}

// slotState is where a slot is on its trip, as the misuse panics print it.
type slotState string

const (
	slotFree     slotState = "free"
	slotAcquired slotState = "acquired"
	slotPosted   slotState = "posted"
	slotTaken    slotState = "taken"
)

// slotPool holds the free slots of one (src, dst) pair. The sender
// acquires and the receiver releases, so the list is locked.
type slotPool struct {
	mu   sync.Mutex
	free []*Slot
	// held is the bytes of every slot of the pair, free or on loan. Slots
	// are regrown but never dropped, so it is its own high-water mark.
	held int64
}

type message struct {
	tag  int
	slot *Slot
	// ready is the simulated wire arrival time (zero when no delay model
	// is installed): the post stamps it, and a receive matching the
	// message blocks until it has passed.
	ready time.Time
}

// DelayFunc models per-message wire time. When non-nil, a message posted
// at time t is delivered no earlier than t plus the returned duration, so
// wall-clock measurements feel the simulated network. The clock starts at
// the post: a receiver that computes while the message is in flight —
// the GC-C overlap — genuinely hides the wire time, and only a receive
// issued before arrival blocks for the remainder. Bytes is the payload
// size in bytes (8 per float64).
type DelayFunc func(src, dst, bytes int) time.Duration

// Fabric connects N ranks. Create one with NewFabric, launch the ranks with
// Run, and read per-rank statistics afterwards. A Fabric may be used for a
// single Run at a time; statistics accumulate across Runs on the same
// fabric.
type Fabric struct {
	n     int
	chans [][]chan message
	pools [][]slotPool // [src][dst]; the only payload store
	delay DelayFunc

	scratch [][]float64 // per-rank reduction operands

	bar *barrier

	ranks []*Rank
}

// NewFabric returns a fabric connecting n ranks.
func NewFabric(n int) *Fabric {
	if n < 1 {
		panic("comm: fabric needs at least one rank")
	}
	f := &Fabric{n: n, scratch: make([][]float64, n), bar: newBarrier(n)}
	f.chans = make([][]chan message, n)
	f.pools = make([][]slotPool, n)
	for s := 0; s < n; s++ {
		f.chans[s] = make([]chan message, n)
		f.pools[s] = make([]slotPool, n)
		for d := 0; d < n; d++ {
			f.chans[s][d] = make(chan message, chanCap)
		}
	}
	f.ranks = make([]*Rank, n)
	for i := 0; i < n; i++ {
		f.ranks[i] = &Rank{ID: i, N: n, f: f, pending: make([][]message, n)}
	}
	return f
}

// WithDelay installs a simulated per-message delay model and returns f.
func (f *Fabric) WithDelay(d DelayFunc) *Fabric {
	f.delay = d
	return f
}

// N returns the number of ranks.
func (f *Fabric) N() int { return f.n }

// Run executes fn once per rank, each in its own goroutine, and waits for
// all of them. Panics in rank functions are recovered and reported as
// errors together with any errors returned by fn.
func (f *Fabric) Run(fn func(*Rank) error) error {
	var wg sync.WaitGroup
	errs := make([]error, f.n)
	for i := 0; i < f.n; i++ {
		wg.Add(1)
		go func(r *Rank) {
			defer wg.Done()
			defer func() {
				if p := recover(); p != nil {
					errs[r.ID] = fmt.Errorf("comm: rank %d panicked: %v\n%s", r.ID, p, debug.Stack())
				}
			}()
			errs[r.ID] = fn(r)
		}(f.ranks[i])
	}
	wg.Wait()
	return errors.Join(errs...)
}

// CommTimes returns the accumulated per-rank time spent blocked in
// communication calls (Post, Take and the Send/Recv built on them; Barrier
// excluded). Valid after Run returns.
func (f *Fabric) CommTimes() []time.Duration {
	ts := make([]time.Duration, f.n)
	for i, r := range f.ranks {
		ts[i] = r.commTime
	}
	return ts
}

// BytesSent returns per-rank payload bytes sent. Valid after Run returns.
func (f *Fabric) BytesSent() []int64 {
	bs := make([]int64, f.n)
	for i, r := range f.ranks {
		bs[i] = r.bytesSent
	}
	return bs
}

// MessagesSent returns per-rank message counts. Valid after Run returns.
func (f *Fabric) MessagesSent() []int64 {
	ms := make([]int64, f.n)
	for i, r := range f.ranks {
		ms[i] = r.msgsSent
	}
	return ms
}

// SlotBytes returns, per sending rank, the high-water mark of the bytes
// its pair pools have held — the transport's whole memory. Valid after Run
// returns.
func (f *Fabric) SlotBytes() []int64 {
	bs := make([]int64, f.n)
	for src := range f.pools {
		for dst := range f.pools[src] {
			bs[src] += f.pools[src][dst].held
		}
	}
	return bs
}

// Rank is one participant's handle to the fabric. A Rank must be used only
// from the goroutine Run started for it.
type Rank struct {
	ID, N int
	f     *Fabric

	// pending[src] holds the messages from src that arrived ahead of the
	// receive that will match them, in arrival order.
	pending   [][]message
	commTime  time.Duration
	bytesSent int64
	msgsSent  int64
}

// CommTime returns the communication time accumulated by this rank so far.
func (r *Rank) CommTime() time.Duration { return r.commTime }

// BytesSent returns the payload bytes this rank has sent so far.
func (r *Rank) BytesSent() int64 { return r.bytesSent }

// MessagesSent returns the number of messages this rank has sent so far.
func (r *Rank) MessagesSent() int64 { return r.msgsSent }

// Acquire loans a slot of n values for a message to dst: the smallest free
// slot of the pair that is big enough, else a free slot regrown, else a
// new one — so a pair never holds more slots than it has had in flight at
// once. Data's contents are unspecified until filled.
func (r *Rank) Acquire(dst, n int) *Slot {
	p := &r.f.pools[r.ID][dst]
	p.mu.Lock()
	last, pick := len(p.free)-1, -1
	for i, s := range p.free {
		if c := cap(s.Data); c >= n && (pick < 0 || c < cap(p.free[pick].Data)) {
			pick = i
		}
	}
	if pick < 0 {
		pick = last // none fits: regrow the last free slot, if there is one
	}
	var s *Slot
	if pick >= 0 {
		s = p.free[pick]
		p.free[pick], p.free[last] = p.free[last], nil
		p.free = p.free[:last]
	} else {
		s = &Slot{src: r.ID, dst: dst}
	}
	if cap(s.Data) < n {
		p.held += int64(8 * (n - cap(s.Data)))
		s.Data = make([]float64, n)
	}
	p.mu.Unlock()
	s.Data = s.Data[:n]
	s.state = slotAcquired
	return s
}

// Post sends the filled slot s to dst with the given tag. It must be a
// slot this rank acquired for dst; the rank may not touch it afterwards.
func (r *Rank) Post(dst, tag int, s *Slot) {
	t0 := time.Now()
	if s.state != slotAcquired || s.src != r.ID || s.dst != dst {
		panic(fmt.Sprintf("comm: rank %d Post(dst=%d, tag=%d): slot is %s, of the pair %d -> %d", r.ID, dst, tag, s.state, s.src, s.dst))
	}
	s.state = slotPosted
	m := message{tag: tag, slot: s}
	if r.f.delay != nil {
		m.ready = t0.Add(r.f.delay(r.ID, dst, 8*len(s.Data)))
	}
	r.f.chans[r.ID][dst] <- m
	r.bytesSent += int64(8 * len(s.Data))
	r.msgsSent++
	r.commTime += time.Since(t0)
}

// Take blocks until a message with the given tag arrives from src and
// returns the slot it travelled in, which the rank owns until it Releases
// it. Messages with other tags arriving first are kept for later receives.
func (r *Rank) Take(src, tag int) *Slot {
	t0 := time.Now()
	s := r.match(src, tag).slot
	s.state = slotTaken
	r.commTime += time.Since(t0)
	return s
}

// Release returns a slot this rank took to the pool of the pair it
// travelled; the rank may not touch it afterwards.
func (r *Rank) Release(s *Slot) {
	if s.state != slotTaken || s.dst != r.ID {
		panic(fmt.Sprintf("comm: rank %d Release: slot is %s, of the pair %d -> %d", r.ID, s.state, s.src, s.dst))
	}
	s.state = slotFree
	p := &r.f.pools[s.src][r.ID]
	p.mu.Lock()
	p.free = append(p.free, s)
	p.mu.Unlock()
}

// Send delivers data to rank dst with the given tag. The payload is copied
// into a slot, so the caller may reuse data immediately (MPI buffered-send
// semantics).
func (r *Rank) Send(dst, tag int, data []float64) {
	s := r.Acquire(dst, len(data))
	copy(s.Data, data)
	r.Post(dst, tag, s)
}

// Recv blocks until a message with the given tag arrives from src, copies
// its payload into buf, and returns the number of values received. Messages
// with other tags arriving first are buffered for later receives. Recv
// panics if the payload exceeds len(buf).
func (r *Rank) Recv(src, tag int, buf []float64) int {
	s := r.Take(src, tag)
	if len(buf) < len(s.Data) {
		panic(fmt.Sprintf("comm: rank %d Recv(src=%d, tag=%d): buffer %d < message %d", r.ID, src, tag, len(buf), len(s.Data)))
	}
	n := copy(buf, s.Data)
	r.Release(s)
	return n
}

// match returns the next message from src with the given tag, consuming the
// pending queue first. A consumed entry is shifted out in place, so the
// queue keeps its backing array and pins no delivered slot.
func (r *Rank) match(src, tag int) message {
	q := r.pending[src]
	for i, m := range q {
		if m.tag == tag {
			copy(q[i:], q[i+1:])
			q[len(q)-1] = message{}
			r.pending[src] = q[:len(q)-1]
			waitWire(m)
			return m
		}
	}
	for {
		m := <-r.f.chans[src][r.ID]
		if m.tag == tag {
			waitWire(m)
			return m
		}
		r.pending[src] = append(r.pending[src], m)
	}
}

// waitWire blocks until the message's simulated wire arrival time. Only
// the matched receive waits — buffering an out-of-order message does not
// charge its wire time to the wrong call.
func waitWire(m message) {
	if m.ready.IsZero() {
		return
	}
	if d := time.Until(m.ready); d > 0 {
		time.Sleep(d)
	}
}

// Barrier blocks until every rank has entered it.
func (r *Rank) Barrier() { r.f.bar.await() }

// AllReduceSum element-wise sums vals across all ranks; every rank receives
// the full result. Implemented with a shared scratch exchange bracketed by
// barriers, which is deadlock-free by construction.
func (r *Rank) AllReduceSum(vals []float64) []float64 {
	r.f.scratch[r.ID] = append([]float64(nil), vals...)
	r.Barrier()
	out := make([]float64, len(vals))
	for rank := 0; rank < r.N; rank++ {
		for i, v := range r.f.scratch[rank] {
			if i < len(out) {
				out[i] += v
			}
		}
	}
	r.Barrier()
	return out
}

// barrier is a reusable N-party barrier.
type barrier struct {
	mu    sync.Mutex
	n     int
	count int
	ch    chan struct{}
}

func newBarrier(n int) *barrier {
	return &barrier{n: n, ch: make(chan struct{})}
}

func (b *barrier) await() {
	b.mu.Lock()
	ch := b.ch
	b.count++
	if b.count == b.n {
		b.count = 0
		b.ch = make(chan struct{})
		close(ch)
		b.mu.Unlock()
		return
	}
	b.mu.Unlock()
	<-ch
}
