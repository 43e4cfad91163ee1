// Package parallel provides the intra-rank threading substrate that stands
// in for OpenMP in the paper's hybrid MPI/OpenMP study (§VI.B): a persistent
// worker pool executing batches of independent chunks. Unlike the earlier
// transient-goroutine parallel-for (one goroutine spawn per call, static
// partition), the pool is created once per stepper and reused for every
// loop of every step, workers carry stable IDs for per-worker scratch
// buffers, and each batch is a shared queue that workers drain — so many
// small disjoint regions (the rim slabs of the overlapped schedule) can be
// submitted as one batch and load-balance across the whole team.
package parallel

import (
	"sync"
	"sync/atomic"
)

// Pool is a persistent team of workers. The zero of *Pool (nil) and a
// 1-thread pool both execute batches inline on the caller; a T-thread pool
// keeps T−1 background workers parked on a condition variable, and the
// caller participates as worker 0 of every batch. A Pool is driven by one
// goroutine at a time (Run is not reentrant), matching its per-stepper
// ownership — which is what lets the one batch below be reused by every
// Run, so dispatching allocates nothing.
type Pool struct {
	threads int
	// counts[w] is the number of chunks worker w has drained over the
	// pool's lifetime — the load-imbalance view of thin batches (a rim
	// batch with fewer chunks than workers leaves part of the team idle,
	// which shows up here as skew).
	counts []chunkCount

	mu     sync.Mutex
	cond   *sync.Cond // workers park here for the next batch
	idle   *sync.Cond // Run parks here until the workers have left the batch
	open   bool       // a batch is accepting workers
	gen    uint64     // bumped per Run; wakes workers exactly once per batch
	active int        // background workers inside the batch
	closed bool
	wg     sync.WaitGroup

	// The batch: n chunks drained from an atomic cursor. Written by Run
	// while no worker is inside (active == 0 under mu), read by the workers
	// that joined under mu.
	body     func(worker, chunk int)
	n        int64
	next     atomic.Int64 // next chunk index to claim
	aborted  atomic.Bool  // a chunk panicked: claim the rest without running
	panicMu  sync.Mutex
	panicVal any
}

// chunkCount is one worker's drained-chunk counter, padded out to its own
// cache line so the workers' increments don't false-share.
type chunkCount struct {
	n atomic.Int64
	_ [56]byte
}

// NewPool creates a pool of the given team size. threads < 1 is treated as
// 1. A 1-thread pool spawns no goroutines.
func NewPool(threads int) *Pool {
	if threads < 1 {
		threads = 1
	}
	p := &Pool{threads: threads, counts: make([]chunkCount, threads)}
	p.cond, p.idle = sync.NewCond(&p.mu), sync.NewCond(&p.mu)
	for w := 1; w < threads; w++ {
		p.wg.Add(1)
		go p.worker(w)
	}
	return p
}

// Threads returns the team size; 1 for a nil pool.
func (p *Pool) Threads() int {
	if p == nil {
		return 1
	}
	return p.threads
}

// Run executes body(worker, chunk) for every chunk in [0, n) exactly once,
// distributed over the team, and returns when all chunks are done. worker
// identifies the executing team member (0 ≤ worker < Threads()) — stable
// across batches, the key for per-worker scratch. Chunks are claimed from a
// shared queue in order, so callers should submit more chunks than workers
// when chunk costs vary. If a chunk panics, the remaining chunks are
// skipped and the first panic value is re-raised on the caller after the
// team quiesces. Nil-safe: a nil pool runs everything inline as worker 0.
func (p *Pool) Run(n int, body func(worker, chunk int)) {
	if n <= 0 {
		return
	}
	if p == nil || p.threads == 1 || n == 1 {
		for i := 0; i < n; i++ {
			body(0, i)
		}
		if p != nil {
			p.counts[0].n.Add(int64(n))
		}
		return
	}
	p.body, p.n, p.panicVal = body, int64(n), nil
	p.next.Store(0)
	p.aborted.Store(false)
	p.mu.Lock()
	p.open = true
	p.gen++
	p.mu.Unlock()
	p.cond.Broadcast()
	p.drain(0) // the caller is worker 0
	// The cursor is exhausted, so no worker joining now could claim a
	// chunk, and every claimed chunk is finished once the workers already
	// inside have left.
	p.mu.Lock()
	p.open = false
	for p.active > 0 {
		p.idle.Wait()
	}
	p.mu.Unlock()
	if p.panicVal != nil {
		panic(p.panicVal)
	}
}

// ChunkCounts returns the number of chunks each team member has drained
// since the pool was created, indexed by worker ID. Nil for a nil pool.
// Chunks executed on the caller's inline fast path (1-thread pools,
// single-chunk batches) are credited to worker 0.
func (p *Pool) ChunkCounts() []int64 {
	if p == nil {
		return nil
	}
	out := make([]int64, len(p.counts))
	for i := range p.counts {
		out[i] = p.counts[i].n.Load()
	}
	return out
}

// Close shuts the background workers down. Idempotent and nil-safe; the
// pool must be idle (no Run in flight).
func (p *Pool) Close() {
	if p == nil || p.threads == 1 {
		return
	}
	p.mu.Lock()
	if p.closed {
		p.mu.Unlock()
		return
	}
	p.closed = true
	p.mu.Unlock()
	p.cond.Broadcast()
	p.wg.Wait()
}

// worker is the background loop of team member w: park until a new batch
// (or shutdown), help drain it, repeat. A worker that wakes after Run has
// stopped admitting workers parks again until the next batch.
func (p *Pool) worker(w int) {
	defer p.wg.Done()
	var seen uint64
	p.mu.Lock()
	for {
		for !p.closed && (!p.open || p.gen == seen) {
			p.cond.Wait()
		}
		if p.closed {
			p.mu.Unlock()
			return
		}
		seen = p.gen
		p.active++
		p.mu.Unlock()
		p.drain(w)
		p.mu.Lock()
		if p.active--; p.active == 0 {
			p.idle.Signal()
		}
	}
}

// drain claims and executes chunks until the batch's cursor is exhausted;
// after an abort the remaining chunks are claimed without running.
func (p *Pool) drain(worker int) {
	for {
		i := p.next.Add(1) - 1
		if i >= p.n {
			return
		}
		if !p.aborted.Load() {
			p.runChunk(worker, int(i))
			p.counts[worker].n.Add(1)
		}
	}
}

// runChunk executes one chunk, converting a panic into batch abortion.
func (p *Pool) runChunk(worker, chunk int) {
	defer func() {
		if r := recover(); r != nil {
			p.panicMu.Lock()
			if p.panicVal == nil {
				p.panicVal = r
			}
			p.panicMu.Unlock()
			p.aborted.Store(true)
		}
	}()
	p.body(worker, chunk)
}
