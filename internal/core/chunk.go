package core

// In-rank threading substrate: a per-stepper persistent worker pool,
// longest-axis box chunking, and per-worker kernel scratch. Every parallel
// loop of a step — stream + row body (streamRows), face fills, on interiors and rim
// slabs alike — is expressed as a batch of (box, chunk) items drained by
// the pool, so the thin rim phases of the overlapped schedule get the full
// team instead of a static x partition that collapses on a 1–2-plane slab.
//
// Chunks split a box along the longer of its x and y extents. The z axis
// is deliberately never split: on a wrap axis the stream kernels move
// whole z-lines as cyclic rotations (a sub-range of a rotation is not a
// rotation), and the row body amortizes its setup over spans of full z
// rows (gather.go), which a z cut would break at every row. Every rim
// shape is thin on at most one axis, so x/y chunking always leaves a long
// axis to cut. Chunking is bit-exact at any thread count: all kernels
// compute each (x, y) row independently, so partitioning rows changes only
// which worker computes them, never the arithmetic.

import (
	"repro/internal/collision"
	"repro/internal/parallel"
)

// chunksPerWorker over-partitions each batch for load balance: boundary
// rows with bounce-back fixups and face columns cost more than bulk rows,
// and the queue evens that out when chunks outnumber workers.
const chunksPerWorker = 4

// minChunkCells keeps chunks coarse enough that claim overhead stays
// negligible against kernel work.
const minChunkCells = 4096

// boxRunner executes box kernels on a worker pool, chunking each box
// along its longest splittable axis. It is owned and driven by a single
// stepper goroutine; the chunk and weight buffers are reused across
// batches.
//
// When a run index is installed (sparse traversal, sparse.go) chunk
// boundaries are placed by stored fluid cells instead of box cells: a
// chunk of a nearly-empty region widens until it carries as much fluid as
// a bulk chunk, and spans with no fluid at all are dropped from the batch
// — the team's queue then balances useful work, not box volume.
type boxRunner struct {
	pool   *parallel.Pool
	chunks []box
	chunkW []int64 // per-chunk weight (fluid cells weighted, cells dense)
	// kernel is the batch in flight; body is runChunk bound once, so a
	// dispatch forms no closure.
	kernel func(worker int, b box)
	body   func(worker, chunk int)
	// weigh, when non-nil, weights an (x, y) row by its stored cells over
	// the full local z extent — a safe overestimate for sub-z boxes
	// (chunking never splits z, and an empty row is empty on any interval).
	weigh   *runIndex
	weights []weightTally // per-worker drained chunk weight
}

// weightTally is a per-worker weight accumulator, padded to a cache
// line like parallel.Pool's chunk counters so workers don't false-share.
type weightTally struct {
	n int64
	_ [56]byte
}

func newBoxRunner(threads int) *boxRunner {
	pool := parallel.NewPool(threads)
	br := &boxRunner{pool: pool, weights: make([]weightTally, pool.Threads())}
	br.body = br.runChunk
	return br
}

// runChunk applies the batch's kernel to chunk i and tallies its weight.
func (br *boxRunner) runChunk(worker, i int) {
	br.kernel(worker, br.chunks[i])
	br.weights[worker].n += br.chunkW[i]
}

// threads returns the team size.
func (br *boxRunner) threads() int { return br.pool.Threads() }

// close releases the pool's workers.
func (br *boxRunner) close() { br.pool.Close() }

// weightTotals returns the cumulative chunk weight drained per worker.
func (br *boxRunner) weightTotals() []int64 {
	out := make([]int64, len(br.weights))
	for i := range br.weights {
		out[i] = br.weights[i].n
	}
	return out
}

// run executes kernel over every cell of the given boxes exactly once
// (under sparse weighting: every cell of every fluid-carrying span).
// All boxes of a call form one batch: their chunks share the pool's queue,
// so disjoint regions of one schedule phase (the two rim slabs of an axis)
// balance across the whole team.
func (br *boxRunner) run(kernel func(worker int, b box), boxes ...box) {
	if br.pool.Threads() == 1 {
		for _, b := range boxes {
			if b.cells() > 0 {
				kernel(0, b)
			}
		}
		return
	}
	br.chunks = br.chunks[:0]
	br.chunkW = br.chunkW[:0]
	if br.weigh == nil {
		total := 0
		for _, b := range boxes {
			total += b.cells()
		}
		if total == 0 {
			return
		}
		chunkCells := total / (br.pool.Threads() * chunksPerWorker)
		if chunkCells < minChunkCells {
			chunkCells = minChunkCells
		}
		for _, b := range boxes {
			br.chunks = appendBoxChunks(br.chunks, b, chunkCells)
		}
		for _, c := range br.chunks {
			br.chunkW = append(br.chunkW, int64(c.cells()))
		}
	} else {
		var total int64
		for _, b := range boxes {
			total += br.boxWeight(b)
		}
		if total == 0 {
			return
		}
		target := total / int64(br.pool.Threads()*chunksPerWorker)
		if target < minChunkCells {
			target = minChunkCells
		}
		for _, b := range boxes {
			br.appendWeightedChunks(b, target)
		}
	}
	// Single-chunk batches also go through the pool: Run's n==1 fast path
	// executes inline on the caller while keeping the per-worker drained-
	// chunk counters accurate.
	br.kernel = kernel
	br.pool.Run(len(br.chunks), br.body)
}

// boxWeight sums the row weights over the box's (x, y) cross-section.
func (br *boxRunner) boxWeight(b box) int64 {
	if b.cells() == 0 {
		return 0
	}
	var s int64
	for ix := b.lo[0]; ix < b.hi[0]; ix++ {
		s += br.sliceWeight(b, 0, ix)
	}
	return s
}

// sliceWeight sums the row weights of one cross-slice of b at position i
// on the split axis. The rows of an x slice are consecutive, so their
// total is one difference of the index's offsets.
func (br *boxRunner) sliceWeight(b box, axis, i int) int64 {
	ny := br.weigh.ny
	if axis == 0 {
		return br.weigh.rowCells(i*ny+b.lo[1], i*ny+b.hi[1])
	}
	var s int64
	for ix := b.lo[0]; ix < b.hi[0]; ix++ {
		s += br.weigh.rowCells(ix*ny+i, ix*ny+i+1)
	}
	return s
}

// appendWeightedChunks splits b along the longer of its x and y extents
// into contiguous chunks of roughly target fluid weight each. Leading
// all-solid slices and zero-weight tails never enter a chunk: the rows
// they would carry have no fluid runs, so dropping them changes nothing
// the kernels would compute.
func (br *boxRunner) appendWeightedChunks(b box, target int64) {
	if b.cells() == 0 {
		return
	}
	axis := 0
	if b.hi[1]-b.lo[1] > b.hi[0]-b.lo[0] {
		axis = 1
	}
	start := b.lo[axis]
	var acc int64
	for i := b.lo[axis]; i < b.hi[axis]; i++ {
		w := br.sliceWeight(b, axis, i)
		if acc == 0 && w == 0 {
			start = i + 1 // all-solid slice ahead of any fluid: drop it
			continue
		}
		acc += w
		if acc >= target {
			c := b
			c.lo[axis], c.hi[axis] = start, i+1
			br.chunks = append(br.chunks, c)
			br.chunkW = append(br.chunkW, acc)
			start, acc = i+1, 0
		}
	}
	if acc > 0 {
		c := b
		c.lo[axis], c.hi[axis] = start, b.hi[axis]
		br.chunks = append(br.chunks, c)
		br.chunkW = append(br.chunkW, acc)
	}
}

// appendBoxChunks splits b along the longer of its x and y extents into
// pieces of roughly chunkCells cells each and appends them to dst. A box
// too small to split is appended whole.
func appendBoxChunks(dst []box, b box, chunkCells int) []box {
	cells := b.cells()
	if cells == 0 {
		return dst
	}
	axis := 0
	if b.hi[1]-b.lo[1] > b.hi[0]-b.lo[0] {
		axis = 1
	}
	n := b.hi[axis] - b.lo[axis]
	want := (cells + chunkCells - 1) / chunkCells
	if want > n {
		want = n
	}
	if want <= 1 {
		return append(dst, b)
	}
	base, rem := n/want, n%want
	lo := b.lo[axis]
	for i := 0; i < want; i++ {
		size := base
		if i < rem {
			size++
		}
		c := b
		c.lo[axis], c.hi[axis] = lo, lo+size
		lo += size
		dst = append(dst, c)
	}
	return dst
}

// workerScratch holds one worker's kernel scratch, allocated once per
// stepper at the local field's dimensions. Worker w owns scratch slot w
// exclusively for the duration of each chunk, which is what removes the
// per-call make([]float64, Q) and row-buffer allocations the transient
// loops paid on every block of every step.
type workerScratch struct {
	fc     []float64   // Q-length per-cell gather buffer
	rb     rowBufs     // span moment accumulators (capacity nzCap)
	vrows  [][]float64 // Q span buffers: operator feq rows / profiled inlet rows
	vstore []float64
	nzCap  int                // cells every span buffer holds: max(NZ, spanCells)
	sv, dv [][]float64        // per-velocity slice headers for rowViews: rows relaxed or read in place / the sweep's out rows
	op     collision.Operator // per-worker operator clone; nil for plain BGK
	feqR   []float64          // Q-length equilibrium buffer (face fills)
	sig    []float64          // span-length sponge factor row
	bad    int                // initRows: global index + 1 of the first invalid initial state met, 0 for none

	// Gathered span stores: the gather sweep pulls a span's populations
	// into gin and — where it scatters — collides into gout (gather.go);
	// the split path's AoS spans transpose through gin. Their own storage:
	// a row kernel may use vrows while it reads gin.
	gin, gout     [][]float64
	ginSt, goutSt []float64
	span          []spanRow // the row body's open span (capacity nzCap rows)
}

// gathered re-slices the worker's gathered-in rows to length zn (≤ nzCap).
func (sc *workerScratch) gathered(zn int) [][]float64 {
	for v := range sc.gin {
		sc.gin[v] = sc.ginSt[v*sc.nzCap : v*sc.nzCap+zn]
	}
	return sc.gin
}

// scattered re-slices the out rows a scattering sweep collides into.
func (sc *workerScratch) scattered(zn int) [][]float64 {
	for v := range sc.gout {
		sc.gout[v] = sc.goutSt[v*sc.nzCap : v*sc.nzCap+zn]
	}
	return sc.gout
}

// rows returns the worker's Q row buffers re-sliced to a run of length zn
// (zn ≤ nzCap).
func (sc *workerScratch) rows(zn int) [][]float64 {
	for v := range sc.vrows {
		sc.vrows[v] = sc.vstore[v*sc.nzCap : v*sc.nzCap+zn]
	}
	return sc.vrows
}

// newScratches allocates one scratch slot per pool worker, its span
// buffers sized for the local field's z rows of nz cells and for spans of
// spanCells. op, when non-nil, is cloned per worker (operators share
// read-only tables but carry private relaxation scratch).
func newScratches(threads, q, nz int, op collision.Operator) []*workerScratch {
	out := make([]*workerScratch, threads)
	nz = max(nz, spanCells)
	for w := range out {
		sc := &workerScratch{
			fc:     make([]float64, q),
			rb:     newRowBufs(nz, q),
			vrows:  make([][]float64, q),
			vstore: make([]float64, q*nz),
			nzCap:  nz,
			sv:     make([][]float64, q),
			dv:     make([][]float64, q),
			feqR:   make([]float64, q),
			sig:    make([]float64, nz),
			gin:    make([][]float64, q),
			gout:   make([][]float64, q),
			ginSt:  make([]float64, q*nz),
			goutSt: make([]float64, q*nz),
			span:   make([]spanRow, 0, nz),
		}
		if op != nil {
			sc.op = op.Clone()
		}
		out[w] = sc
	}
	return out
}
