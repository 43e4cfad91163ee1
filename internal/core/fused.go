package core

// Fused stream-collide: the paper's future-work direction (§VII:
// "investigation into methods to alter the algorithm as to reduce the
// memory accesses per lattice update could increase the potential
// hardware efficiency"). Instead of streaming f into f_adv (write Q
// values/cell) and then colliding f_adv into f (read Q + write Q), the
// fused kernel gathers each cell's neighbors into a cache-resident row
// buffer and writes the post-collision values directly:
//
//	next[x] = collide(gather prev[x−c])
//
// One read and one write of the field per step — 2·Q·8 = 304 (D3Q19) /
// 624 (D3Q39) bytes per cell instead of the split path's 456 / 936 —
// which directly raises the roofline of the bandwidth-limited code. The
// two buffers swap roles after every step. Because the previous state is
// never overwritten mid-step, the fused path needs no stream/collide
// staggering in the overlapped (GC-C) schedule: any box may be computed
// as soon as its inputs are valid.

import "repro/internal/obs"

// FusedBytesPerCell returns the per-cell main-memory traffic of the fused
// kernel: 2·Q·8 bytes (one read, one write), versus the split path's
// 3·Q·8 counted by the paper's performance model.
func FusedBytesPerCell(q int) float64 { return 2 * 8 * float64(q) }

// swap exchanges the state and scratch fields after a fused step.
func (cs *cartStepper) swap() { cs.f, cs.fadv = cs.fadv, cs.f }

// fusedBox computes one fused step for destination box b, reading cs.f
// and writing cs.fadv. The caller swaps after the step completes.
func (cs *cartStepper) fusedBox(b box) {
	t0 := cs.rec.Begin()
	cs.br.run(cs.fused, b)
	cs.rec.End(obs.Interior, t0)
}

// fusedBoxPair computes a fused step over two disjoint boxes (rim slabs),
// submitted as one chunk batch.
func (cs *cartStepper) fusedBoxPair(b1, b2 box) {
	cs.br.run(cs.fused, b1, b2)
}

// fusedRows is the fused view-forming caller: for each destination row it
// gathers the streamed values of every velocity into the worker's row
// buffers — the source row from the srcY table, the z movement by zShift,
// exactly as streamCopyIndexed moves them (stream.go) — and relaxes them
// straight into the rows of the next state.
func (cs *cartStepper) fusedRows(worker int, bx box) {
	m := cs.model
	nz := cs.d.NZ
	plane := cs.d.PlaneCells()
	zlo, zn, wrapZ := bx.lo[2], bx.hi[2]-bx.lo[2], cs.w[2] == 0
	sc := cs.scratch[worker]
	rows := sc.rows(zn)
	for ix := bx.lo[0]; ix < bx.hi[0]; ix++ {
		for iy := bx.lo[1]; iy < bx.hi[1]; iy++ {
			for v := 0; v < m.Q; v++ {
				off := (ix-m.Cx[v])*plane + int(cs.srcY[v][iy])*nz
				zShift(rows[v], cs.f.V(v)[off:off+nz], zlo, m.Cz[v], wrapZ)
			}
			cs.relax(sc, rows, rowViews(sc.dv, cs.fadv, cs.d.Index(ix, iy, zlo), zn), zn)
		}
	}
}
