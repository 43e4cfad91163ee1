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
// staggering in the overlapped (GC-C) schedule: any plane range may be
// computed as soon as its inputs are valid.

import (
	"repro/internal/halo"
	"repro/internal/obs"
)

// FusedBytesPerCell returns the per-cell main-memory traffic of the fused
// kernel: 2·Q·8 bytes (one read, one write), versus the split path's
// 3·Q·8 counted by the paper's performance model.
func FusedBytesPerCell(q int) float64 { return 2 * 8 * float64(q) }

// swap exchanges the state and scratch fields after a fused step.
func (s *stepper) swap() { s.f, s.fadv = s.fadv, s.f }

// fusedRegion computes one fused step for destination planes [lo,hi),
// reading s.f and writing s.fadv. The caller must swap afterwards.
func (s *stepper) fusedRegion(lo, hi int) {
	if hi <= lo {
		return
	}
	t0 := s.rec.Begin()
	s.br.run(s.fusedRows, s.slabBox(lo, hi))
	s.rec.End(obs.Interior, t0)
}

// fusedRegionPair computes a fused step over two disjoint plane ranges,
// submitted as one chunk batch.
func (s *stepper) fusedRegionPair(lo1, hi1, lo2, hi2 int) {
	s.br.run(s.fusedRows, s.slabBox(lo1, hi1), s.slabBox(lo2, hi2))
}

// fusedRows is the slab's fused view-forming caller: for each destination
// row it gathers the streamed values of every velocity into the worker's
// row buffers (rotated copies, as in the DH streaming kernel) and relaxes
// them straight into the rows of the next state.
func (s *stepper) fusedRows(worker int, bx box) {
	m := s.model
	ny, nz := s.d.NY, s.d.NZ
	plane := s.d.PlaneCells()
	sc := s.scratch[worker]
	rows := sc.rows(nz)
	for ix := bx.lo[0]; ix < bx.hi[0]; ix++ {
		for iy := bx.lo[1]; iy < bx.hi[1]; iy++ {
			// Gather: rows[v][z] = f[v] at (ix−cx, wrap(iy−cy), wrap(z−cz)).
			for v := 0; v < m.Q; v++ {
				sx := ix - m.Cx[v]
				sy := iy - m.Cy[v]
				if sy < 0 {
					sy += ny
				} else if sy >= ny {
					sy -= ny
				}
				off := sx*plane + sy*nz
				rotateCopy(rows[v], s.f.V(v)[off:off+nz], m.Cz[v])
			}
			s.relax(sc, rows, rowViews(sc.dv, s.fadv, s.d.Index(ix, iy, 0), nz), nz)
		}
	}
}

// fusedCycle runs one deep-halo cycle with the fused kernel.
func (s *stepper) fusedCycle(runLen int) {
	exts := halo.CycleExtents(s.depth, s.k)
	overlap := s.cfg.Opt >= OptGCC && s.r.N > 1
	switch {
	case s.r.N == 1:
		s.ex.ExchangeLocal(s.f)
	case overlap:
		s.fusedOverlappedFirstStep(exts[0])
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
		lo, hi := s.regionFor(exts[si])
		s.fusedRegion(lo, hi)
		s.swap()
		s.countUpdates(lo, hi)
		s.jitter()
	}
}

// fusedOverlappedFirstStep is the GC-C schedule for the fused kernel,
// with the interior/rim split taken from the box schedule planner (stale
// axis x). Since the previous state is read-only during the step, the
// only constraint is input validity: the interior may run while messages
// fly; the ghost-dependent rim follows WaitUnpack.
func (s *stepper) fusedOverlappedFirstStep(ext int) {
	lo, hi := s.regionFor(ext)
	plan := s.planFirstStep(lo, hi)
	isLo, isHi := plan.interiorS.lo[0], plan.interiorS.hi[0]
	s.ex.PostRecvs(s.r)
	s.ex.SendBorders(s.r, s.f)
	s.fusedRegion(isLo, isHi)
	s.ex.WaitUnpack(s.r, s.f)
	t0 := s.rec.Begin()
	s.fusedRegionPair(lo, isLo, isHi, hi)
	s.rec.EndAxis(obs.Rim, 0, t0)
	s.swap()
	s.countUpdates(lo, hi)
}

// Box (multi-axis) fused kernel: the same one-read-one-write cell update
// over the cart stepper's ghost-on-every-axis geometry. With ghosts on
// all axes the gather loses even the y wrap and z rotation of the slab
// form — every velocity's source row is one contiguous offset copy.

// swap exchanges the cart stepper's state and scratch fields after a
// fused step.
func (cs *cartStepper) swap() { cs.f, cs.fadv = cs.fadv, cs.f }

// fusedBox computes one fused step for destination box b, reading cs.f
// and writing cs.fadv. The caller swaps after the step completes.
func (cs *cartStepper) fusedBox(b box) {
	t0 := cs.rec.Begin()
	cs.br.run(cs.fusedBoxRows, b)
	cs.rec.End(obs.Interior, t0)
}

// fusedBoxPair computes a fused step over two disjoint boxes (rim slabs),
// submitted as one chunk batch.
func (cs *cartStepper) fusedBoxPair(b1, b2 box) {
	cs.br.run(cs.fusedBoxRows, b1, b2)
}

// fusedBoxRows is the box form of fusedRows: every velocity's source row
// is one plain offset copy (no wraps).
func (cs *cartStepper) fusedBoxRows(worker int, bx box) {
	m := cs.model
	zn := bx.hi[2] - bx.lo[2]
	if bx.hi[0] <= bx.lo[0] || zn <= 0 || bx.hi[1] <= bx.lo[1] {
		return
	}
	sc := cs.scratch[worker]
	rows := sc.rows(zn)
	for ix := bx.lo[0]; ix < bx.hi[0]; ix++ {
		for iy := bx.lo[1]; iy < bx.hi[1]; iy++ {
			for v := 0; v < m.Q; v++ {
				off := cs.d.Index(ix-m.Cx[v], iy-m.Cy[v], bx.lo[2]-m.Cz[v])
				copy(rows[v], cs.f.V(v)[off:off+zn])
			}
			cs.relax(sc, rows, rowViews(sc.dv, cs.fadv, cs.d.Index(ix, iy, bx.lo[2]), zn), zn)
		}
	}
}
