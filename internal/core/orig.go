package core

import (
	"fmt"

	"repro/internal/grid"
	"repro/internal/halo"
	"repro/internal/obs"
)

// origProto implements the naive distributed protocol of the paper's Fig. 2:
// no persistent ghost cells. Each step pushes the streamed populations into
// k-plane egress margins, exchanges exactly the populations that crossed
// the rank boundary ("LBM_Exchange") with blocking sends, merges them into
// the owned region of the advected field, and only then collides it in
// place and swaps the fields. The collide therefore directly waits on the
// neighbors' stream results — the serialization that ghost cells later
// remove.
type origProto struct {
	s           *cartStepper
	left, right int
	// crossL[m-1] lists velocities with cx ≤ −m; crossR[m-1] those with
	// cx ≥ m — the populations that can cross m planes leftward/rightward.
	crossL, crossR [][]int
}

// Message tags: one per (direction, plane offset).
const (
	tagOrigL = 0x300
	tagOrigR = 0x340
)

// newOrigProto builds the protocol over a stepper in the x-only geometry
// (w = {k, 0, 0}: the x side regions are the egress margins) with the
// given low/high x neighbors.
func newOrigProto(s *cartStepper, xNeighbors [2]int) *origProto {
	m := s.model
	p := &origProto{s: s, left: xNeighbors[0], right: xNeighbors[1]}
	for off := 1; off <= s.k; off++ {
		var l, r []int
		for v := 0; v < m.Q; v++ {
			if m.Cx[v] <= -off {
				l = append(l, v)
			}
			if m.Cx[v] >= off {
				r = append(r, v)
			}
		}
		p.crossL = append(p.crossL, l)
		p.crossR = append(p.crossR, r)
	}
	return p
}

// step advances one time step under the naive protocol: compute the next
// state in fadv, then swap it in.
func (p *origProto) step() {
	p.compute()
	p.s.f, p.s.fadv = p.s.fadv, p.s.f
}

// compute pushes f into fadv, exchanges and merges the crossed
// populations there, and finishes fadv's rows in place with the row body.
func (p *origProto) compute() {
	s := p.s
	owned := s.ownedBox()
	s.timed(s.streamPushScalar, obs.Interior, obs.NoAxis, owned)
	p.exchange()
	s.timed(s.gather, obs.Interior, obs.NoAxis, owned)
}

// exchange ships the egress margins of fadv to the neighbors, which merge
// them into their owned planes. Margin plane j ∈ [0,k) on the left carries
// populations with cx ≤ −(k−j) and lands on the left neighbor's owned
// plane own+j; right margin plane j carries cx ≥ j+1 and lands on the
// right neighbor's owned plane k+j (local coordinates). Each plane is one
// message, packed straight into a slot of the fabric and merged straight
// out of the slot it arrives in.
func (p *origProto) exchange() {
	s := p.s
	k, own := s.k, s.own[0]
	if s.r.N == 1 {
		// Periodic wrap: the margins fold back onto the owned region
		// (attributed to Unpack — a merge into owned planes, no packing).
		t0 := s.rec.Begin()
		for j := 0; j < k; j++ {
			copyPlaneVels(s.fadv, j, own+j, p.crossL[k-j-1])
			copyPlaneVels(s.fadv, own+k+j, k+j, p.crossR[j])
		}
		s.rec.End(obs.Unpack, t0)
		return
	}
	t0 := s.rec.Begin()
	var bytes int64
	for j := 0; j < k; j++ {
		bytes += p.send(p.left, tagOrigL+j, j, p.crossL[k-j-1])
	}
	for j := 0; j < k; j++ {
		bytes += p.send(p.right, tagOrigR+j, own+k+j, p.crossR[j])
	}
	s.rec.End(obs.Pack, t0)
	s.rec.AddComm(0, bytes, int64(2*k))
	for j := 0; j < k; j++ {
		p.merge(p.right, tagOrigL+j, own+j, p.crossL[k-j-1])
	}
	for j := 0; j < k; j++ {
		p.merge(p.left, tagOrigR+j, k+j, p.crossR[j])
	}
}

// send packs the listed velocities of fadv's x-plane x into a slot for dst
// and posts it under tag, returning the payload bytes.
func (p *origProto) send(dst, tag, x int, vels []int) int64 {
	s := p.s
	slot := s.r.Acquire(dst, len(vels)*s.d.PlaneCells())
	halo.PackPlanesVel(s.fadv, x, x+1, vels, slot.Data)
	s.r.Post(dst, tag, slot)
	return int64(8 * len(slot.Data))
}

// merge takes the message tag from src and writes it into the listed
// velocities of fadv's x-plane x. The payload has no header: a length
// other than the plane's means the two ranks disagree on the lattice, so
// it panics before the first write.
func (p *origProto) merge(src, tag, x int, vels []int) {
	s := p.s
	t0 := s.rec.Begin()
	slot := s.r.Take(src, tag)
	s.rec.End(obs.Wire, t0)
	t0 = s.rec.Begin()
	if want := len(vels) * s.d.PlaneCells(); len(slot.Data) != want {
		panic(fmt.Sprintf("core: rank %d Orig plane %d: received %d values from rank %d, want %d", s.r.ID, x, len(slot.Data), src, want))
	}
	halo.UnpackPlanesVel(s.fadv, x, x+1, vels, slot.Data)
	s.r.Release(slot)
	s.rec.End(obs.Unpack, t0)
}

// streamPushScalar is the paper's Fig. 3 push kernel: iterate source cells,
// velocity innermost, scatter to x+c with modulo wrap in y and z. x lands
// in the owned region or the egress margins, both inside the allocation.
// Chunking sources is race-free: for a fixed velocity the push map is a
// bijection on cells, so no two source cells write the same slot.
func (s *cartStepper) streamPushScalar(worker int, b box) {
	m := s.model
	ny, nz := s.d.NY, s.d.NZ
	for ix := b.lo[0]; ix < b.hi[0]; ix++ {
		for iy := b.lo[1]; iy < b.hi[1]; iy++ {
			for iz := b.lo[2]; iz < b.hi[2]; iz++ {
				src := s.d.Index(ix, iy, iz)
				for v := 0; v < m.Q; v++ {
					dx := ix + m.Cx[v]
					dy := (iy + m.Cy[v] + ny) % ny
					dz := (iz + m.Cz[v] + nz) % nz
					s.fadv.Data[s.fadv.Idx(v, s.d.Index(dx, dy, dz))] = s.f.Data[s.f.Idx(v, src)]
				}
			}
		}
	}
}

// copyPlaneVels copies the listed velocities of one x-plane onto another
// within the same field (single-rank periodic wrap of the egress margins).
func copyPlaneVels(f *grid.Field, from, to int, vels []int) {
	plane := f.D.PlaneCells()
	for _, v := range vels {
		blk := f.V(v)
		copy(blk[to*plane:(to+1)*plane], blk[from*plane:(from+1)*plane])
	}
}
