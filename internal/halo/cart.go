package halo

import (
	"fmt"

	"repro/internal/comm"
	"repro/internal/grid"
	"repro/internal/obs"
)

// Cartesian halo exchange. Every face — border or ghost, on any axis — is
// a precomputed list of memory-contiguous cell spans, and packing or
// unpacking it is one loop of block copies per velocity. A dense face is the list of its
// z-rows with adjacent rows merged (an x face is one span, a y face one
// span per x); on a masked domain the list holds only the fluid z-runs of
// each row, so solid cells are never packed, sent or unpacked — and need
// not exist: the spans are whatever offsets the caller's address map gives
// the stored cells of a row (NewCartExchangerClipped), dense or compact. Edge and corner ghost cells are covered without dedicated
// messages by the sequential-axis ordering trick: axes exchange one after
// another, each face spanning the full local extent (ghosts included) of
// the axes already exchanged, so diagonal data rides along on the second
// and third hops — exactly the deep-halo ordering argument of Kjolstad &
// Snir.
//
// A face need not carry every population. A ghost layer exactly as wide as
// the lattice reach is only ever read by upwind pulls out of it, and a pull
// out of the plane at distance d from the owned box crosses d planes or
// more, so the caller may hand the exchanger one velocity list per ghost
// plane (NewCartExchangerClipped): pack, local wrap, unpack, the byte count
// and the payload-length check then move and count only each plane's
// listed velocity blocks, and the other slots of its ghost cells are never
// written.

// cartTag returns the message tag for data flowing along axis in
// direction dir (0 = toward lower coordinates, 1 = toward higher).
func cartTag(axis, dir int) int { return 0x200 + 2*axis + dir }

// NoNeighbor marks a missing neighbor (a global boundary face of a
// bounded axis) in CartExchanger.Neighbors; it matches comm.NoNeighbor.
const NoNeighbor = -1

// PackBox copies all Q velocities of the axis-aligned box [lo,hi) of f
// into buf and returns the number of values packed, velocity-major. Boxes
// spanning full y/z cross-sections degenerate to the contiguous-plane fast
// path.
func PackBox(f *grid.Field, lo, hi [3]int, buf []float64) int {
	if fullCross(f.D, lo, hi) {
		return PackPlanes(f, lo[0], hi[0], buf)
	}
	zn := hi[2] - lo[2]
	if zn <= 0 || hi[1] <= lo[1] || hi[0] <= lo[0] {
		return 0
	}
	n := 0
	for v := 0; v < f.Q; v++ {
		blk := f.V(v)
		for ix := lo[0]; ix < hi[0]; ix++ {
			for iy := lo[1]; iy < hi[1]; iy++ {
				off := f.D.Index(ix, iy, lo[2])
				n += copy(buf[n:n+zn], blk[off:off+zn])
			}
		}
	}
	return n
}

// UnpackBox is the inverse of PackBox.
func UnpackBox(f *grid.Field, lo, hi [3]int, buf []float64) int {
	if fullCross(f.D, lo, hi) {
		return UnpackPlanes(f, lo[0], hi[0], buf)
	}
	zn := hi[2] - lo[2]
	if zn <= 0 || hi[1] <= lo[1] || hi[0] <= lo[0] {
		return 0
	}
	n := 0
	for v := 0; v < f.Q; v++ {
		blk := f.V(v)
		for ix := lo[0]; ix < hi[0]; ix++ {
			for iy := lo[1]; iy < hi[1]; iy++ {
				off := f.D.Index(ix, iy, lo[2])
				n += copy(blk[off:off+zn], buf[n:n+zn])
			}
		}
	}
	return n
}

// fullCross reports whether the box spans the full y and z extents, the
// precondition for the contiguous x-plane fast path.
func fullCross(d grid.Dims, lo, hi [3]int) bool {
	return lo[1] == 0 && hi[1] == d.NY && lo[2] == 0 && hi[2] == d.NZ
}

// span is one memory-contiguous run of face cells: n cells starting at
// cell offset off.
type span struct {
	off, n int
}

// part is a slab of a face that carries one velocity list: its stored
// cells as spans in wire order — rows x-major then y, each row's z-runs
// ascending, memory-adjacent runs merged — with their total, and the
// velocity blocks it carries (nil: every block of the field). Its wire
// form is velocity, then span.
type part struct {
	vels  []int
	spans []span
	cells int
}

// The four regions of an axis, in local index order.
const (
	lowGhost = iota
	lowBorder
	highBorder
	highGhost
)

// borderRegion and ghostRegion map a side (0 = low, 1 = high) to the
// region sent toward it and the region filled from it.
func borderRegion(side int) int { return lowBorder + side }
func ghostRegion(side int) int  { return highGhost * side }

// CartExchanger is one rank's halo exchange: the span lists of its faces
// and the protocols that move them. It owns no message buffer — a border
// face is packed straight into a slot acquired from the fabric and a ghost
// face unpacked straight out of the slot taken from it. The local field
// spans Own[a] + 2·W[a] cells on axis a: [W[a], W[a]+Own[a]) is owned,
// [0, W[a]) the low ghost and [W[a]+Own[a], Own[a]+2·W[a]) the high ghost.
// An axis of width 0 has no faces: nothing is packed, sent, received or
// written along it (the paper's slab keeps ghosts on x only and wraps y
// and z in its kernels).
type CartExchanger struct {
	Q    int
	Dims grid.Dims // local dims including ghosts
	Own  [3]int    // owned extents
	W    [3]int    // ghost width per side, per axis
	Self int       // this rank's ID (self-neighbor axes wrap locally)
	// Neighbors[axis][0] is the low-side rank, [axis][1] the high-side.
	// An entry of NoNeighbor marks a global boundary face of a bounded
	// (non-periodic) axis: no message crosses it and no wraparound copy is
	// made — its ghost cells are left for the caller to fill from boundary
	// conditions. Both entries of a zero-width axis are NoNeighbor,
	// whatever the constructor was given.
	Neighbors [3][2]int

	// Rec, when non-nil, receives per-axis pack/wire/unpack spans and
	// traffic counts.
	Rec *obs.Recorder

	// faces[axis][region] lists the region's parts in wire order: the
	// whole region as one part when its face carries every population,
	// else one part per plane, ascending along the axis.
	faces [3][4][]part

	stage     []float64 // the local wrap's one reused buffer, grown on first use
	posted    [3]bool   // PostRecvsAxis called, WaitUnpackAxis pending
	axisBytes [3]int64  // payload bytes sent per axis, accumulated
}

// NewCartExchanger builds an exchanger for a field of the given shape
// whose faces carry every cell.
func NewCartExchanger(q int, d grid.Dims, own, w [3]int, self int, neighbors [3][2]int) (*CartExchanger, error) {
	return NewCartExchangerClipped(q, d, own, w, self, neighbors, nil, [3][2][][]int{})
}

// Clip is a field's address map as the exchanger needs it: it lists the
// stored cells of local row (ix, iy) with z in [zlo, zhi) as contiguous
// segments, z ascending — n cells from cell offset off of every velocity
// block, the first at height z.
type Clip func(ix, iy, zlo, zhi int, seg func(off, z, n int))

// NewCartExchangerClipped builds an exchanger whose faces carry the cells
// stored lists, at the offsets it gives them; nil means a dense field over
// d, every cell stored. d is the local box either way (ghosts included) —
// the field itself may be any size the offsets fit. The wire carries no
// header, so the two ends of a message must store the same cells of the
// region they share — as they do when each rank evaluates one global mask
// at wrapped or clamped coordinates — and values at cells that are not
// stored must never be consumed. A mismatch is caught at unpack time by
// the payload length.
//
// vels[axis][side], when non-nil, holds one list per plane of the ghost
// face on that side of axis: vels[axis][side][d-1] the velocities the plane
// at distance d from the owned box carries (and the neighbour's border
// plane that fills it), in wire order; it needs w[axis] lists. Both ends of
// a message must hold the same lists — the length check covers that too.
// Nil carries all Q on every plane.
func NewCartExchangerClipped(q int, d grid.Dims, own, w [3]int, self int, neighbors [3][2]int, stored Clip, vels [3][2][][]int) (*CartExchanger, error) {
	dims := [3]int{d.NX, d.NY, d.NZ}
	for a := 0; a < 3; a++ {
		if dims[a] != own[a]+2*w[a] {
			return nil, fmt.Errorf("halo: axis %d extent %d != own %d + 2*width %d", a, dims[a], own[a], w[a])
		}
		if w[a] < 0 {
			return nil, fmt.Errorf("halo: axis %d width %d < 0", a, w[a])
		}
		if w[a] == 0 {
			neighbors[a] = [2]int{NoNeighbor, NoNeighbor}
		}
		if own[a] < w[a] {
			// The nearest-neighbor constraint: a border message must be
			// owned entirely by one rank.
			return nil, fmt.Errorf("halo: axis %d owned extent %d < halo width %d (grow the domain or reduce depth)", a, own[a], w[a])
		}
		for _, planes := range vels[a] {
			if planes != nil && len(planes) != w[a] {
				return nil, fmt.Errorf("halo: axis %d has %d face velocity lists for %d ghost planes", a, len(planes), w[a])
			}
			for _, list := range planes {
				for _, v := range list {
					if v < 0 || v >= q {
						return nil, fmt.Errorf("halo: axis %d face velocity %d outside [0, %d)", a, v, q)
					}
				}
			}
		}
	}
	if stored == nil {
		stored = func(ix, iy, zlo, zhi int, seg func(off, z, n int)) {
			seg(d.Index(ix, iy, zlo), zlo, zhi-zlo)
		}
	}
	e := &CartExchanger{Q: q, Dims: d, Own: own, W: w, Self: self, Neighbors: neighbors}
	for a := 0; a < 3; a++ {
		for region := range e.faces[a] {
			e.faces[a][region] = e.faceParts(a, region, stored, vels[a][faceSide(region)])
		}
	}
	return e, nil
}

// faceSide returns the side of the ghost face a region is or fills: the
// low ghost and the high border (which fills the high neighbour's low
// ghost) are side 0, the other two side 1 — one rule gives every rank of a
// run its lists, so a border's are the ghost's it fills.
func faceSide(region int) int {
	if region == lowGhost || region == highBorder {
		return 0
	}
	return 1
}

// faceParts lays out one face region on the wire: one part over the whole
// region when planes is nil, else one part per plane, ascending along the
// axis, each carrying the list of its distance from the owned box. A side-0
// plane (low ghost, high border) lies hi[axis] − i planes from the box it
// feeds, a side-1 plane i − lo[axis] + 1, so both ends of a message lay out
// the same planes in the same order.
func (e *CartExchanger) faceParts(axis, region int, stored Clip, planes [][]int) []part {
	lo, hi := e.face(axis, region)
	if planes == nil {
		spans, cells := faceSpans(lo, hi, stored)
		return []part{{spans: spans, cells: cells}}
	}
	parts := make([]part, 0, hi[axis]-lo[axis])
	for i := lo[axis]; i < hi[axis]; i++ {
		dist := i - lo[axis] + 1
		if faceSide(region) == 0 {
			dist = hi[axis] - i
		}
		plo, phi := lo, hi
		plo[axis], phi[axis] = i, i+1
		spans, cells := faceSpans(plo, phi, stored)
		// A copy, never nil: a plane nothing crosses carries nothing, not all Q.
		vels := append([]int{}, planes[dist-1]...)
		parts = append(parts, part{vels: vels, spans: spans, cells: cells})
	}
	return parts
}

// faceSpans lists the stored cells of the box [lo, hi) as spans in wire
// order, with their total.
func faceSpans(lo, hi [3]int, stored Clip) (spans []span, cells int) {
	if hi[2] <= lo[2] {
		return nil, 0
	}
	for ix := lo[0]; ix < hi[0]; ix++ {
		for iy := lo[1]; iy < hi[1]; iy++ {
			stored(ix, iy, lo[2], hi[2], func(off, _, n int) {
				if k := len(spans) - 1; k >= 0 && spans[k].off+spans[k].n == off {
					spans[k].n += n
				} else {
					spans = append(spans, span{off: off, n: n})
				}
				cells += n
			})
		}
	}
	return spans, cells
}

// face returns the box of the requested region on axis. The box spans the
// full local extent of the other axes.
func (e *CartExchanger) face(axis, region int) (lo, hi [3]int) {
	hi = [3]int{e.Dims.NX, e.Dims.NY, e.Dims.NZ}
	w, own := e.W[axis], e.Own[axis]
	switch region {
	case lowGhost:
		lo[axis], hi[axis] = 0, w
	case lowBorder:
		lo[axis], hi[axis] = w, 2*w
	case highBorder:
		lo[axis], hi[axis] = own, own+w
	case highGhost:
		lo[axis], hi[axis] = w+own, 2*w+own
	}
	return lo, hi
}

// faceLen returns the number of values the face in region holds on the
// wire: per part, its cells times the velocities it carries.
func (e *CartExchanger) faceLen(axis, region int) int {
	n := 0
	for _, p := range e.faces[axis][region] {
		vels := e.Q
		if p.vels != nil {
			vels = len(p.vels)
		}
		n += vels * p.cells
	}
	return n
}

// Messaging reports whether the axis exchanges real messages: any side
// with a neighbor that is neither this rank (local periodic wrap) nor a
// global boundary face. The overlapped schedule only shrinks its interior
// on messaging axes' account — wraps and boundary fills complete
// synchronously at their slot.
func (e *CartExchanger) Messaging(axis int) bool {
	for s := 0; s < 2; s++ {
		if n := e.Neighbors[axis][s]; n != NoNeighbor && n != e.Self {
			return true
		}
	}
	return false
}

// BytesPerExchange returns the payload bytes this rank sends along axis
// per full exchange: what its border spans hold, for each side that has
// a real neighbor — zero for self-neighbor (locally wrapped) axes and for
// boundary faces.
func (e *CartExchanger) BytesPerExchange(axis int) int64 {
	var total int64
	for s := 0; s < 2; s++ {
		if n := e.Neighbors[axis][s]; n != NoNeighbor && n != e.Self {
			total += int64(8 * e.faceLen(axis, borderRegion(s)))
		}
	}
	return total
}

// AxisBytes returns the accumulated payload bytes sent per axis.
func (e *CartExchanger) AxisBytes() [3]int64 { return e.axisBytes }

// ExchangeAll performs a full halo exchange: axes in x, y, z order so
// edges and corners are covered by the ride-along trick. With nonblocking
// set, each axis runs the three-phase protocol, both ghost faces awaited
// together (§V.E); otherwise each is awaited and unpacked in turn.
func (e *CartExchanger) ExchangeAll(r *comm.Rank, f *grid.Field, nonblocking bool) {
	for axis := 0; axis < 3; axis++ {
		e.ExchangeAxis(r, f, axis, nonblocking)
	}
}

// ExchangeAxis exchanges the faces normal to one axis. Both sides of a
// self-neighbor axis wrap locally without messaging. A NoNeighbor side is
// a global boundary: nothing is sent, received or wrapped there, so no
// wraparound data can ever land in a boundary ghost face. An axis with no
// neighbors on either side (bounded, undecomposed) is a no-op.
func (e *CartExchanger) ExchangeAxis(r *comm.Rank, f *grid.Field, axis int, nonblocking bool) {
	loN, hiN := e.Neighbors[axis][0], e.Neighbors[axis][1]
	if loN == e.Self && hiN == e.Self {
		e.exchangeLocalAxis(f, axis)
		return
	}
	if loN == NoNeighbor && hiN == NoNeighbor {
		return
	}
	if nonblocking {
		e.PostRecvsAxis(r, axis)
		e.SendBordersAxis(r, f, axis)
		e.WaitUnpackAxis(r, f, axis)
		return
	}
	// A post never waits for its receiver, so sending both borders before
	// the first receive cannot deadlock.
	e.SendBordersAxis(r, f, axis)
	for _, s := range [2]int{1, 0} {
		n := e.Neighbors[axis][s]
		if n == NoNeighbor {
			continue
		}
		t0 := e.Rec.Begin()
		slot := r.Take(n, cartTag(axis, 1-s))
		e.Rec.EndAxis(obs.Wire, axis, t0)
		t0 = e.Rec.Begin()
		e.unpackFace(f, axis, s, slot.Data)
		r.Release(slot)
		e.Rec.EndAxis(obs.Unpack, axis, t0)
	}
}

// PostRecvsAxis announces the ghost receives of one axis ahead of the
// compute that overlaps them (the paper posts its MPI_Irecv before the
// local stream, §V.E). The fabric needs no buffer from the receiver — the
// message arrives in the sender's slot — so this only opens the axis for
// WaitUnpackAxis.
func (e *CartExchanger) PostRecvsAxis(r *comm.Rank, axis int) { e.posted[axis] = true }

// SendBordersAxis packs each border face of one axis that has a neighbor
// straight into a slot of the fabric and posts it, counting what was
// actually packed.
func (e *CartExchanger) SendBordersAxis(r *comm.Rank, f *grid.Field, axis int) {
	t0 := e.Rec.Begin()
	var bytes, msgs int64
	for s := 0; s < 2; s++ {
		n := e.Neighbors[axis][s]
		if n == NoNeighbor {
			continue
		}
		slot := r.Acquire(n, e.faceLen(axis, borderRegion(s)))
		e.copyFace(f, axis, borderRegion(s), slot.Data, false)
		r.Post(n, cartTag(axis, s), slot)
		bytes += int64(8 * len(slot.Data))
		msgs++
	}
	e.axisBytes[axis] += bytes
	e.Rec.EndAxis(obs.Pack, axis, t0)
	e.Rec.AddComm(axis, bytes, msgs)
}

// WaitUnpackAxis takes one axis's two ghost messages and fills the ghosts
// straight out of their slots.
func (e *CartExchanger) WaitUnpackAxis(r *comm.Rank, f *grid.Field, axis int) {
	if !e.posted[axis] {
		panic("halo: WaitUnpackAxis without PostRecvsAxis")
	}
	e.posted[axis] = false
	var slots [2]*comm.Slot
	t0 := e.Rec.Begin()
	for s, n := range e.Neighbors[axis] {
		if n != NoNeighbor {
			slots[s] = r.Take(n, cartTag(axis, 1-s))
		}
	}
	e.Rec.EndAxis(obs.Wire, axis, t0)
	t0 = e.Rec.Begin()
	for s, slot := range slots {
		if slot != nil {
			e.unpackFace(f, axis, s, slot.Data)
			r.Release(slot)
		}
	}
	e.Rec.EndAxis(obs.Unpack, axis, t0)
}

// exchangeLocalAxis wraps one undecomposed axis periodically in place:
// low ghost <- high border, high ghost <- low border. Packing reads only
// border (owned) cells and unpacking writes only ghost cells, so both
// packs may run before both unpacks.
func (e *CartExchanger) exchangeLocalAxis(f *grid.Field, axis int) {
	t0 := e.Rec.Begin()
	hi := e.packFace(f, axis, 1)
	lo := e.packFace(f, axis, 0)
	e.Rec.EndAxis(obs.Pack, axis, t0)
	t0 = e.Rec.Begin()
	e.unpackFace(f, axis, 0, hi)
	e.unpackFace(f, axis, 1, lo)
	e.Rec.EndAxis(obs.Unpack, axis, t0)
}

// copyFace moves the face in region in wire order — per part, for each
// velocity block it carries, the cells of its spans — into buf, or,
// unpacking, out of it.
func (e *CartExchanger) copyFace(f *grid.Field, axis, region int, buf []float64, unpack bool) {
	n := 0
	for _, p := range e.faces[axis][region] {
		n += copySpans(f, p.vels, p.spans, buf[n:], unpack)
	}
}

// copySpans moves the listed cells of the listed velocity blocks of f
// (nil: every block), in wire order, into buf — or, unpacking, out of it —
// and returns the number of values moved. A cell span is one contiguous
// range of every block, which makes the wire format PackBox's.
func copySpans(f *grid.Field, vels []int, spans []span, buf []float64, unpack bool) int {
	nb := f.Q
	if vels != nil {
		nb = len(vels)
	}
	n := 0
	for i := 0; i < nb; i++ {
		b := i
		if vels != nil {
			b = vels[i]
		}
		blk := f.V(b)
		for _, s := range spans {
			if cells := blk[s.off : s.off+s.n]; unpack {
				n += copy(cells, buf[n:])
			} else {
				n += copy(buf[n:], cells)
			}
		}
	}
	return n
}

// packFace stages the border face toward side in the local wrap's buffer
// (low border first, high border after it) and returns the filled part.
func (e *CartExchanger) packFace(f *grid.Field, axis, side int) []float64 {
	n := [2]int{e.faceLen(axis, lowBorder), e.faceLen(axis, highBorder)}
	if len(e.stage) < n[0]+n[1] {
		e.stage = make([]float64, n[0]+n[1])
	}
	buf := e.stage[side*n[0]:][:n[side]]
	e.copyFace(f, axis, borderRegion(side), buf, false)
	return buf
}

// unpackFace fills the ghost face on side from buf. Payloads have no
// header: a length other than this rank's own ghost span total means the
// sender packed a different mask (or velocity list), and unpacking would
// leave stale data behind, so it panics before the first write instead.
func (e *CartExchanger) unpackFace(f *grid.Field, axis, side int, buf []float64) {
	if want := e.faceLen(axis, ghostRegion(side)); len(buf) != want {
		panic(fmt.Sprintf("halo: rank %d axis %d side %d: received %d values, own ghost spans hold %d (sender and receiver masks disagree)",
			e.Self, axis, side, len(buf), want))
	}
	e.copyFace(f, axis, ghostRegion(side), buf, true)
}
