//go:build !race

package core

import "unsafe"

// The vector bodies of the row primitives (rows_amd64.s), in two tables:
// AVX2's 4-wide VEX loops (the x4 bodies) and AVX-512F's 8-wide EVEX loops
// (x8), each body written once for both widths. The host picks the table
// (init): the 8-wide one where CPUID says AVX512F and XCR0 that the OS
// saves the opmask and all 32 ZMM registers, else the 4-wide one where it
// says AVX2 and YMM state, else none — the Go bodies. A body covers the
// largest multiple of its width of the run, and a wrapper below hands the
// rest on down that order: an 8-wide wrapper's remainder to the 4-wide
// wrapper, whose last 0–3 cells the Go body finishes (first, so that the
// assembly call is the last and nothing is kept across it). There is no
// option: the host, the rung and the run's length decide.
//
// The moment pass is one body for every pair of the run, two vectors of
// cells a block with ρ and j in registers, walking the collider's momPair
// table: 8 cells a block at 4 lanes, 16 at 8, where it is bound by the
// table walk (row bases, mask branches, broadcasts, prefetch addresses),
// which the wider block pays half as often. The 8-wide pass takes a whole
// run of 8 cells or more: its last block overlaps the one before, whose
// cells it stores again with the same bits. Given an ahead table (gather.go:
// per velocity the address its row is read from one span further on) it
// runs its prefetching twin (pf), which adds one PREFETCHT0 per row per
// 64-byte line of a block into the next span's sources, so that the
// sweep's DRAM reads for the next span overlap this span's arithmetic.
// No FMA — Go's amd64 back end never fuses a multiply-add, so a fused lane
// would round differently from the Go body the other rungs run. Race
// builds keep the Go bodies: the race runtime does not see what assembly
// reads and writes.
//
// The six relax primitives — BGK's relax0/2/3 and TRT's trt0/2/3, the
// loops that store the next field — have streaming twins besides (nt,
// the NT wrappers below): the same loop storing with VMOVNTPD, which
// writes whole lines without first reading them as an ordinary store
// does (write-allocate). A table's stream twin binds them for the
// two-field sweep, whose out rows are the next field, written once and not
// read before the fields swap, and its fence is one SFENCE, which the row
// kernel issues after its last primitive so that the streamed lines are
// globally visible before the step's barrier publishes the field. (An
// SFENCE in every body drains the write-combining buffers ten times per
// D3Q19 span and cost a tenth of the sweep.)
// VMOVNTPD faults on an address not aligned to its vector (32 bytes at 4
// lanes, 64 at 8), so an NT wrapper hands the next narrower wrapper a head
// that puts di on that boundary, and the tail, and streams only when dj is
// then aligned too; otherwise the next narrower wrapper takes the run
// (ntSplit). Dense SoA fields are aligned throughout (2 MiB mappings,
// Cells()·8-byte velocity blocks and NZ·8-byte rows on dimensions that are
// multiples of 8); sparse runs and other dimensions take the head or the
// narrower body.

func init() {
	lanes := vectorLanes()
	if lanes < 4 {
		return
	}
	avx2 := &rowOps{
		moments: momentsAVX2, velocity: velocityAVX2, scale: scaleAVX2, comb2: comb2AVX2, comb3: comb3AVX2,
		relax0: relax0AVX2, relax2: relax2AVX2, relax3: relax3AVX2,
		eq0: eq0AVX2, eq2: eq2AVX2, eq3: eq3AVX2,
		trt0: trt0AVX2, trt2: trt2AVX2, trt3: trt3AVX2,
	}
	rowTables = []rowTable{{"avx2", avx2, withStreams(avx2, rowOps{
		relax0: relax0NT, relax2: relax2NT, relax3: relax3NT, trt0: trt0NT, trt2: trt2NT, trt3: trt3NT,
	})}}
	if lanes < 8 {
		return
	}
	avx512 := &rowOps{
		moments: momentsAVX512, velocity: velocityAVX512, scale: scaleAVX512, comb2: comb2AVX512, comb3: comb3AVX512,
		relax0: relax0AVX512, relax2: relax2AVX512, relax3: relax3AVX512,
		eq0: eq0AVX512, eq2: eq2AVX512, eq3: eq3AVX512,
		trt0: trt0AVX512, trt2: trt2AVX512, trt3: trt3AVX512,
	}
	wide := rowTable{"avx512", avx512, withStreams(avx512, rowOps{
		relax0: relax0NT8, relax2: relax2NT8, relax3: relax3NT8, trt0: trt0NT8, trt2: trt2NT8, trt3: trt3NT8,
	})}
	rowTables = append([]rowTable{wide}, rowTables...)
}

// withStreams returns ops with the six relax primitives of nt, their
// streaming wrappers, and the fence.
func withStreams(ops *rowOps, nt rowOps) *rowOps {
	st := *ops
	st.relax0, st.relax2, st.relax3 = nt.relax0, nt.relax2, nt.relax3
	st.trt0, st.trt2, st.trt3 = nt.trt0, nt.trt2, nt.trt3
	st.fence = sfence
	return &st
}

// vectorLanes returns the widest vector table this CPU and OS run: 8
// (AVX512F, with the OS saving opmask, ZMM_Hi256 and Hi16_ZMM state as
// well as SSE and YMM), 4 (AVX2 with SSE and YMM state) or 0.
func vectorLanes() int {
	if top, _, _, _ := cpuid(0, 0); top < 7 {
		return 0
	}
	const osxsave, avx = 1 << 27, 1 << 28
	if _, _, c, _ := cpuid(1, 0); c&(osxsave|avx) != osxsave|avx {
		return 0
	}
	xcr0 := xgetbv()
	_, b, _, _ := cpuid(7, 0)
	const avx2, avx512f = 1 << 5, 1 << 16
	const ymm, zmm = 0x06, 0xe0 // XCR0: SSE and YMM; opmask, ZMM_Hi256, Hi16_ZMM
	switch {
	case b&avx2 == 0 || xcr0&ymm != ymm:
		return 0
	case b&avx512f != 0 && xcr0&zmm == zmm:
		return 8
	}
	return 4
}

// cpuid returns EAX, EBX, ECX and EDX of CPUID leaf leaf, subleaf sub.
func cpuid(leaf, sub uint32) (a, b, c, d uint32)

// xgetbv returns the low word of XCR0 (XGETBV, ECX = 0). It faults where
// CPUID leaf 1 does not report OSXSAVE.
func xgetbv() uint32

// sfence orders every streaming store before it ahead of every store
// after it (SFENCE).
func sfence()

// The x4 and x8 bodies process len(first row) values, a multiple of 4 or
// 8 (the 8-wide moment pass: any length from 8); the wrappers below slice
// every row to that length first, so no body reads or writes past a row.

//go:noescape
func momentsx4(rho, jx, jy, jz []float64, in [][]float64, tab []momPair)

//go:noescape
func momentsx4pf(rho, jx, jy, jz []float64, in [][]float64, tab []momPair, ahead []uintptr)

//go:noescape
func velocityx4(rho, qx, qy, qz, base []float64, sx, sy, sz, invCs2, invCs2h float64)

//go:noescape
func scalex4(dst, src []float64, a float64)

//go:noescape
func comb2x4(q, qa, qb []float64, ca, cb float64)

//go:noescape
func comb3x4(q, qa, qb, qc []float64, ca, cb, cc float64)

//go:noescape
func relax0x4(d, s, t, base []float64, omc float64)

//go:noescape
func relax0x4nt(d, s, t, base []float64, omc float64)

//go:noescape
func relax2x4(di, dj, si, sj, t, base, q []float64, omc, half float64)

//go:noescape
func relax2x4nt(di, dj, si, sj, t, base, q []float64, omc, half float64)

//go:noescape
func relax3x4(di, dj, si, sj, t, base, q []float64, omc, half, sixth float64)

//go:noescape
func relax3x4nt(di, dj, si, sj, t, base, q []float64, omc, half, sixth float64)

//go:noescape
func eq0x4(f, t, base []float64)

//go:noescape
func eq2x4(fi, fj, t, base, q []float64, half float64)

//go:noescape
func eq3x4(fi, fj, t, base, q []float64, half, sixth float64)

//go:noescape
func trt0x4(d, s, t, base []float64, wp float64)

//go:noescape
func trt0x4nt(d, s, t, base []float64, wp float64)

//go:noescape
func trt2x4(di, dj, si, sj, t, base, q []float64, half, wp, wm float64)

//go:noescape
func trt2x4nt(di, dj, si, sj, t, base, q []float64, half, wp, wm float64)

//go:noescape
func trt3x4(di, dj, si, sj, t, base, q []float64, half, sixth, wp, wm float64)

//go:noescape
func trt3x4nt(di, dj, si, sj, t, base, q []float64, half, sixth, wp, wm float64)

//go:noescape
func momentsx8(rho, jx, jy, jz []float64, in [][]float64, tab []momPair)

//go:noescape
func momentsx8pf(rho, jx, jy, jz []float64, in [][]float64, tab []momPair, ahead []uintptr)

//go:noescape
func velocityx8(rho, qx, qy, qz, base []float64, sx, sy, sz, invCs2, invCs2h float64)

//go:noescape
func scalex8(dst, src []float64, a float64)

//go:noescape
func comb2x8(q, qa, qb []float64, ca, cb float64)

//go:noescape
func comb3x8(q, qa, qb, qc []float64, ca, cb, cc float64)

//go:noescape
func relax0x8(d, s, t, base []float64, omc float64)

//go:noescape
func relax0x8nt(d, s, t, base []float64, omc float64)

//go:noescape
func relax2x8(di, dj, si, sj, t, base, q []float64, omc, half float64)

//go:noescape
func relax2x8nt(di, dj, si, sj, t, base, q []float64, omc, half float64)

//go:noescape
func relax3x8(di, dj, si, sj, t, base, q []float64, omc, half, sixth float64)

//go:noescape
func relax3x8nt(di, dj, si, sj, t, base, q []float64, omc, half, sixth float64)

//go:noescape
func eq0x8(f, t, base []float64)

//go:noescape
func eq2x8(fi, fj, t, base, q []float64, half float64)

//go:noescape
func eq3x8(fi, fj, t, base, q []float64, half, sixth float64)

//go:noescape
func trt0x8(d, s, t, base []float64, wp float64)

//go:noescape
func trt0x8nt(d, s, t, base []float64, wp float64)

//go:noescape
func trt2x8(di, dj, si, sj, t, base, q []float64, half, wp, wm float64)

//go:noescape
func trt2x8nt(di, dj, si, sj, t, base, q []float64, half, wp, wm float64)

//go:noescape
func trt3x8(di, dj, si, sj, t, base, q []float64, half, sixth, wp, wm float64)

//go:noescape
func trt3x8nt(di, dj, si, sj, t, base, q []float64, half, sixth, wp, wm float64)

// checkMomentRows panics unless every row the moment pass reads through in
// holds n cells and a non-empty ahead has an entry for each: the bodies
// index both unchecked.
func checkMomentRows(n int, in [][]float64, tab []momPair, ahead []uintptr) {
	for _, p := range tab {
		_, _ = in[p.i][:n], in[p.j][:n]
		if len(ahead) > 0 {
			_, _ = ahead[p.i], ahead[p.j]
		}
	}
}

// momentsAVX2 runs the 4-wide body over the run's multiple of 4. An empty
// ahead runs the body without prefetches.
func momentsAVX2(rho, jx, jy, jz []float64, in [][]float64, tab []momPair, ahead []uintptr) {
	n := len(rho) &^ 3
	if n < len(rho) {
		momentRows(rho, jx, jy, jz, in, tab, n)
	}
	checkMomentRows(n, in, tab, ahead)
	if len(ahead) == 0 {
		momentsx4(rho[:n], jx[:n], jy[:n], jz[:n], in, tab)
		return
	}
	momentsx4pf(rho[:n], jx[:n], jy[:n], jz[:n], in, tab, ahead)
}

// momentsAVX512 runs the 8-wide body over the whole of a run of 8 cells or
// more (its last block overlaps the one before it) and the 4-wide wrapper
// over a shorter one.
func momentsAVX512(rho, jx, jy, jz []float64, in [][]float64, tab []momPair, ahead []uintptr) {
	n := len(rho)
	if n < 8 {
		momentsAVX2(rho, jx, jy, jz, in, tab, ahead)
		return
	}
	checkMomentRows(n, in, tab, ahead)
	if len(ahead) == 0 {
		momentsx8(rho, jx[:n], jy[:n], jz[:n], in, tab)
		return
	}
	momentsx8pf(rho, jx[:n], jy[:n], jz[:n], in, tab, ahead)
}

func velocityAVX2(rho, qx, qy, qz, base []float64, sx, sy, sz, invCs2, invCs2h float64) {
	n := len(rho) &^ 3
	if n < len(rho) {
		velocityRows(rho[n:], qx[n:], qy[n:], qz[n:], base[n:], sx, sy, sz, invCs2, invCs2h)
	}
	velocityx4(rho[:n], qx[:n], qy[:n], qz[:n], base[:n], sx, sy, sz, invCs2, invCs2h)
}

func scaleAVX2(dst, src []float64, a float64) {
	n := len(dst) &^ 3
	if n < len(dst) {
		scaleRow(dst[n:], src[n:], a)
	}
	scalex4(dst[:n], src[:n], a)
}

func comb2AVX2(q, qa, qb []float64, ca, cb float64) {
	n := len(q) &^ 3
	if n < len(q) {
		comb2(q[n:], qa[n:], qb[n:], ca, cb)
	}
	comb2x4(q[:n], qa[:n], qb[:n], ca, cb)
}

func comb3AVX2(q, qa, qb, qc []float64, ca, cb, cc float64) {
	n := len(q) &^ 3
	if n < len(q) {
		comb3(q[n:], qa[n:], qb[n:], qc[n:], ca, cb, cc)
	}
	comb3x4(q[:n], qa[:n], qb[:n], qc[:n], ca, cb, cc)
}

func relax0AVX2(d, s, t, base []float64, omc float64) {
	n := len(d) &^ 3
	if n < len(d) {
		relax0(d[n:], s[n:], t[n:], base[n:], omc)
	}
	relax0x4(d[:n], s[:n], t[:n], base[:n], omc)
}

func relax2AVX2(di, dj, si, sj, t, base, q []float64, omc, half float64) {
	n := len(di) &^ 3
	if n < len(di) {
		relax2(di[n:], dj[n:], si[n:], sj[n:], t[n:], base[n:], q[n:], omc, half)
	}
	relax2x4(di[:n], dj[:n], si[:n], sj[:n], t[:n], base[:n], q[:n], omc, half)
}

func relax3AVX2(di, dj, si, sj, t, base, q []float64, omc, half, sixth float64) {
	n := len(di) &^ 3
	if n < len(di) {
		relax3(di[n:], dj[n:], si[n:], sj[n:], t[n:], base[n:], q[n:], omc, half, sixth)
	}
	relax3x4(di[:n], dj[:n], si[:n], sj[:n], t[:n], base[:n], q[:n], omc, half, sixth)
}

func eq0AVX2(f, t, base []float64) {
	n := len(f) &^ 3
	if n < len(f) {
		eq0(f[n:], t[n:], base[n:])
	}
	eq0x4(f[:n], t[:n], base[:n])
}

func eq2AVX2(fi, fj, t, base, q []float64, half float64) {
	n := len(fi) &^ 3
	if n < len(fi) {
		eq2(fi[n:], fj[n:], t[n:], base[n:], q[n:], half)
	}
	eq2x4(fi[:n], fj[:n], t[:n], base[:n], q[:n], half)
}

func eq3AVX2(fi, fj, t, base, q []float64, half, sixth float64) {
	n := len(fi) &^ 3
	if n < len(fi) {
		eq3(fi[n:], fj[n:], t[n:], base[n:], q[n:], half, sixth)
	}
	eq3x4(fi[:n], fj[:n], t[:n], base[:n], q[:n], half, sixth)
}

func trt0AVX2(d, s, t, base []float64, wp float64) {
	n := len(d) &^ 3
	if n < len(d) {
		trt0(d[n:], s[n:], t[n:], base[n:], wp)
	}
	trt0x4(d[:n], s[:n], t[:n], base[:n], wp)
}

func trt2AVX2(di, dj, si, sj, t, base, q []float64, half, wp, wm float64) {
	n := len(di) &^ 3
	if n < len(di) {
		trt2(di[n:], dj[n:], si[n:], sj[n:], t[n:], base[n:], q[n:], half, wp, wm)
	}
	trt2x4(di[:n], dj[:n], si[:n], sj[:n], t[:n], base[:n], q[:n], half, wp, wm)
}

func trt3AVX2(di, dj, si, sj, t, base, q []float64, half, sixth, wp, wm float64) {
	n := len(di) &^ 3
	if n < len(di) {
		trt3(di[n:], dj[n:], si[n:], sj[n:], t[n:], base[n:], q[n:], half, sixth, wp, wm)
	}
	trt3x4(di[:n], dj[:n], si[:n], sj[:n], t[:n], base[:n], q[:n], half, sixth, wp, wm)
}

func velocityAVX512(rho, qx, qy, qz, base []float64, sx, sy, sz, invCs2, invCs2h float64) {
	n := len(rho) &^ 7
	if n < len(rho) {
		velocityAVX2(rho[n:], qx[n:], qy[n:], qz[n:], base[n:], sx, sy, sz, invCs2, invCs2h)
	}
	velocityx8(rho[:n], qx[:n], qy[:n], qz[:n], base[:n], sx, sy, sz, invCs2, invCs2h)
}

func scaleAVX512(dst, src []float64, a float64) {
	n := len(dst) &^ 7
	if n < len(dst) {
		scaleAVX2(dst[n:], src[n:], a)
	}
	scalex8(dst[:n], src[:n], a)
}

func comb2AVX512(q, qa, qb []float64, ca, cb float64) {
	n := len(q) &^ 7
	if n < len(q) {
		comb2AVX2(q[n:], qa[n:], qb[n:], ca, cb)
	}
	comb2x8(q[:n], qa[:n], qb[:n], ca, cb)
}

func comb3AVX512(q, qa, qb, qc []float64, ca, cb, cc float64) {
	n := len(q) &^ 7
	if n < len(q) {
		comb3AVX2(q[n:], qa[n:], qb[n:], qc[n:], ca, cb, cc)
	}
	comb3x8(q[:n], qa[:n], qb[:n], qc[:n], ca, cb, cc)
}

func relax0AVX512(d, s, t, base []float64, omc float64) {
	n := len(d) &^ 7
	if n < len(d) {
		relax0AVX2(d[n:], s[n:], t[n:], base[n:], omc)
	}
	relax0x8(d[:n], s[:n], t[:n], base[:n], omc)
}

func relax2AVX512(di, dj, si, sj, t, base, q []float64, omc, half float64) {
	n := len(di) &^ 7
	if n < len(di) {
		relax2AVX2(di[n:], dj[n:], si[n:], sj[n:], t[n:], base[n:], q[n:], omc, half)
	}
	relax2x8(di[:n], dj[:n], si[:n], sj[:n], t[:n], base[:n], q[:n], omc, half)
}

func relax3AVX512(di, dj, si, sj, t, base, q []float64, omc, half, sixth float64) {
	n := len(di) &^ 7
	if n < len(di) {
		relax3AVX2(di[n:], dj[n:], si[n:], sj[n:], t[n:], base[n:], q[n:], omc, half, sixth)
	}
	relax3x8(di[:n], dj[:n], si[:n], sj[:n], t[:n], base[:n], q[:n], omc, half, sixth)
}

func eq0AVX512(f, t, base []float64) {
	n := len(f) &^ 7
	if n < len(f) {
		eq0AVX2(f[n:], t[n:], base[n:])
	}
	eq0x8(f[:n], t[:n], base[:n])
}

func eq2AVX512(fi, fj, t, base, q []float64, half float64) {
	n := len(fi) &^ 7
	if n < len(fi) {
		eq2AVX2(fi[n:], fj[n:], t[n:], base[n:], q[n:], half)
	}
	eq2x8(fi[:n], fj[:n], t[:n], base[:n], q[:n], half)
}

func eq3AVX512(fi, fj, t, base, q []float64, half, sixth float64) {
	n := len(fi) &^ 7
	if n < len(fi) {
		eq3AVX2(fi[n:], fj[n:], t[n:], base[n:], q[n:], half, sixth)
	}
	eq3x8(fi[:n], fj[:n], t[:n], base[:n], q[:n], half, sixth)
}

func trt0AVX512(d, s, t, base []float64, wp float64) {
	n := len(d) &^ 7
	if n < len(d) {
		trt0AVX2(d[n:], s[n:], t[n:], base[n:], wp)
	}
	trt0x8(d[:n], s[:n], t[:n], base[:n], wp)
}

func trt2AVX512(di, dj, si, sj, t, base, q []float64, half, wp, wm float64) {
	n := len(di) &^ 7
	if n < len(di) {
		trt2AVX2(di[n:], dj[n:], si[n:], sj[n:], t[n:], base[n:], q[n:], half, wp, wm)
	}
	trt2x8(di[:n], dj[:n], si[:n], sj[:n], t[:n], base[:n], q[:n], half, wp, wm)
}

func trt3AVX512(di, dj, si, sj, t, base, q []float64, half, sixth, wp, wm float64) {
	n := len(di) &^ 7
	if n < len(di) {
		trt3AVX2(di[n:], dj[n:], si[n:], sj[n:], t[n:], base[n:], q[n:], half, sixth, wp, wm)
	}
	trt3x8(di[:n], dj[:n], si[:n], sj[:n], t[:n], base[:n], q[:n], half, sixth, wp, wm)
}

// ntSplit cuts the run of len(di) cells a streaming wrapper of lanes
// lanes relaxes: the head [0, h), which puts di on a boundary of lanes·8
// bytes, and the tail [m, len(di)) past the last whole vector go to the
// next narrower body (the Go body under the 4-wide wrapper, the 4-wide
// streaming wrapper under the 8-wide one), and the nt body takes [h, m).
// nt reports whether dj lies on the same boundary as di; where it does
// not, the next narrower wrapper takes the whole run. A one-row primitive
// passes its row as dj.
func ntSplit(di, dj []float64, lanes int) (h, m int, nt bool) {
	a, w := uintptr(unsafe.Pointer(unsafe.SliceData(di))), uintptr(lanes*8-1)
	h = min(len(di), int(-a&w/8))
	m = h + (len(di)-h)&^(lanes-1)
	return h, m, (uintptr(unsafe.Pointer(unsafe.SliceData(dj)))-a)&w == 0
}

func relax0NT(d, s, t, base []float64, omc float64) {
	h, m, _ := ntSplit(d, d, 4)
	if h > 0 {
		relax0(d[:h], s, t, base, omc)
	}
	if m < len(d) {
		relax0(d[m:], s[m:], t[m:], base[m:], omc)
	}
	relax0x4nt(d[h:m], s[h:m], t[h:m], base[h:m], omc)
}

func relax2NT(di, dj, si, sj, t, base, q []float64, omc, half float64) {
	h, m, nt := ntSplit(di, dj, 4)
	if !nt {
		relax2AVX2(di, dj, si, sj, t, base, q, omc, half)
		return
	}
	if h > 0 {
		relax2(di[:h], dj, si, sj, t, base, q, omc, half)
	}
	if m < len(di) {
		relax2(di[m:], dj[m:], si[m:], sj[m:], t[m:], base[m:], q[m:], omc, half)
	}
	relax2x4nt(di[h:m], dj[h:m], si[h:m], sj[h:m], t[h:m], base[h:m], q[h:m], omc, half)
}

func relax3NT(di, dj, si, sj, t, base, q []float64, omc, half, sixth float64) {
	h, m, nt := ntSplit(di, dj, 4)
	if !nt {
		relax3AVX2(di, dj, si, sj, t, base, q, omc, half, sixth)
		return
	}
	if h > 0 {
		relax3(di[:h], dj, si, sj, t, base, q, omc, half, sixth)
	}
	if m < len(di) {
		relax3(di[m:], dj[m:], si[m:], sj[m:], t[m:], base[m:], q[m:], omc, half, sixth)
	}
	relax3x4nt(di[h:m], dj[h:m], si[h:m], sj[h:m], t[h:m], base[h:m], q[h:m], omc, half, sixth)
}

func trt0NT(d, s, t, base []float64, wp float64) {
	h, m, _ := ntSplit(d, d, 4)
	if h > 0 {
		trt0(d[:h], s, t, base, wp)
	}
	if m < len(d) {
		trt0(d[m:], s[m:], t[m:], base[m:], wp)
	}
	trt0x4nt(d[h:m], s[h:m], t[h:m], base[h:m], wp)
}

func trt2NT(di, dj, si, sj, t, base, q []float64, half, wp, wm float64) {
	h, m, nt := ntSplit(di, dj, 4)
	if !nt {
		trt2AVX2(di, dj, si, sj, t, base, q, half, wp, wm)
		return
	}
	if h > 0 {
		trt2(di[:h], dj, si, sj, t, base, q, half, wp, wm)
	}
	if m < len(di) {
		trt2(di[m:], dj[m:], si[m:], sj[m:], t[m:], base[m:], q[m:], half, wp, wm)
	}
	trt2x4nt(di[h:m], dj[h:m], si[h:m], sj[h:m], t[h:m], base[h:m], q[h:m], half, wp, wm)
}

func trt3NT(di, dj, si, sj, t, base, q []float64, half, sixth, wp, wm float64) {
	h, m, nt := ntSplit(di, dj, 4)
	if !nt {
		trt3AVX2(di, dj, si, sj, t, base, q, half, sixth, wp, wm)
		return
	}
	if h > 0 {
		trt3(di[:h], dj, si, sj, t, base, q, half, sixth, wp, wm)
	}
	if m < len(di) {
		trt3(di[m:], dj[m:], si[m:], sj[m:], t[m:], base[m:], q[m:], half, sixth, wp, wm)
	}
	trt3x4nt(di[h:m], dj[h:m], si[h:m], sj[h:m], t[h:m], base[h:m], q[h:m], half, sixth, wp, wm)
}

func relax0NT8(d, s, t, base []float64, omc float64) {
	h, m, _ := ntSplit(d, d, 8)
	if h > 0 {
		relax0NT(d[:h], s, t, base, omc)
	}
	if m < len(d) {
		relax0NT(d[m:], s[m:], t[m:], base[m:], omc)
	}
	relax0x8nt(d[h:m], s[h:m], t[h:m], base[h:m], omc)
}

func relax2NT8(di, dj, si, sj, t, base, q []float64, omc, half float64) {
	h, m, nt := ntSplit(di, dj, 8)
	if !nt {
		relax2NT(di, dj, si, sj, t, base, q, omc, half)
		return
	}
	if h > 0 {
		relax2NT(di[:h], dj, si, sj, t, base, q, omc, half)
	}
	if m < len(di) {
		relax2NT(di[m:], dj[m:], si[m:], sj[m:], t[m:], base[m:], q[m:], omc, half)
	}
	relax2x8nt(di[h:m], dj[h:m], si[h:m], sj[h:m], t[h:m], base[h:m], q[h:m], omc, half)
}

func relax3NT8(di, dj, si, sj, t, base, q []float64, omc, half, sixth float64) {
	h, m, nt := ntSplit(di, dj, 8)
	if !nt {
		relax3NT(di, dj, si, sj, t, base, q, omc, half, sixth)
		return
	}
	if h > 0 {
		relax3NT(di[:h], dj, si, sj, t, base, q, omc, half, sixth)
	}
	if m < len(di) {
		relax3NT(di[m:], dj[m:], si[m:], sj[m:], t[m:], base[m:], q[m:], omc, half, sixth)
	}
	relax3x8nt(di[h:m], dj[h:m], si[h:m], sj[h:m], t[h:m], base[h:m], q[h:m], omc, half, sixth)
}

func trt0NT8(d, s, t, base []float64, wp float64) {
	h, m, _ := ntSplit(d, d, 8)
	if h > 0 {
		trt0NT(d[:h], s, t, base, wp)
	}
	if m < len(d) {
		trt0NT(d[m:], s[m:], t[m:], base[m:], wp)
	}
	trt0x8nt(d[h:m], s[h:m], t[h:m], base[h:m], wp)
}

func trt2NT8(di, dj, si, sj, t, base, q []float64, half, wp, wm float64) {
	h, m, nt := ntSplit(di, dj, 8)
	if !nt {
		trt2NT(di, dj, si, sj, t, base, q, half, wp, wm)
		return
	}
	if h > 0 {
		trt2NT(di[:h], dj, si, sj, t, base, q, half, wp, wm)
	}
	if m < len(di) {
		trt2NT(di[m:], dj[m:], si[m:], sj[m:], t[m:], base[m:], q[m:], half, wp, wm)
	}
	trt2x8nt(di[h:m], dj[h:m], si[h:m], sj[h:m], t[h:m], base[h:m], q[h:m], half, wp, wm)
}

func trt3NT8(di, dj, si, sj, t, base, q []float64, half, sixth, wp, wm float64) {
	h, m, nt := ntSplit(di, dj, 8)
	if !nt {
		trt3NT(di, dj, si, sj, t, base, q, half, sixth, wp, wm)
		return
	}
	if h > 0 {
		trt3NT(di[:h], dj, si, sj, t, base, q, half, sixth, wp, wm)
	}
	if m < len(di) {
		trt3NT(di[m:], dj[m:], si[m:], sj[m:], t[m:], base[m:], q[m:], half, sixth, wp, wm)
	}
	trt3x8nt(di[h:m], dj[h:m], si[h:m], sj[h:m], t[h:m], base[h:m], q[h:m], half, sixth, wp, wm)
}
