//go:build !race

package core

import "unsafe"

// AVX2 bodies of the row primitives (rows_amd64.s): 4-wide VEX loops over
// the largest multiple of 4 of the run, whose tail the Go body finishes
// (first, so that the assembly call is the last and nothing is kept
// across it). The moment pass is one body for every pair of the run,
// 8 cells a block with ρ and j in registers, walking the collider's
// momPair table. Given an ahead table (gather.go: per velocity the address
// its row is read from one span further on) it runs its prefetching twin,
// momentsx4pf, which adds one PREFETCHT0 per row per block into the
// next span's sources, so that the sweep's DRAM reads for the next span
// overlap this span's arithmetic; without one, momentsx4, the same body
// with no prefetch.
// No FMA — Go's amd64 back end never fuses a multiply-add, so a fused lane
// would round differently from the Go body the other rungs run. Race
// builds keep the Go bodies: the race runtime does not see what assembly
// reads and writes.
//
// The six relax primitives — BGK's relax0/2/3 and TRT's trt0/2/3, the
// loops that store the next field — have streaming twins besides (x4nt,
// the NT wrappers below): the same loop storing with VMOVNTPD, which
// writes whole lines without first reading them as an ordinary store
// does (write-allocate). simdStreamRows binds them for the two-field
// sweep, whose out rows are the next field, written once and not read
// before the fields swap, and its fence is one SFENCE, which the row
// kernel issues after its last primitive so that the streamed lines are
// globally visible before the step's barrier publishes the field. (An
// SFENCE in every body drains the write-combining buffers ten times per
// D3Q19 span and cost a tenth of the sweep.)
// VMOVNTPD faults on an address that is not 32-byte aligned, so an NT
// wrapper hands the Go body a head of 0–3 cells that puts di on a 32-byte
// boundary as well as the tail, and streams only when dj is then aligned
// too; otherwise the plain x4 body runs (ntSplit). Dense SoA fields are
// aligned throughout (2 MiB mappings, Cells()·8-byte velocity blocks and
// NZ·8-byte rows on even dimensions); sparse runs and odd dimensions take
// the head or the plain body.

func init() {
	if cpuAVX2() {
		simdRows = &rowOps{
			moments: momentsAVX2, velocity: velocityAVX2, scale: scaleAVX2, comb2: comb2AVX2, comb3: comb3AVX2,
			relax0: relax0AVX2, relax2: relax2AVX2, relax3: relax3AVX2,
			eq0: eq0AVX2, eq2: eq2AVX2, eq3: eq3AVX2,
			trt0: trt0AVX2, trt2: trt2AVX2, trt3: trt3AVX2,
		}
		nt := *simdRows
		nt.relax0, nt.relax2, nt.relax3 = relax0NT, relax2NT, relax3NT
		nt.trt0, nt.trt2, nt.trt3 = trt0NT, trt2NT, trt3NT
		nt.fence = sfence
		simdStreamRows = &nt
	}
}

// cpuAVX2 reports whether the CPU has AVX2 and the OS saves the YMM
// registers (CPUID leaves 1 and 7, XGETBV).
func cpuAVX2() bool

// sfence orders every streaming store before it ahead of every store
// after it (SFENCE).
func sfence()

// The x4 bodies process len(first row) values, a multiple of 4; the
// wrappers below slice every row to that length first, so no body reads
// or writes past a row.

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

// momentsAVX2 checks every row the body reads through in, and every
// entry of ahead, which it indexes unchecked. An empty ahead runs the body
// without prefetches.
func momentsAVX2(rho, jx, jy, jz []float64, in [][]float64, tab []momPair, ahead []uintptr) {
	n := len(rho) &^ 3
	if n < len(rho) {
		momentRows(rho, jx, jy, jz, in, tab, n)
	}
	for _, p := range tab {
		_, _ = in[p.i][:n], in[p.j][:n]
	}
	if len(ahead) == 0 {
		momentsx4(rho[:n], jx[:n], jy[:n], jz[:n], in, tab)
		return
	}
	for _, p := range tab {
		_, _ = ahead[p.i], ahead[p.j]
	}
	momentsx4pf(rho[:n], jx[:n], jy[:n], jz[:n], in, tab, ahead)
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

// ntSplit cuts the run of len(di) cells a streaming wrapper relaxes: the
// Go body takes the head [0, h), which puts di on a 32-byte boundary, and
// the tail [m, len(di)) past the last whole vector, and the x4nt body
// [h, m). nt reports whether dj lies on the same boundary as di; where it
// does not, the wrapper runs the plain AVX2 wrapper instead. A one-row
// primitive passes its row as dj.
func ntSplit(di, dj []float64) (h, m int, nt bool) {
	a := uintptr(unsafe.Pointer(unsafe.SliceData(di)))
	h = min(len(di), int(-a%32/8))
	m = h + (len(di)-h)&^3
	return h, m, (uintptr(unsafe.Pointer(unsafe.SliceData(dj)))-a)%32 == 0
}

func relax0NT(d, s, t, base []float64, omc float64) {
	h, m, _ := ntSplit(d, d)
	if h > 0 {
		relax0(d[:h], s, t, base, omc)
	}
	if m < len(d) {
		relax0(d[m:], s[m:], t[m:], base[m:], omc)
	}
	relax0x4nt(d[h:m], s[h:m], t[h:m], base[h:m], omc)
}

func relax2NT(di, dj, si, sj, t, base, q []float64, omc, half float64) {
	h, m, nt := ntSplit(di, dj)
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
	h, m, nt := ntSplit(di, dj)
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
	h, m, _ := ntSplit(d, d)
	if h > 0 {
		trt0(d[:h], s, t, base, wp)
	}
	if m < len(d) {
		trt0(d[m:], s[m:], t[m:], base[m:], wp)
	}
	trt0x4nt(d[h:m], s[h:m], t[h:m], base[h:m], wp)
}

func trt2NT(di, dj, si, sj, t, base, q []float64, half, wp, wm float64) {
	h, m, nt := ntSplit(di, dj)
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
	h, m, nt := ntSplit(di, dj)
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
