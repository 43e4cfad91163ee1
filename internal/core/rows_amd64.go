//go:build !race

package core

// AVX2 bodies of the row primitives (rows_amd64.s): 4-wide VEX loops over
// the largest multiple of 4 of the run, whose tail the Go body finishes
// (first, so that the assembly call is the last and nothing is kept
// across it).
// No FMA — Go's amd64 back end never fuses a multiply-add, so a fused lane
// would round differently from the Go body the other rungs run. Race
// builds keep the Go bodies: the race runtime does not see what assembly
// reads and writes.

func init() {
	if cpuAVX2() {
		simdRows = &rowOps{
			sum: sumAVX2, moments1: moments1AVX2, moments2: moments2AVX2, moments3: moments3AVX2,
			velocity: velocityAVX2, scale: scaleAVX2, comb2: comb2AVX2, comb3: comb3AVX2,
			relax0: relax0AVX2, relax2: relax2AVX2, relax3: relax3AVX2,
			eq0: eq0AVX2, eq2: eq2AVX2, eq3: eq3AVX2,
			trt0: trt0AVX2, trt2: trt2AVX2, trt3: trt3AVX2,
		}
	}
}

// cpuAVX2 reports whether the CPU has AVX2 and the OS saves the YMM
// registers (CPUID leaves 1 and 7, XGETBV).
func cpuAVX2() bool

// The x4 bodies process len(first row) values, a multiple of 4; the
// wrappers below slice every row to that length first, so no body reads
// or writes past a row.

//go:noescape
func sumx4(acc, s []float64)

//go:noescape
func moments1x4(rho, ja, si, sj []float64, ca float64)

//go:noescape
func moments2x4(rho, ja, jb, si, sj []float64, ca, cb float64)

//go:noescape
func moments3x4(rho, ja, jb, jc, si, sj []float64, ca, cb, cc float64)

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
func relax2x4(di, dj, si, sj, t, base, q []float64, omc, half float64)

//go:noescape
func relax3x4(di, dj, si, sj, t, base, q []float64, omc, half, sixth float64)

//go:noescape
func eq0x4(f, t, base []float64)

//go:noescape
func eq2x4(fi, fj, t, base, q []float64, half float64)

//go:noescape
func eq3x4(fi, fj, t, base, q []float64, half, sixth float64)

//go:noescape
func trt0x4(d, s, t, base []float64, wp float64)

//go:noescape
func trt2x4(di, dj, si, sj, t, base, q []float64, half, wp, wm float64)

//go:noescape
func trt3x4(di, dj, si, sj, t, base, q []float64, half, sixth, wp, wm float64)

func sumAVX2(acc, s []float64) {
	n := len(acc) &^ 3
	if n < len(acc) {
		sumRow(acc[n:], s[n:])
	}
	sumx4(acc[:n], s[:n])
}

func moments1AVX2(rho, ja, si, sj []float64, ca float64) {
	n := len(rho) &^ 3
	if n < len(rho) {
		moments1(rho[n:], ja[n:], si[n:], sj[n:], ca)
	}
	moments1x4(rho[:n], ja[:n], si[:n], sj[:n], ca)
}

func moments2AVX2(rho, ja, jb, si, sj []float64, ca, cb float64) {
	n := len(rho) &^ 3
	if n < len(rho) {
		moments2(rho[n:], ja[n:], jb[n:], si[n:], sj[n:], ca, cb)
	}
	moments2x4(rho[:n], ja[:n], jb[:n], si[:n], sj[:n], ca, cb)
}

func moments3AVX2(rho, ja, jb, jc, si, sj []float64, ca, cb, cc float64) {
	n := len(rho) &^ 3
	if n < len(rho) {
		moments3(rho[n:], ja[n:], jb[n:], jc[n:], si[n:], sj[n:], ca, cb, cc)
	}
	moments3x4(rho[:n], ja[:n], jb[:n], jc[:n], si[:n], sj[:n], ca, cb, cc)
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
