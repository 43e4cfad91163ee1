package core

// The pair kernels' row primitives: every loop of the pair passes
// (collide.go) is one of these elementwise operations over a run's rows —
// the moment pass (moments: per pair sumRow or moments1–3), the shared
// rows (velocity, scale), a pair's q (comb2, comb3), and per pair one
// relax: BGK's relax0/2/3, TRT's trt0/2/3, which fuse the pair's
// equilibria with its even/odd relaxation, or the bare equilibria eq0/2/3
// (MRT's feq rows and the initial field).
// Each has one Go body here — the reference, and what every rung but SIMD
// steps on, called directly so that the compiler inlines the small ones —
// and the SIMD rung calls a vector body per primitive instead where the
// host has one (rows_amd64.go). Set-up, which is no rung of the paper's
// ladder, takes the vector bodies on every rung (initRows, ownedSums). A
// vector body does each lane's IEEE operations in its Go body's order and
// association and never fuses a multiply-add, so every result it stores
// has the Go body's bits.
//
// A primitive's run is its first row: every other row must be at least as
// long and only its first len(first) values are read or written. Rows may
// alias where a caller passes them so — an output row as the input it
// replaces (relaxing in place) — because each z reads its inputs before it
// writes.

// rowOps is a table of vector bodies, one per primitive, each with its
// Go body's signature (moments: momentRows from the run's first cell, plus
// ahead: where not empty, per velocity the address its row will be read
// from one span further on, which the body may prefetch — a prefetch
// changes no value — and the Go body ignores).
type rowOps struct {
	moments  func(rho, jx, jy, jz []float64, in [][]float64, tab []momPair, ahead []uintptr) // ρ and j from every pair of tab
	velocity func(rho, qx, qy, qz, base []float64, sx, sy, sz, invCs2, invCs2h float64)
	scale    func(dst, src []float64, a float64)               // dst = a·src
	comb2    func(q, qa, qb []float64, ca, cb float64)         // q = ca·qa + cb·qb
	comb3    func(q, qa, qb, qc []float64, ca, cb, cc float64) // … + cc·qc
	relax0   func(d, s, t, base []float64, omc float64)        // the rest velocity: d = (1−ω)·s + t·base
	relax2   func(di, dj, si, sj, t, base, q []float64, omc, half float64)
	relax3   func(di, dj, si, sj, t, base, q []float64, omc, half, sixth float64)
	eq0      func(f, t, base []float64) // the rest velocity: f = t·base
	eq2      func(fi, fj, t, base, q []float64, half float64)
	eq3      func(fi, fj, t, base, q []float64, half, sixth float64)
	trt0     func(d, s, t, base []float64, wp float64) // the rest velocity: d = s − ω⁺·(s − t·base)
	trt2     func(di, dj, si, sj, t, base, q []float64, half, wp, wm float64)
	trt3     func(di, dj, si, sj, t, base, q []float64, half, sixth, wp, wm float64)
	// fence, where set, is the barrier a row kernel calls after its last
	// primitive: the table's bodies store with weakly ordered streaming
	// stores, and fence makes them globally visible.
	fence func()
}

// rowTable is one width of vector bodies: rows stores with ordinary
// stores; stream is the same table but for the six relax primitives
// (relax0/2/3, trt0/2/3), which write with streaming stores, and its fence —
// the table for a kernel whose out rows are the next field, stored once and
// not read again before the fields swap.
type rowTable struct {
	name         string // the instruction set: "avx512" or "avx2"
	rows, stream *rowOps
}

// rowTables are the vector tables this build and host run, widest first;
// none where there are no vector bodies.
var rowTables []rowTable

// testAVX2, when set by a test in this package, binds the narrowest table
// (the AVX2 bodies) where the host has a wider one, so that the sweep-level
// tests cover both.
var testAVX2 bool

// simdTable is the table the SIMD rung and set-up bind: the widest, its
// name "go" and its tables nil where there is none.
func simdTable() rowTable {
	switch {
	case len(rowTables) == 0:
		return rowTable{name: "go"}
	case testAVX2:
		return rowTables[len(rowTables)-1]
	}
	return rowTables[0]
}

// VectorBodies names the row bodies the SIMD rung runs on this host and
// build: "avx512", "avx2" or "go".
func VectorBodies() string { return simdTable().name }

// momPair is an opposite pair as the moment pass reads it (momPairs): its
// rows of in, the axes it moves along as the bits of mask (bit a for axis
// a; none for the rest velocity, whose row is its sum) and its component
// on each. The vector bodies read it by offset: i 0, j 8, mask 16, c 24–40.
type momPair struct {
	i, j int
	mask int
	c    [3]float64 // 0 on an axis the pair does not move along
}

// momPairs tabulates the pairs ps for the moment pass, in their order.
func momPairs(ps []velPair) []momPair {
	tab := make([]momPair, len(ps))
	for k, p := range ps {
		tab[k] = momPair{i: p.i, j: p.j}
		for n := 0; n < p.n; n++ {
			tab[k].mask |= 1 << p.ax[n]
			tab[k].c[p.ax[n]] = p.c[n]
		}
	}
	return tab
}

// momentRows is the moment pass over the cells [from, len(rho)) of a run:
// ρ and j zeroed, then per pair of tab in order its sum added to ρ and
// its difference, times its component, to the momentum rows of the axes
// it moves along only.
func momentRows(rho, jx, jy, jz []float64, in [][]float64, tab []momPair, from int) {
	n := len(rho)
	rho, j := rho[from:], [3][]float64{jx[from:n], jy[from:n], jz[from:n]}
	clear(rho)
	for _, ja := range j {
		clear(ja)
	}
	for _, p := range tab {
		si, sj := in[p.i][from:], in[p.j][from:]
		ja, ca, k := [3][]float64{}, [3]float64{}, 0
		for a := range j {
			if p.mask&(1<<a) != 0 {
				ja[k], ca[k] = j[a], p.c[a]
				k++
			}
		}
		switch k {
		case 0:
			sumRow(rho, si)
		case 1:
			moments1(rho, ja[0], si, sj, ca[0])
		case 2:
			moments2(rho, ja[0], ja[1], si, sj, ca[0], ca[1])
		default:
			moments3(rho, ja[0], ja[1], ja[2], si, sj, ca[0], ca[1], ca[2])
		}
	}
}

func sumRow(acc, s []float64) {
	s = s[:len(acc)]
	for z := range acc {
		acc[z] += s[z]
	}
}

func moments1(rho, ja, si, sj []float64, ca float64) {
	n := len(rho)
	ja, si, sj = ja[:n], si[:n], sj[:n]
	for z := range rho {
		vi, vj := si[z], sj[z]
		rho[z] += vi + vj
		ja[z] += ca * (vi - vj)
	}
}

func moments2(rho, ja, jb, si, sj []float64, ca, cb float64) {
	n := len(rho)
	ja, jb, si, sj = ja[:n], jb[:n], si[:n], sj[:n]
	for z := range rho {
		vi, vj := si[z], sj[z]
		rho[z] += vi + vj
		diff := vi - vj
		ja[z] += ca * diff
		jb[z] += cb * diff
	}
}

func moments3(rho, ja, jb, jc, si, sj []float64, ca, cb, cc float64) {
	n := len(rho)
	ja, jb, jc, si, sj = ja[:n], jb[:n], jc[:n], si[:n], sj[:n]
	for z := range rho {
		vi, vj := si[z], sj[z]
		rho[z] += vi + vj
		diff := vi - vj
		ja[z] += ca * diff
		jb[z] += cb * diff
		jc[z] += cc * diff
	}
}

// velocityRows turns accumulated ρ and momentum rows into q_a = u_a/c_s²
// in place (u = j/ρ + shift) and base = 1 − u²/(2c_s²).
func velocityRows(rho, qx, qy, qz, base []float64, sx, sy, sz, invCs2, invCs2h float64) {
	n := len(rho)
	qx, qy, qz, base = qx[:n], qy[:n], qz[:n], base[:n]
	for z := range rho {
		inv := 1 / rho[z]
		ux, uy, uz := qx[z]*inv+sx, qy[z]*inv+sy, qz[z]*inv+sz
		base[z] = 1 - (ux*ux+uy*uy+uz*uz)*invCs2h
		qx[z], qy[z], qz[z] = ux*invCs2, uy*invCs2, uz*invCs2
	}
}

func scaleRow(dst, src []float64, a float64) {
	src = src[:len(dst)]
	for z := range dst {
		dst[z] = a * src[z]
	}
}

func comb2(q, qa, qb []float64, ca, cb float64) {
	n := len(q)
	qa, qb = qa[:n], qb[:n]
	for z := range q {
		q[z] = ca*qa[z] + cb*qb[z]
	}
}

func comb3(q, qa, qb, qc []float64, ca, cb, cc float64) {
	n := len(q)
	qa, qb, qc = qa[:n], qb[:n], qc[:n]
	for z := range q {
		q[z] = ca*qa[z] + cb*qb[z] + cc*qc[z]
	}
}

// pairEq is the pair kernels' equilibrium polynomial, written once and
// inlined into every pair loop with third a constant.
func pairEq(third bool, base, q, half, sixth float64) (even, odd float64) {
	q2 := q * q
	even = base + q2*half
	if third {
		return even, q * (base + q2*sixth)
	}
	return even, q
}

func relax0(d, s, t, base []float64, omc float64) {
	n := len(d)
	s, t, base = s[:n], t[:n], base[:n]
	for z := range d {
		d[z] = omc*s[z] + t[z]*base[z]
	}
}

func relax2(di, dj, si, sj, t, base, q []float64, omc, half float64) {
	n := len(di)
	dj, si, sj, t, base, q = dj[:n], si[:n], sj[:n], t[:n], base[:n], q[:n]
	for z := range di {
		even, odd := pairEq(false, base[z], q[z], half, 0)
		di[z] = omc*si[z] + t[z]*(even+odd)
		dj[z] = omc*sj[z] + t[z]*(even-odd)
	}
}

func relax3(di, dj, si, sj, t, base, q []float64, omc, half, sixth float64) {
	n := len(di)
	dj, si, sj, t, base, q = dj[:n], si[:n], sj[:n], t[:n], base[:n], q[:n]
	for z := range di {
		even, odd := pairEq(true, base[z], q[z], half, sixth)
		di[z] = omc*si[z] + t[z]*(even+odd)
		dj[z] = omc*sj[z] + t[z]*(even-odd)
	}
}

func eq0(f, t, base []float64) {
	n := len(f)
	t, base = t[:n], base[:n]
	for z := range f {
		f[z] = t[z] * base[z]
	}
}

func eq2(fi, fj, t, base, q []float64, half float64) {
	n := len(fi)
	fj, t, base, q = fj[:n], t[:n], base[:n], q[:n]
	for z := range fi {
		even, odd := pairEq(false, base[z], q[z], half, 0)
		fi[z], fj[z] = t[z]*(even+odd), t[z]*(even-odd)
	}
}

func eq3(fi, fj, t, base, q []float64, half, sixth float64) {
	n := len(fi)
	fj, t, base, q = fj[:n], t[:n], base[:n], q[:n]
	for z := range fi {
		even, odd := pairEq(true, base[z], q[z], half, sixth)
		fi[z], fj[z] = t[z]*(even+odd), t[z]*(even-odd)
	}
}

// The TRT primitives relax a pair at ω⁺ = wp (even part) and ω⁻ = wm (odd
// part) against its equilibria t·(even ± odd), formed in registers: the
// IEEE operations of eq0/eq2/eq3 followed by those of
// collision.(*trtOp).RelaxRows, in the same association, so a row relaxed
// here has the bits of eqRows + RelaxRows without the feq rows between
// them. The float64 conversions keep each equilibrium rounded on its own,
// as the stored feq row was, on back ends that fuse a multiply-add.

func trt0(d, s, t, base []float64, wp float64) {
	n := len(d)
	s, t, base = s[:n], t[:n], base[:n]
	for z := range d {
		v, e := s[z], float64(t[z]*base[z])
		d[z] = v - wp*(v-e)
	}
}

// trtPair is RelaxRows' arithmetic for one cell of a pair (vi, vj) with
// equilibria (ei, ej); half is ½, its constant 0.5.
func trtPair(vi, vj, ei, ej, half, wp, wm float64) (di, dj float64) {
	dP := wp * (half * ((vi + vj) - (ei + ej)))
	dM := wm * (half * ((vi - vj) - (ei - ej)))
	return vi - (dP + dM), vj - (dP - dM)
}

func trt2(di, dj, si, sj, t, base, q []float64, half, wp, wm float64) {
	n := len(di)
	dj, si, sj, t, base, q = dj[:n], si[:n], sj[:n], t[:n], base[:n], q[:n]
	for z := range di {
		even, odd := pairEq(false, base[z], q[z], half, 0)
		ei, ej := float64(t[z]*(even+odd)), float64(t[z]*(even-odd))
		di[z], dj[z] = trtPair(si[z], sj[z], ei, ej, half, wp, wm)
	}
}

func trt3(di, dj, si, sj, t, base, q []float64, half, sixth, wp, wm float64) {
	n := len(di)
	dj, si, sj, t, base, q = dj[:n], si[:n], sj[:n], t[:n], base[:n], q[:n]
	for z := range di {
		even, odd := pairEq(true, base[z], q[z], half, sixth)
		ei, ej := float64(t[z]*(even+odd)), float64(t[z]*(even-odd))
		di[z], dj[z] = trtPair(si[z], sj[z], ei, ej, half, wp, wm)
	}
}
