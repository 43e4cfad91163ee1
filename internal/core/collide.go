package core

// The collision arithmetic of the whole solver: every rung of the paper's
// ladder is one row kernel here, and every path — split, fused, AA — calls
// the one its rung and operator select. A row kernel relaxes one span of
// zn cells — the back-to-back rows the row body (gather.go) relaxes in one
// call — from per-velocity row views in[v] into out[v]
// (f ← f_adv − ω(f_adv − f_eq(ρ,u)), the structure of the paper's Fig. 4);
// the callers differ only in how they form the views:
//
//   - split: the row body's spans of fadv, in = out, relaxed where the
//     stream left them a block earlier (streamRows) — full rows dense,
//     fluid runs under sparse traversal;
//   - the gather sweep (gather.go): a span's upwind rows, gathered or
//     viewed in place → rows of the next state (fused, AA's odd sub-step)
//     or the worker's out rows (AA's even sub-step, which scatters them).
//
// Every kernel treats each z independently and reads a cell's in values
// before writing its out values, so a span may be any sub-interval of a
// row or any run of back-to-back rows, and in may alias out row-for-row. The kernels differ in loop order,
// specialization and arithmetic shape, never in the math.
//
// Operators other than BGK have kernels of their own: TRT runs the pair
// kernel's passes with one fused equilibrium-and-relax primitive per pair
// (relaxTRT), MRT its Q×Q RowRelaxer over feq rows (relaxOpRows).

import (
	"repro/internal/collision"
	"repro/internal/grid"
	"repro/internal/lattice"
)

// testPlainStores, when set by a test in this package, keeps the SIMD
// rung's two-field sweep on simdRows: the ordinary stores that
// simdStreamRows replaces, for benchmarks that price the difference.
var testPlainStores bool

// collider is the collision state the stepper embeds: the operator, the
// equilibrium coefficient tables, the forcing shift, and the row kernel
// chosen for the configuration.
type collider struct {
	model *lattice.Model
	op    collision.Operator // nil for the ladder's BGK kernels; workers relax through their scratch clone

	// The pair kernels' tables (CF and above, and the operator row kernels):
	// the opposite pairs, and per weight class the coefficient of ρ in a
	// pair's t row — ω·w_k where the kernel relaxes (BGK), w_k where it
	// writes equilibria for an operator — and w_k itself, the initial
	// condition's coefficient.
	pairs  []velPair
	mom    []momPair // the pairs as the moment pass reads them
	tw, wk []float64
	omc    float64 // 1 − ω
	// ½ and ⅙ as values: written as constants in a row loop they are
	// reloaded from memory on every iteration.
	half, sixth float64

	// The generic kernel's coefficients (DH, the reference rung): float
	// copies of the velocity components and the reciprocal speed-of-sound
	// powers of the expanded equilibrium polynomial.
	cx, cy, cz, w []float64
	invCs4h       float64 // 1/(2c_s⁴)
	thA           float64 // 1/(6c_s⁶)
	thB           float64 // 1/(2c_s⁴)

	invCs2  float64 // 1/c_s²
	invCs2h float64 // 1/(2c_s²)
	third   bool

	tau, omega float64
	omegaM     float64 // TRT's odd-sector rate ω⁻ (its ω⁺ is omega)
	// Velocity-shift forcing: equilibria are evaluated at u + τ_j·a, where
	// τ_j is the relaxation time the operator applies to momentum (τ for
	// BGK/MRT, τ⁻ for TRT) — that is what makes the injected momentum
	// exactly ρ·a per step for every operator.
	shiftX, shiftY, shiftZ float64

	// relax is the configuration's row kernel, bound once by init.
	relax func(sc *workerScratch, in, out [][]float64, zn int)
	// vec are the vector bodies of the pair passes' row primitives
	// (rows.go) on the SIMD rung where the host has them, else nil: the
	// passes call the Go bodies directly, which the compiler inlines.
	vec *rowOps
}

// init builds the collision state of cfg in place (relax binds to c, so a
// collider must not be copied afterwards) and makes the one kernel choice
// of the solver: rung and operator → row kernel.
func (c *collider) init(cfg *Config) error {
	m := cfg.Model
	*c = collider{
		model: m,
		half:  0.5, sixth: 1.0 / 6,
		cx: make([]float64, m.Q), cy: make([]float64, m.Q), cz: make([]float64, m.Q),
		w:       append([]float64(nil), m.W...),
		invCs4h: 1 / (2 * m.CsSq * m.CsSq),
		thA:     1 / (6 * m.CsSq * m.CsSq * m.CsSq),
		thB:     1 / (2 * m.CsSq * m.CsSq),
		invCs2:  1 / m.CsSq,
		invCs2h: 1 / (2 * m.CsSq),
		third:   m.Order >= 3,
		tau:     cfg.Tau, omega: 1 / cfg.Tau,
	}
	if cfg.Opt == OptSIMD {
		// On the two-field sweep out is the next field; under AA it is the
		// worker's scatter rows, which push reads straight back, or the
		// field itself in place: both keep ordinary stores.
		c.vec = simdRows
		if cfg.Stream != StreamAA && !testPlainStores {
			c.vec = simdStreamRows
		}
	}
	c.omc = 1 - c.omega
	for i := 0; i < m.Q; i++ {
		c.cx[i] = float64(m.Cx[i])
		c.cy[i] = float64(m.Cy[i])
		c.cz[i] = float64(m.Cz[i])
	}
	shiftTau := cfg.Tau
	if !cfg.Collision.IsBGK() {
		op, err := cfg.Collision.New(m, cfg.Tau)
		if err != nil {
			return err
		}
		c.op = op
		shiftTau = op.ShiftTau()
	}
	c.shiftX = shiftTau * cfg.Accel[0]
	c.shiftY = shiftTau * cfg.Accel[1]
	c.shiftZ = shiftTau * cfg.Accel[2]

	c.pairs, c.wk = velocityPairs(m)
	c.mom = momPairs(c.pairs)
	c.tw = append([]float64(nil), c.wk...)
	if c.op == nil {
		for k := range c.tw {
			c.tw[k] *= c.omega
		}
	}
	trt, isTRT := c.op.(interface{ OmegaMinus() float64 })
	_, rows := c.op.(collision.RowRelaxer)
	switch {
	case isTRT:
		c.omegaM = trt.OmegaMinus()
		c.relax = c.relaxTRT
	case rows:
		c.relax = c.relaxOpRows
	case cfg.Opt <= OptGC:
		c.relax = c.relaxNaive
	case cfg.Opt == OptDH:
		c.relax = c.relaxGeneric
	default: // CF and every rung above, SIMD included
		c.relax = c.relaxPaired
	}
	return nil
}

// velPair is a velocity and its opposite as the pair kernels see them:
// the axes the pair moves along and its components on them — i is the
// member whose first non-zero component is positive — and its weight
// class. The rest velocity pairs with itself and moves along no axis.
type velPair struct {
	i, j int        // j = Opp[i]; i == j for the rest velocity
	n    int        // axes moved along: 0 (rest) to 3
	ax   [3]int     // their indices, ascending; the first n are valid
	c    [3]float64 // velocity i's components on them; c[0] > 0
	k    int        // weight class: index into the weights velocityPairs returns
}

// velocityPairs tabulates m's opposite pairs and its distinct weights in
// order of first use.
func velocityPairs(m *lattice.Model) (ps []velPair, weights []float64) {
	for i := 0; i < m.Q; i++ {
		p := velPair{i: i, j: m.Opp[i]}
		for a, ca := range [3]int{m.Cx[i], m.Cy[i], m.Cz[i]} {
			if ca != 0 {
				p.ax[p.n], p.c[p.n] = a, float64(ca)
				p.n++
			}
		}
		if p.c[0] < 0 {
			continue // the pair is tabulated at its other member
		}
		for p.k < len(weights) && weights[p.k] != m.W[i] {
			p.k++
		}
		if p.k == len(weights) {
			weights = append(weights, m.W[i])
		}
		ps = append(ps, p)
	}
	return ps, weights
}

// rowBufs are the scratch rows of the row kernels, allocated once per
// worker (workerScratch) at its span capacity, max(NZ, spanCells), and
// re-sliced to each call's span length.
type rowBufs struct {
	rho []float64
	// Per axis: the momentum j_a as the moment pass accumulates it, which
	// the pair kernels finish in place into q_a = u_a/c_s².
	j [3][]float64

	u  [3][]float64 // generic kernel: velocity
	u2 []float64    // generic kernel: |u|²

	base []float64   // pair kernels: 1 − u²/(2c_s²)
	q    []float64   // pair kernels: a pair's q = Σ c_a·q_a where it is not an axis's own row (pairQ)
	t    [][]float64 // pair kernels: per weight class, tw_k·ρ

	// ahead is the span's prefetch table for the moment pass (capacity Q):
	// per velocity, where its upwind row continues one span further on.
	// The row body fills it on the SIMD sweep's dense spans (gather.go)
	// and leaves it empty everywhere else.
	ahead []uintptr
}

// newRowBufs allocates the rows for a lattice of q velocities, which has
// at most (q+1)/2 pairs and so at most that many weight classes.
func newRowBufs(nz, q int) rowBufs {
	row := func() []float64 { return make([]float64, nz) }
	b := rowBufs{
		rho: row(), j: [3][]float64{row(), row(), row()},
		u: [3][]float64{row(), row(), row()}, u2: row(),
		base: row(), q: row(), t: make([][]float64, (q+1)/2),
		ahead: make([]uintptr, 0, q),
	}
	for k := range b.t {
		b.t[k] = row()
	}
	return b
}

// rowViews points the slice headers hdr at the cells [base, base+zn) — a
// run or a span — of every velocity block of the SoA field f.
func rowViews(hdr [][]float64, f *grid.Field, base, zn int) [][]float64 {
	for v := range hdr {
		hdr[v] = f.V(v)[base : base+zn]
	}
	return hdr
}

// relaxNaive is the unoptimized kernel (Orig, GC): per-cell velocity
// gather, divisions by ρ and τ, and equilibria computed by method calls
// (paper Fig. 4 before any tuning).
func (c *collider) relaxNaive(sc *workerScratch, in, out [][]float64, zn int) {
	m := c.model
	fc := sc.fc
	for z := 0; z < zn; z++ {
		for v := range fc {
			fc[v] = in[v][z]
		}
		rho, jx, jy, jz := m.Moments(fc)
		ux := jx/rho + c.shiftX
		uy := jy/rho + c.shiftY
		uz := jz/rho + c.shiftZ
		for v := range fc {
			feq := m.EquilibriumAt(v, rho, ux, uy, uz)
			out[v][z] = fc[v] - (fc[v]-feq)/c.tau
		}
	}
}

// relaxGeneric is the data-handling kernel (DH, §V.B): moments accumulated
// one velocity row at a time in memory order (maximizing cache reuse of
// the contiguous SoA blocks), divisions replaced by one reciprocal per
// cell, equilibria inlined. Still a generic velocity loop over the
// expanded polynomial — the reference the pair kernels are tested against.
func (c *collider) relaxGeneric(sc *workerScratch, in, out [][]float64, zn int) {
	b := &sc.rb
	rho, jx, jy, jz := b.rho[:zn], b.j[0][:zn], b.j[1][:zn], b.j[2][:zn]
	for z := 0; z < zn; z++ {
		rho[z], jx[z], jy[z], jz[z] = 0, 0, 0, 0
	}
	for v, sv := range in {
		sv = sv[:zn]
		cx, cy, cz := c.cx[v], c.cy[v], c.cz[v]
		for z, val := range sv {
			rho[z] += val
			jx[z] += cx * val
			jy[z] += cy * val
			jz[z] += cz * val
		}
	}
	ux, uy, uz, u2 := b.u[0][:zn], b.u[1][:zn], b.u[2][:zn], b.u2[:zn]
	for z := 0; z < zn; z++ {
		inv := 1 / rho[z]
		ux[z] = jx[z]*inv + c.shiftX
		uy[z] = jy[z]*inv + c.shiftY
		uz[z] = jz[z]*inv + c.shiftZ
		u2[z] = ux[z]*ux[z] + uy[z]*uy[z] + uz[z]*uz[z]
	}
	omega := c.omega
	invCs2, invCs4h, invCs2h, third, thA, thB := c.invCs2, c.invCs4h, c.invCs2h, c.third, c.thA, c.thB
	for v, sv := range in {
		sv = sv[:zn]
		dv := out[v][:zn]
		cx, cy, cz, w := c.cx[v], c.cy[v], c.cz[v], c.w[v]
		for z := 0; z < zn; z++ {
			cu := cx*ux[z] + cy*uy[z] + cz*uz[z]
			e := 1 + cu*invCs2 + cu*cu*invCs4h - u2[z]*invCs2h
			if third {
				e += cu*cu*cu*thA - cu*u2[z]*thB
			}
			feq := w * rho[z] * e
			dv[z] = sv[z] - omega*(sv[z]-feq)
		}
	}
}

// The pair kernels (CF and above §V.C/§V.G, and the operator row kernels)
// process velocities as opposite pairs. With q_a = u_a/c_s², q = Σ c_a·q_a
// over the axes a pair moves along and base = 1 − u²/(2c_s²), the
// equilibria of the pair are w·ρ·(even ± odd):
//
//	even = base + q²/2
//	odd  = q                 (order 2)
//	odd  = q·(base + q²/6)   (order 3)
//
// — the order-3 form is q + q³/6 − q·u²/(2c_s²), the Hermite polynomial's
// cu/c_s² + cu³/(6c_s⁶) − cu·u²/(2c_s⁴), exactly. Three passes: pairMoments
// accumulates ρ and j over every pair, velocities finishes the rows every
// pair shares once per cell, and the pair loops spend one polynomial and
// one multiply by the pair's t row per two velocities.

// rowsFor returns the vector bodies tab for a run of zn cells, or nil
// where the run is to take the Go bodies: where tab is nil (every rung but
// SIMD steps on the Go bodies, and a host without vector bodies has none),
// and on runs shorter than one 4-wide vector, which the vector bodies
// would only hand on to the Go bodies. The pair passes below take the
// table it returns.
func rowsFor(tab *rowOps, zn int) *rowOps {
	if zn < 4 {
		return nil
	}
	return tab
}

// pairMoments accumulates a run's density and momentum rows from
// opposite-pair sums and differences: a pair adds its sum to ρ and its
// difference, times its component, to the momentum rows of the axes it
// moves along only: given vector bodies r (rowsFor) one body for every
// pair, which reads each row once and, given an ahead table
// (rowBufs.ahead), prefetches the next span's rows as it goes; without,
// the Go per-pair passes (momentRows), which take no ahead table.
func (c *collider) pairMoments(r *rowOps, b *rowBufs, in [][]float64, ahead []uintptr, zn int) {
	if r != nil {
		r.moments(b.rho[:zn], b.j[0], b.j[1], b.j[2], in, c.mom, ahead)
	} else {
		momentRows(b.rho[:zn], b.j[0], b.j[1], b.j[2], in, c.mom, 0)
	}
}

// velocities finishes a run's accumulated moments into the rows the pair
// loops share: the momentum rows become q_a in place (one reciprocal per
// cell, the forcing shift added to u), base, and per weight class
// t_k = tw_k·ρ.
func (c *collider) velocities(r *rowOps, b *rowBufs, zn int) {
	if r != nil {
		r.velocity(b.rho[:zn], b.j[0], b.j[1], b.j[2], b.base, c.shiftX, c.shiftY, c.shiftZ, c.invCs2, c.invCs2h)
	} else {
		velocityRows(b.rho[:zn], b.j[0], b.j[1], b.j[2], b.base, c.shiftX, c.shiftY, c.shiftZ, c.invCs2, c.invCs2h)
	}
	c.weighRows(r, b, c.tw, zn)
}

// weighRows forms a run's t rows from its ρ row: t_k = w[k]·ρ per weight
// class.
func (c *collider) weighRows(r *rowOps, b *rowBufs, w []float64, zn int) {
	for k, wk := range w {
		if r != nil {
			r.scale(b.t[k][:zn], b.rho, wk)
		} else {
			scaleRow(b.t[k][:zn], b.rho, wk)
		}
	}
}

// pairQ returns p's row q = Σ c_a·q_a over a run: the axis's own q row
// for a unit one-axis pair, else formed in the worker's q row.
func (c *collider) pairQ(r *rowOps, b *rowBufs, p *velPair, zn int) []float64 {
	qa, qb, qc := b.j[p.ax[0]], b.j[p.ax[1]], b.j[p.ax[2]]
	q := b.q[:zn]
	switch {
	case p.n == 1 && p.c[0] == 1:
		return qa[:zn]
	case p.n == 1:
		if r != nil {
			r.scale(q, qa, p.c[0])
		} else {
			scaleRow(q, qa, p.c[0])
		}
	case p.n == 2:
		if r != nil {
			r.comb2(q, qa, qb, p.c[0], p.c[1])
		} else {
			comb2(q, qa, qb, p.c[0], p.c[1])
		}
	default:
		if r != nil {
			r.comb3(q, qa, qb, qc, p.c[0], p.c[1], p.c[2])
		} else {
			comb3(q, qa, qb, qc, p.c[0], p.c[1], p.c[2])
		}
	}
	return q
}

// relaxPaired is the specialized kernel (CF and above): per pair,
// out = (1−ω)·f + t·(even ± odd) with t = ω·w·ρ. On a table with a fence
// (simdStreamRows) it ends with the fence, so that its streaming stores
// are globally visible when it returns; relaxTRT does the same.
func (c *collider) relaxPaired(sc *workerScratch, in, out [][]float64, zn int) {
	b, r := &sc.rb, rowsFor(c.vec, zn)
	c.pairMoments(r, b, in, b.ahead, zn)
	c.velocities(r, b, zn)
	for i := range c.pairs {
		p := &c.pairs[i]
		t, di := b.t[p.k], out[p.i][:zn]
		switch {
		case p.n == 0:
			if r != nil {
				r.relax0(di, in[p.i], t, b.base, c.omc)
			} else {
				relax0(di, in[p.i], t, b.base, c.omc)
			}
		case c.third:
			if r != nil {
				r.relax3(di, out[p.j], in[p.i], in[p.j], t, b.base, c.pairQ(r, b, p, zn), c.omc, c.half, c.sixth)
			} else {
				relax3(di, out[p.j], in[p.i], in[p.j], t, b.base, c.pairQ(r, b, p, zn), c.omc, c.half, c.sixth)
			}
		default:
			if r != nil {
				r.relax2(di, out[p.j], in[p.i], in[p.j], t, b.base, c.pairQ(r, b, p, zn), c.omc, c.half)
			} else {
				relax2(di, out[p.j], in[p.i], in[p.j], t, b.base, c.pairQ(r, b, p, zn), c.omc, c.half)
			}
		}
	}
	if r != nil && r.fence != nil {
		r.fence()
	}
}

// relaxTRT is TRT's row kernel: the same moment passes with t = w·ρ, then
// per pair one fused primitive that forms the pair's equilibria
// t·(even ± odd) in registers and relaxes the pair's even part at ω⁺ = ω
// and its odd part at ω⁻ — collision.(*trtOp).RelaxRows' arithmetic, bit
// for bit, with no feq row written. The pair table is oriented as the
// operator's (i < j on every lattice package lattice defines), so even the
// signs of zero agree.
func (c *collider) relaxTRT(sc *workerScratch, in, out [][]float64, zn int) {
	b, r := &sc.rb, rowsFor(c.vec, zn)
	c.pairMoments(r, b, in, b.ahead, zn)
	c.velocities(r, b, zn)
	for i := range c.pairs {
		p := &c.pairs[i]
		t, di := b.t[p.k], out[p.i][:zn]
		switch {
		case p.n == 0:
			if r != nil {
				r.trt0(di, in[p.i], t, b.base, c.omega)
			} else {
				trt0(di, in[p.i], t, b.base, c.omega)
			}
		case c.third:
			if r != nil {
				r.trt3(di, out[p.j], in[p.i], in[p.j], t, b.base, c.pairQ(r, b, p, zn), c.half, c.sixth, c.omega, c.omegaM)
			} else {
				trt3(di, out[p.j], in[p.i], in[p.j], t, b.base, c.pairQ(r, b, p, zn), c.half, c.sixth, c.omega, c.omegaM)
			}
		default:
			if r != nil {
				r.trt2(di, out[p.j], in[p.i], in[p.j], t, b.base, c.pairQ(r, b, p, zn), c.half, c.omega, c.omegaM)
			} else {
				trt2(di, out[p.j], in[p.i], in[p.j], t, b.base, c.pairQ(r, b, p, zn), c.half, c.omega, c.omegaM)
			}
		}
	}
	if r != nil && r.fence != nil {
		r.fence()
	}
}

// relaxOpRows is the row kernel of MRT, the operator with a row form
// (collision.RowRelaxer) but no pair kernel of its own: the same moment
// passes with t = w·ρ, the equilibria of the whole run t·(even ± odd) into
// the worker's feq rows, then one RelaxRows call on the worker's private
// operator clone.
func (c *collider) relaxOpRows(sc *workerScratch, in, out [][]float64, zn int) {
	b, r := &sc.rb, rowsFor(c.vec, zn)
	c.pairMoments(r, b, in, b.ahead, zn)
	c.velocities(r, b, zn)
	feq := sc.rows(zn)
	c.eqRows(r, b, feq, zn)
	sc.op.(collision.RowRelaxer).RelaxRows(out, in, feq, zn)
}

// eqRows writes the equilibria t·(even ± odd) of a run whose shared rows —
// base, q_a over the momentum rows, t_k per weight class — are finished
// into the rows feq. It is the pair loop of MRT's kernel and of the
// initial condition (initRows) alike, and TRT's primitives form theirs
// with the same operations, so every equilibrium the solver uses comes
// out of pairEq.
func (c *collider) eqRows(r *rowOps, b *rowBufs, feq [][]float64, zn int) {
	for i := range c.pairs {
		p := &c.pairs[i]
		t, fi := b.t[p.k], feq[p.i][:zn]
		switch {
		case p.n == 0:
			if r != nil {
				r.eq0(fi, t, b.base)
			} else {
				eq0(fi, t, b.base)
			}
		case c.third:
			if r != nil {
				r.eq3(fi, feq[p.j], t, b.base, c.pairQ(r, b, p, zn), c.half, c.sixth)
			} else {
				eq3(fi, feq[p.j], t, b.base, c.pairQ(r, b, p, zn), c.half, c.sixth)
			}
		default:
			if r != nil {
				r.eq2(fi, feq[p.j], t, b.base, c.pairQ(r, b, p, zn), c.half)
			} else {
				eq2(fi, feq[p.j], t, b.base, c.pairQ(r, b, p, zn), c.half)
			}
		}
	}
}
