package core

// The collision arithmetic of the whole solver: every rung of the paper's
// ladder is one row kernel here, and every path — split, fused, AA — calls
// the one its rung and operator select. A row kernel relaxes one
// z-run of zn cells from per-velocity row views in[v] into out[v]
// (f ← f_adv − ω(f_adv − f_eq(ρ,u)), the structure of the paper's Fig. 4);
// the callers differ only in how they form the views:
//
//   - split: forRuns z-runs of fadv, in = out, relaxed where the stream
//     left them — full rows dense, fluid runs under sparse traversal (AoS
//     gathers and scatters through the worker's scratch rows — Orig/GC
//     layout ablation only);
//   - the gather sweep (gather.go): the worker's gathered rows → rows of
//     the next state (fused, AA's odd sub-step) or the worker's out rows
//     (AA's even sub-step, which scatters them).
//
// Every kernel treats each z independently and reads a cell's in values
// before writing its out values, so a run may be any sub-interval of a row
// and in may alias out row-for-row. The kernels differ in loop order,
// specialization and arithmetic shape, never in the math.

import (
	"repro/internal/collision"
	"repro/internal/grid"
	"repro/internal/lattice"
)

// testForceOperatorPath, when set by a test in this package, routes BGK
// configurations through the per-cell operator kernel instead of the
// ladder's BGK kernels (the equivalence guard for the indirection).
var testForceOperatorPath bool

// collider is the collision state the stepper embeds: the operator, the
// equilibrium coefficient tables, the forcing shift, and the row kernel
// chosen for the configuration.
type collider struct {
	model *lattice.Model
	op    collision.Operator // nil for the ladder's BGK kernels; workers relax through their scratch clone
	pairs []velPair

	// Equilibrium coefficients: reciprocal speed-of-sound powers and float
	// copies of the velocity components (the "CF" specialization — what
	// -O5/-qipa did for the paper's C code).
	cx, cy, cz, w []float64
	invCs2        float64 // 1/c_s²
	invCs4h       float64 // 1/(2c_s⁴)
	invCs2h       float64 // 1/(2c_s²)
	third         bool
	thA           float64 // 1/(6c_s⁶)
	thB           float64 // 1/(2c_s⁴)

	tau, omega float64
	// Velocity-shift forcing: equilibria are evaluated at u + τ_j·a, where
	// τ_j is the relaxation time the operator applies to momentum (τ for
	// BGK/MRT, τ⁻ for TRT) — that is what makes the injected momentum
	// exactly ρ·a per step for every operator.
	shiftX, shiftY, shiftZ float64

	// relax is the configuration's row kernel, bound once by init.
	relax func(sc *workerScratch, in, out [][]float64, zn int)
}

// init builds the collision state of cfg in place (relax binds to c, so a
// collider must not be copied afterwards) and makes the one kernel choice
// of the solver: rung and operator → row kernel.
func (c *collider) init(cfg *Config) error {
	m := cfg.Model
	*c = collider{
		model: m, pairs: velocityPairs(m),
		cx: make([]float64, m.Q), cy: make([]float64, m.Q), cz: make([]float64, m.Q),
		w:       append([]float64(nil), m.W...),
		invCs2:  1 / m.CsSq,
		invCs4h: 1 / (2 * m.CsSq * m.CsSq),
		invCs2h: 1 / (2 * m.CsSq),
		third:   m.Order >= 3,
		thA:     1 / (6 * m.CsSq * m.CsSq * m.CsSq),
		thB:     1 / (2 * m.CsSq * m.CsSq),
		tau:     cfg.Tau, omega: 1 / cfg.Tau,
	}
	for i := 0; i < m.Q; i++ {
		c.cx[i] = float64(m.Cx[i])
		c.cy[i] = float64(m.Cy[i])
		c.cz[i] = float64(m.Cz[i])
	}
	shiftTau := cfg.Tau
	if !cfg.Collision.IsBGK() || testForceOperatorPath {
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

	_, rows := c.op.(collision.RowRelaxer)
	switch {
	case rows:
		c.relax = c.relaxOpRows
	case c.op != nil:
		c.relax = c.relaxOpCell
	case cfg.Opt <= OptGC:
		c.relax = c.relaxNaive
	case cfg.Opt == OptDH:
		c.relax = c.relaxGeneric
	default: // CF and every rung above, SIMD included
		c.relax = c.relaxPaired
	}
	return nil
}

// velPair groups a velocity with its opposite for the pair-symmetric
// kernels; rest velocities pair with themselves.
type velPair struct {
	i, j int // j = Opp[i]; i == j for the rest velocity
}

func velocityPairs(m *lattice.Model) []velPair {
	var ps []velPair
	for i := 0; i < m.Q; i++ {
		if j := m.Opp[i]; i <= j {
			ps = append(ps, velPair{i, j})
		}
	}
	return ps
}

// rowBufs are the z-line accumulators of the row kernels, allocated once
// per worker (workerScratch) at the local field's NZ and re-sliced to each
// call's run length.
type rowBufs struct {
	rho, jx, jy, jz []float64
	ux, uy, uz, u2  []float64
}

func newRowBufs(nz int) rowBufs {
	return rowBufs{
		rho: make([]float64, nz), jx: make([]float64, nz), jy: make([]float64, nz), jz: make([]float64, nz),
		ux: make([]float64, nz), uy: make([]float64, nz), uz: make([]float64, nz), u2: make([]float64, nz),
	}
}

// rowViews points the slice headers hdr at the z-run [base, base+zn) of
// every velocity block of the SoA field f.
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

// velocities turns the accumulated moments of a run into the shifted
// equilibrium velocity and its square, divisions replaced by one
// reciprocal per cell.
func (c *collider) velocities(b *rowBufs, zn int) {
	rho, jx, jy, jz := b.rho[:zn], b.jx[:zn], b.jy[:zn], b.jz[:zn]
	ux, uy, uz, u2 := b.ux[:zn], b.uy[:zn], b.uz[:zn], b.u2[:zn]
	for z := 0; z < zn; z++ {
		inv := 1 / rho[z]
		ux[z] = jx[z]*inv + c.shiftX
		uy[z] = jy[z]*inv + c.shiftY
		uz[z] = jz[z]*inv + c.shiftZ
		u2[z] = ux[z]*ux[z] + uy[z]*uy[z] + uz[z]*uz[z]
	}
}

// relaxGeneric is the data-handling kernel (DH, §V.B): moments accumulated
// one velocity row at a time in memory order (maximizing cache reuse of
// the contiguous SoA blocks), reciprocals, equilibria inlined. Still a
// generic velocity loop.
func (c *collider) relaxGeneric(sc *workerScratch, in, out [][]float64, zn int) {
	b := &sc.rb
	rho, jx, jy, jz := b.rho[:zn], b.jx[:zn], b.jy[:zn], b.jz[:zn]
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
	c.velocities(b, zn)
	ux, uy, uz, u2 := b.ux[:zn], b.uy[:zn], b.uz[:zn], b.u2[:zn]
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

// pairMoments accumulates a run's moments as opposite-pair sums and
// differences (a pair contributes its sum to ρ and c·difference to the
// momentum; the rest velocity carries none) and finishes them into
// velocities.
func (c *collider) pairMoments(b *rowBufs, in [][]float64, zn int) {
	rho, jx, jy, jz := b.rho[:zn], b.jx[:zn], b.jy[:zn], b.jz[:zn]
	for z := 0; z < zn; z++ {
		rho[z], jx[z], jy[z], jz[z] = 0, 0, 0, 0
	}
	for _, p := range c.pairs {
		if p.i == p.j {
			for z, val := range in[p.i][:zn] {
				rho[z] += val
			}
			continue
		}
		si, sj := in[p.i][:zn], in[p.j][:zn]
		cx, cy, cz := c.cx[p.i], c.cy[p.i], c.cz[p.i]
		for z := 0; z < zn; z++ {
			vi, vj := si[z], sj[z]
			sum, diff := vi+vj, vi-vj
			rho[z] += sum
			jx[z] += cx * diff
			jy[z] += cy * diff
			jz[z] += cz * diff
		}
	}
	c.velocities(b, zn)
}

// relaxPaired is the specialized kernel (CF and above, §V.C/§V.G
// stand-in): velocities are processed as opposite pairs sharing the even
// part of the equilibrium (f_eq(+c) and f_eq(−c) differ only in the sign
// of the odd terms), with all coefficients precomputed and no method
// calls in the inner loops.
func (c *collider) relaxPaired(sc *workerScratch, in, out [][]float64, zn int) {
	b := &sc.rb
	c.pairMoments(b, in, zn)
	rho, ux, uy, uz, u2 := b.rho[:zn], b.ux[:zn], b.uy[:zn], b.uz[:zn], b.u2[:zn]
	omega := c.omega
	invCs2, invCs4h, invCs2h, third, thA, thB := c.invCs2, c.invCs4h, c.invCs2h, c.third, c.thA, c.thB
	for _, p := range c.pairs {
		if p.i == p.j {
			sv, dv := in[p.i][:zn], out[p.i][:zn]
			w := c.w[p.i]
			for z := 0; z < zn; z++ {
				feq := w * rho[z] * (1 - u2[z]*invCs2h)
				dv[z] = sv[z] - omega*(sv[z]-feq)
			}
			continue
		}
		si, sj := in[p.i][:zn], in[p.j][:zn]
		di, dj := out[p.i][:zn], out[p.j][:zn]
		cx, cy, cz, w := c.cx[p.i], c.cy[p.i], c.cz[p.i], c.w[p.i]
		for z := 0; z < zn; z++ {
			cu := cx*ux[z] + cy*uy[z] + cz*uz[z]
			cu2 := cu * cu
			even := 1 + cu2*invCs4h - u2[z]*invCs2h
			odd := cu * invCs2
			if third {
				odd += cu2*cu*thA - cu*u2[z]*thB
			}
			wr := w * rho[z]
			di[z] = si[z] - omega*(si[z]-wr*(even+odd))
			dj[z] = sj[z] - omega*(sj[z]-wr*(even-odd))
		}
	}
}

// relaxOpRows is the row kernel of operators with a row form
// (collision.RowRelaxer — TRT, MRT): the pair moment pass, then the
// equilibria of the whole run in the pair-symmetric form of relaxPaired
// into the worker's feq rows, then one RelaxRows call on the worker's
// private operator clone.
func (c *collider) relaxOpRows(sc *workerScratch, in, out [][]float64, zn int) {
	b := &sc.rb
	c.pairMoments(b, in, zn)
	rho, ux, uy, uz, u2 := b.rho[:zn], b.ux[:zn], b.uy[:zn], b.uz[:zn], b.u2[:zn]
	invCs2, invCs4h, invCs2h, third, thA, thB := c.invCs2, c.invCs4h, c.invCs2h, c.third, c.thA, c.thB
	feq := sc.rows(zn)
	for _, p := range c.pairs {
		if p.i == p.j {
			fv := feq[p.i][:zn]
			w := c.w[p.i]
			for z := 0; z < zn; z++ {
				fv[z] = w * rho[z] * (1 - u2[z]*invCs2h)
			}
			continue
		}
		fi, fj := feq[p.i][:zn], feq[p.j][:zn]
		cx, cy, cz, w := c.cx[p.i], c.cy[p.i], c.cz[p.i], c.w[p.i]
		for z := 0; z < zn; z++ {
			cu := cx*ux[z] + cy*uy[z] + cz*uz[z]
			cu2 := cu * cu
			even := 1 + cu2*invCs4h - u2[z]*invCs2h
			odd := cu * invCs2
			if third {
				odd += cu2*cu*thA - cu*u2[z]*thB
			}
			wr := w * rho[z]
			fi[z] = wr * (even + odd)
			fj[z] = wr * (even - odd)
		}
	}
	sc.op.(collision.RowRelaxer).RelaxRows(out, in, feq, zn)
}

// relaxOpCell is the per-cell fallback for operators without a row form:
// gather, Moments, one Relax on the worker's clone, scatter. The forced-
// operator BGK regression route stays on it deliberately — its arithmetic
// matches relaxNaive to 0 ULP.
func (c *collider) relaxOpCell(sc *workerScratch, in, out [][]float64, zn int) {
	m := c.model
	fc := sc.fc
	for z := 0; z < zn; z++ {
		for v := range fc {
			fc[v] = in[v][z]
		}
		rho, jx, jy, jz := m.Moments(fc)
		sc.op.Relax(fc, rho, jx/rho+c.shiftX, jy/rho+c.shiftY, jz/rho+c.shiftZ)
		for v := range fc {
			out[v][z] = fc[v]
		}
	}
}
