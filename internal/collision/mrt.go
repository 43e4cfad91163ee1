package collision

// Raw-moment multiple-relaxation-time operator. Populations are mapped to
// moment space by the matrix M whose rows are monomials of the discrete
// velocities, relaxed there with a diagonal rate vector S, and mapped
// back: f ← f − M⁻¹ S M (f − f_eq). The collision matrix C = M⁻¹SM is
// precomputed once per (lattice, τ, rates), so a cell costs one Q×Q
// matrix-vector product on top of the equilibrium.
//
// The basis is built generically from the lattice itself: candidate
// exponent triples (a,b,c) are enumerated in graded lexicographic order
// and a monomial is kept iff it is linearly independent (as a function on
// the velocity set) of those already kept, until Q moments are found. For
// D3Q19 this reproduces the standard raw basis
//
//	{1; x,y,z; x²,y²,z²,xy,xz,yz; x²y,x²z,xy²,y²z,xz²,yz²; x²y²,x²z²,y²z²}
//
// (the (1,1,1) monomial xyz vanishes identically on D3Q19 and is skipped
// by the rank test). Moments of order ≤ 2 are the hydrodynamic sector:
// density, momentum and stress, all relaxed at ω = 1/τ so the recovered
// shear viscosity is exactly the BGK ν = c_s²(τ−½) and velocity-shift
// forcing injects the same ρ·a of momentum per step. Moments of order ≥ 3
// are the ghost sector, relaxed at the Spec's per-order GhostRates.

import (
	"fmt"
	"math"

	"repro/internal/lattice"
)

// Moment is one row of the raw-moment basis: the exponents of the
// monomial c_x^A c_y^B c_z^C and its total order A+B+C.
type Moment struct {
	A, B, C int
	Order   int
}

// RawMomentBasis returns the Q independent raw moments of a lattice,
// selected greedily in graded lexicographic order. It is exported for the
// experiment tables and the basis tests.
func RawMomentBasis(m *lattice.Model) ([]Moment, error) {
	// Per-variable exponents beyond maxExp are redundant on a grid of
	// 2·MaxSpeed+1 integer values (x^(2s+1) is a combination of lower odd
	// powers on {−s..s}), so the graded enumeration below spans every
	// function on the velocity set.
	maxExp := 2 * m.MaxSpeed
	var basis []Moment
	// Orthogonalized row images kept for the rank test.
	var ortho [][]float64
	row := make([]float64, m.Q)
	for deg := 0; deg <= 3*maxExp && len(basis) < m.Q; deg++ {
		for a := 0; a <= min(deg, maxExp) && len(basis) < m.Q; a++ {
			for b := 0; b <= min(deg-a, maxExp) && len(basis) < m.Q; b++ {
				c := deg - a - b
				if c > maxExp {
					continue
				}
				mom := Moment{A: a, B: b, C: c, Order: deg}
				evalMoment(m, mom, row)
				if v, ok := orthogonalize(ortho, row); ok {
					basis = append(basis, mom)
					ortho = append(ortho, v)
				}
			}
		}
	}
	if len(basis) < m.Q {
		return nil, fmt.Errorf("collision: raw-moment basis for %s incomplete (%d of %d)", m.Name, len(basis), m.Q)
	}
	return basis, nil
}

// evalMoment fills row[i] with the monomial evaluated at velocity i.
func evalMoment(m *lattice.Model, mom Moment, row []float64) {
	for i := 0; i < m.Q; i++ {
		row[i] = intPow(m.Cx[i], mom.A) * intPow(m.Cy[i], mom.B) * intPow(m.Cz[i], mom.C)
	}
}

func intPow(c, e int) float64 {
	v := 1.0
	for ; e > 0; e-- {
		v *= float64(c)
	}
	return v
}

// orthogonalize projects row off the orthonormal set and returns the
// normalized remainder, or ok=false when row is (numerically) dependent.
func orthogonalize(ortho [][]float64, row []float64) ([]float64, bool) {
	v := append([]float64(nil), row...)
	var norm0 float64
	for _, x := range v {
		norm0 += x * x
	}
	if norm0 == 0 {
		return nil, false
	}
	// Two passes of modified Gram-Schmidt for numerical robustness.
	for pass := 0; pass < 2; pass++ {
		for _, u := range ortho {
			var dot float64
			for i := range v {
				dot += u[i] * v[i]
			}
			for i := range v {
				v[i] -= dot * u[i]
			}
		}
	}
	var norm float64
	for _, x := range v {
		norm += x * x
	}
	if norm < 1e-16*norm0 {
		return nil, false
	}
	inv := 1 / math.Sqrt(norm)
	for i := range v {
		v[i] *= inv
	}
	return v, true
}

// mrtOp applies f ← f − C(f − f_eq) with C = M⁻¹SM precomputed.
type mrtOp struct {
	m     *lattice.Model
	rates []float64 // diagonal of S, one per basis moment
	c     []float64 // Q×Q collision matrix, row-major
	tau   float64
	label string
	feq   []float64
	fneq  []float64
	// RelaxRows scratch: Q non-equilibrium rows, grown on demand.
	neqStore []float64
	neqRows  [][]float64
}

// ghostRateFor resolves the relaxation rate of a ghost moment order.
// Explicit rates index by order (entry 0 = order 3, last entry extends).
// The default (empty rates) pairs the sectors through the magic relation:
// odd-order ghost moments at the ω⁻ implied by Λ = ¼ against the shear
// rate, even-order ghost moments at ω⁺ = 1/τ, so every odd/even rate pair
// satisfies (1/ω_even−½)(1/ω_odd−½) = ¼. Both halves matter empirically
// (τ = 0.51 Re=1000 cavity): relaxing the odd ghosts near rate 1 drives
// the bounce-back Λ toward 0 and smears thin boundary layers, while an
// even-ghost rate that breaks the Λ = ¼ pairing against the odd rate (in
// either direction) is unstable — e.g. odd ω⁻ with even rate 1 diverges,
// as does odd rate 1 with even ω⁺; odd ω⁻ with even ω⁺ and the uniform
// rate-1 pair are both stable.
func ghostRateFor(order int, rates []float64, tau float64) float64 {
	if len(rates) == 0 {
		if order%2 == 1 {
			return 1 / (0.5 + DefaultMagic/(tau-0.5))
		}
		return 1 / tau
	}
	i := order - 3
	if i >= len(rates) {
		i = len(rates) - 1
	}
	return rates[i]
}

// NewMRT returns the raw-moment MRT operator for a lattice. Hydrodynamic
// moments (order ≤ 2) relax at 1/τ; ghost moments at the per-order rates
// (empty = the boundary-aware defaults of ghostRateFor).
func NewMRT(m *lattice.Model, tau float64, ghostRates []float64) (Operator, error) {
	basis, err := RawMomentBasis(m)
	if err != nil {
		return nil, err
	}
	omega := 1 / tau
	q := m.Q
	rates := make([]float64, q)
	// M with row-normalization: scaling rows by a diagonal D leaves
	// C = (DM)⁻¹ S (DM) = M⁻¹SM unchanged (S and D are both diagonal)
	// while keeping the Gaussian elimination well conditioned.
	mm := make([]float64, q*q)
	row := make([]float64, q)
	for k, mom := range basis {
		if mom.Order <= 2 {
			rates[k] = omega
		} else {
			rates[k] = ghostRateFor(mom.Order, ghostRates, tau)
		}
		evalMoment(m, mom, row)
		var norm float64
		for _, x := range row {
			norm += x * x
		}
		inv := 1 / math.Sqrt(norm)
		for i := 0; i < q; i++ {
			mm[k*q+i] = row[i] * inv
		}
	}
	// C = M⁻¹ (S M): solve M·C = S·M column-block-wise.
	sm := make([]float64, q*q)
	for k := 0; k < q; k++ {
		for i := 0; i < q; i++ {
			sm[k*q+i] = rates[k] * mm[k*q+i]
		}
	}
	c, err := solveMatrix(mm, sm, q)
	if err != nil {
		return nil, fmt.Errorf("collision: %s moment matrix: %v", m.Name, err)
	}
	o := &mrtOp{
		m: m, rates: rates, c: c, tau: tau,
		label: Spec{Kind: MRT, GhostRates: ghostRates}.String(),
		feq:   make([]float64, q), fneq: make([]float64, q),
	}
	return o, nil
}

// solveMatrix solves A·X = B for X (all q×q row-major) by Gaussian
// elimination with partial pivoting; A and B are clobbered.
func solveMatrix(a, b []float64, q int) ([]float64, error) {
	for col := 0; col < q; col++ {
		piv, pval := col, math.Abs(a[col*q+col])
		for r := col + 1; r < q; r++ {
			if v := math.Abs(a[r*q+col]); v > pval {
				piv, pval = r, v
			}
		}
		if pval < 1e-12 {
			return nil, fmt.Errorf("singular at column %d (pivot %g)", col, pval)
		}
		if piv != col {
			for j := 0; j < q; j++ {
				a[col*q+j], a[piv*q+j] = a[piv*q+j], a[col*q+j]
				b[col*q+j], b[piv*q+j] = b[piv*q+j], b[col*q+j]
			}
		}
		inv := 1 / a[col*q+col]
		for r := 0; r < q; r++ {
			if r == col {
				continue
			}
			factor := a[r*q+col] * inv
			if factor == 0 {
				continue
			}
			for j := col; j < q; j++ {
				a[r*q+j] -= factor * a[col*q+j]
			}
			for j := 0; j < q; j++ {
				b[r*q+j] -= factor * b[col*q+j]
			}
		}
	}
	for r := 0; r < q; r++ {
		inv := 1 / a[r*q+r]
		for j := 0; j < q; j++ {
			b[r*q+j] *= inv
		}
	}
	return b, nil
}

func (o *mrtOp) Name() string { return o.label }

// ShiftTau is τ: the order-1 (momentum) moments relax at 1/τ, so MRT
// keeps the BGK forcing shift.
func (o *mrtOp) ShiftTau() float64 { return o.tau }

func (o *mrtOp) Clone() Operator {
	c := *o
	c.feq = make([]float64, o.m.Q)
	c.fneq = make([]float64, o.m.Q)
	c.neqStore, c.neqRows = nil, nil
	return &c
}

// CollisionMatrix exposes the precomputed C = M⁻¹SM (row-major).
func (o *mrtOp) CollisionMatrix() []float64 { return o.c }

func (o *mrtOp) Relax(f []float64, rho, ux, uy, uz float64) {
	q := o.m.Q
	o.m.Equilibrium(rho, ux, uy, uz, o.feq)
	for i := 0; i < q; i++ {
		o.fneq[i] = f[i] - o.feq[i]
	}
	for i := 0; i < q; i++ {
		row := o.c[i*q : (i+1)*q]
		var d float64
		for j, n := range o.fneq {
			d += row[j] * n
		}
		f[i] -= d
	}
}

// RelaxRows is the z-run-blocked form of Relax: the non-equilibrium rows
// are formed once, then the Q×Q collision matrix is applied as a blocked
// row multiply — dst_i −= C[i][j]·neq_j over whole runs — which trades
// the per-cell gather/matvec/scatter for long contiguous multiply-add
// loops. The summation order per cell differs from Relax's (moments
// accumulate across rows instead of along one), a reassociation at the
// usual 1e-15 level.
func (o *mrtOp) RelaxRows(dst, src, feq [][]float64, n int) {
	q := o.m.Q
	if len(o.neqStore) < q*n {
		o.neqStore = make([]float64, q*n)
		o.neqRows = make([][]float64, q)
	}
	for v := 0; v < q; v++ {
		o.neqRows[v] = o.neqStore[v*n : (v+1)*n]
	}
	for v := 0; v < q; v++ {
		sv, ev, nv := src[v][:n], feq[v][:n], o.neqRows[v]
		for z := 0; z < n; z++ {
			nv[z] = sv[z] - ev[z]
		}
	}
	for i := 0; i < q; i++ {
		row := o.c[i*q : (i+1)*q]
		di, si := dst[i][:n], src[i][:n]
		copy(di, si) // alias-safe: neq rows are private copies
		for j := 0; j < q; j++ {
			cij := row[j]
			if cij == 0 {
				continue
			}
			nj := o.neqRows[j]
			for z := 0; z < n; z++ {
				di[z] -= cij * nj[z]
			}
		}
	}
}
