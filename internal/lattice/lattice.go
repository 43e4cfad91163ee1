// Package lattice defines the discrete velocity models used by the lattice
// Boltzmann solver: the standard D3Q19 lattice (2nd-order Hermite
// equilibrium, Navier-Stokes regime) and the higher-order D3Q39 lattice of
// Shan, Yuan and Chen (3rd-order Hermite equilibrium, finite-Knudsen
// regime), as studied in Randles et al., "Performance Analysis of the
// Lattice Boltzmann Model Beyond Navier-Stokes" (IPDPS 2013).
//
// A Model carries the velocity set, quadrature weights and lattice speed of
// sound, and provides equilibrium distributions and macroscopic moments.
// All slices returned by the constructors are freshly allocated; callers may
// not mutate a Model shared across goroutines.
package lattice

import (
	"fmt"
	"math"
)

// Model describes a discrete velocity set (a "DdQq" lattice) together with
// its Gauss-Hermite quadrature weights.
//
// The velocity ordering follows the paper: all moving velocities first
// (grouped by neighbor order), the rest velocity last, so that index Q-1 is
// the lattice point itself ("the 19th and 39th values are for the lattice
// point itself").
type Model struct {
	// Name is the conventional lattice name, e.g. "D3Q19".
	Name string
	// Q is the number of discrete velocities.
	Q int
	// CsSq is the squared lattice speed of sound c_s².
	CsSq float64
	// Cx, Cy, Cz are the integer components of each discrete velocity.
	Cx, Cy, Cz []int
	// W holds the quadrature weight of each velocity; the weights sum to 1.
	W []float64
	// Opp maps each velocity index to the index of the opposite velocity.
	Opp []int
	// Order is the Hermite expansion order of the equilibrium (2 or 3).
	Order int
	// MaxSpeed is the largest |component| over all velocities. It is the
	// number of lattice planes a particle can cross per step along an axis,
	// and therefore the fundamental halo width k used by ghost-cell
	// exchanges (a ghost depth of d requires d·k halo planes).
	MaxSpeed int
}

// D3Q19 returns the standard 19-velocity cubic lattice: 6 first neighbors,
// 12 second neighbors and the rest velocity, with c_s² = 1/3 and weights
// 1/18, 1/36 and 1/3 respectively (paper Table I). Its tensor moments are
// isotropic through 4th order, which supports the 2nd-order Hermite
// equilibrium and recovers Navier-Stokes hydrodynamics.
func D3Q19() *Model {
	m := &Model{Name: "D3Q19", CsSq: 1.0 / 3.0, Order: 2}
	// First neighbors (distance 1).
	m.add(axisVectors(1), 1.0/18.0)
	// Second neighbors (distance sqrt(2)).
	m.add(faceDiagonals(1), 1.0/36.0)
	// Rest velocity, last by convention.
	m.add([][3]int{{0, 0, 0}}, 1.0/3.0)
	m.finish()
	return m
}

// D3Q39 returns the 39-velocity Gauss-Hermite lattice of Shan, Yuan & Chen
// with c_s² = 2/3: rest + 6×(±1,0,0) + 8×(±1,±1,±1) + 6×(±2,0,0) +
// 12×(±2,±2,0) + 6×(±3,0,0). Weights are 1/12, 1/12, 1/27, 2/135, 1/432 and
// 1/1620 (the paper's Table I prints 1/142 for the (2,2,0) shell, which is a
// transcription error: only 1/432 normalizes the weights and yields the
// 6th-order isotropy required for the 3rd-order Hermite expansion; see the
// tests). Particles move up to MaxSpeed = 3 planes per step.
func D3Q39() *Model {
	m := &Model{Name: "D3Q39", CsSq: 2.0 / 3.0, Order: 3}
	// Neighbor order 1: distance 1.
	m.add(axisVectors(1), 1.0/12.0)
	// Neighbor order 2: distance sqrt(3).
	m.add(cubeDiagonals(1), 1.0/27.0)
	// Neighbor order 3: distance 2.
	m.add(axisVectors(2), 2.0/135.0)
	// Neighbor order 4: distance 2*sqrt(2).
	m.add(faceDiagonals(2), 1.0/432.0)
	// Neighbor order 5: distance 3.
	m.add(axisVectors(3), 1.0/1620.0)
	// Rest velocity, last by convention.
	m.add([][3]int{{0, 0, 0}}, 1.0/12.0)
	m.finish()
	return m
}

// D3Q27 returns the full 27-velocity cubic lattice ("models of up to 27
// neighbors", the prior state of the art the paper's abstract cites):
// rest + 6 axis + 12 face-diagonal + 8 cube-diagonal velocities with
// c_s² = 1/3 and weights 8/27, 2/27, 1/54, 1/216. Like D3Q19 it carries
// 4th-order isotropy and a 2nd-order equilibrium; it is provided for
// library completeness and cross-lattice checks.
func D3Q27() *Model {
	m := &Model{Name: "D3Q27", CsSq: 1.0 / 3.0, Order: 2}
	m.add(axisVectors(1), 2.0/27.0)
	m.add(faceDiagonals(1), 1.0/54.0)
	m.add(cubeDiagonals(1), 1.0/216.0)
	// Rest velocity, last by convention.
	m.add([][3]int{{0, 0, 0}}, 8.0/27.0)
	m.finish()
	return m
}

// ByName returns the model with the given conventional name.
func ByName(name string) (*Model, error) {
	switch name {
	case "D3Q19", "d3q19", "q19":
		return D3Q19(), nil
	case "D3Q27", "d3q27", "q27":
		return D3Q27(), nil
	case "D3Q39", "d3q39", "q39":
		return D3Q39(), nil
	}
	return nil, fmt.Errorf("lattice: unknown model %q (want D3Q19, D3Q27 or D3Q39)", name)
}

func (m *Model) add(vs [][3]int, w float64) {
	for _, v := range vs {
		m.Cx = append(m.Cx, v[0])
		m.Cy = append(m.Cy, v[1])
		m.Cz = append(m.Cz, v[2])
		m.W = append(m.W, w)
	}
}

func (m *Model) finish() {
	m.Q = len(m.W)
	m.Opp = make([]int, m.Q)
	for i := 0; i < m.Q; i++ {
		m.Opp[i] = -1
		for j := 0; j < m.Q; j++ {
			if m.Cx[j] == -m.Cx[i] && m.Cy[j] == -m.Cy[i] && m.Cz[j] == -m.Cz[i] {
				m.Opp[i] = j
				break
			}
		}
		if m.Opp[i] < 0 {
			panic("lattice: velocity set is not symmetric")
		}
		if s := absInt(m.Cx[i]); s > m.MaxSpeed {
			m.MaxSpeed = s
		}
		if s := absInt(m.Cy[i]); s > m.MaxSpeed {
			m.MaxSpeed = s
		}
		if s := absInt(m.Cz[i]); s > m.MaxSpeed {
			m.MaxSpeed = s
		}
	}
}

// axisVectors returns the six vectors (±s,0,0), (0,±s,0), (0,0,±s).
func axisVectors(s int) [][3]int {
	return [][3]int{
		{s, 0, 0}, {-s, 0, 0},
		{0, s, 0}, {0, -s, 0},
		{0, 0, s}, {0, 0, -s},
	}
}

// faceDiagonals returns the twelve vectors with two components ±s and one 0.
func faceDiagonals(s int) [][3]int {
	var vs [][3]int
	for _, a := range []int{s, -s} {
		for _, b := range []int{s, -s} {
			vs = append(vs, [3]int{a, b, 0}, [3]int{a, 0, b}, [3]int{0, a, b})
		}
	}
	return vs
}

// cubeDiagonals returns the eight vectors (±s,±s,±s).
func cubeDiagonals(s int) [][3]int {
	var vs [][3]int
	for _, a := range []int{s, -s} {
		for _, b := range []int{s, -s} {
			for _, c := range []int{s, -s} {
				vs = append(vs, [3]int{a, b, c})
			}
		}
	}
	return vs
}

func absInt(x int) int {
	if x < 0 {
		return -x
	}
	return x
}

// EquilibriumAt returns the single-velocity equilibrium distribution
// f_i^eq(ρ,u) using the model's Hermite expansion order.
//
// Order 2 (paper Eq. 2, with the standard factor-of-two in the u² term):
//
//	f_i^eq = w_i ρ [1 + (c·u)/c_s² + (c·u)²/(2c_s⁴) − u²/(2c_s²)]
//
// Order 3 adds the term (paper Eq. 3) related to the velocity-dependent
// viscosity of the fluid:
//
//   - w_i ρ (c·u)/(6c_s²) [(c·u)²/c_s⁴ − 3u²/c_s²]
func (m *Model) EquilibriumAt(i int, rho, ux, uy, uz float64) float64 {
	cs2 := m.CsSq
	cu := float64(m.Cx[i])*ux + float64(m.Cy[i])*uy + float64(m.Cz[i])*uz
	u2 := ux*ux + uy*uy + uz*uz
	e := 1 + cu/cs2 + cu*cu/(2*cs2*cs2) - u2/(2*cs2)
	if m.Order >= 3 {
		e += cu / (6 * cs2) * (cu*cu/(cs2*cs2) - 3*u2/cs2)
	}
	return m.W[i] * rho * e
}

// Equilibrium fills feq (length Q) with the equilibrium distribution for
// density rho and velocity (ux,uy,uz).
func (m *Model) Equilibrium(rho, ux, uy, uz float64, feq []float64) {
	if len(feq) != m.Q {
		panic("lattice: Equilibrium buffer has wrong length")
	}
	for i := 0; i < m.Q; i++ {
		feq[i] = m.EquilibriumAt(i, rho, ux, uy, uz)
	}
}

// Moments returns the macroscopic density and momentum density
// (ρ, ρu_x, ρu_y, ρu_z) of a distribution f (length Q).
func (m *Model) Moments(f []float64) (rho, jx, jy, jz float64) {
	for i := 0; i < m.Q; i++ {
		rho += f[i]
		jx += f[i] * float64(m.Cx[i])
		jy += f[i] * float64(m.Cy[i])
		jz += f[i] * float64(m.Cz[i])
	}
	return
}

// Viscosity returns the kinematic shear viscosity implied by the BGK
// relaxation time tau on this lattice: ν = c_s²(τ − ½).
func (m *Model) Viscosity(tau float64) float64 {
	return m.CsSq * (tau - 0.5)
}

// TauForViscosity returns the BGK relaxation time that yields kinematic
// viscosity nu on this lattice: τ = ν/c_s² + ½.
func (m *Model) TauForViscosity(nu float64) float64 {
	return nu/m.CsSq + 0.5
}

// NeighborOrderDistance returns the Euclidean length of velocity i in
// lattice units (the "Distance" column of the paper's Table I).
func (m *Model) NeighborOrderDistance(i int) float64 {
	c2 := m.Cx[i]*m.Cx[i] + m.Cy[i]*m.Cy[i] + m.Cz[i]*m.Cz[i]
	return math.Sqrt(float64(c2))
}

// Validate checks the internal consistency of the velocity set: weights sum
// to one, odd moments vanish, the second moment equals c_s²δ, and opposite
// pairs are exact. It returns a descriptive error on the first violation.
func (m *Model) Validate() error {
	const tol = 1e-12
	var sw float64
	for _, w := range m.W {
		if w <= 0 {
			return fmt.Errorf("lattice %s: non-positive weight %g", m.Name, w)
		}
		sw += w
	}
	if math.Abs(sw-1) > tol {
		return fmt.Errorf("lattice %s: weights sum to %.15f, want 1", m.Name, sw)
	}
	for a := 0; a < 3; a++ {
		var m1 float64
		for i := 0; i < m.Q; i++ {
			m1 += m.W[i] * float64(m.component(i, a))
		}
		if math.Abs(m1) > tol {
			return fmt.Errorf("lattice %s: first moment axis %d = %g, want 0", m.Name, a, m1)
		}
		for b := 0; b < 3; b++ {
			var m2 float64
			for i := 0; i < m.Q; i++ {
				m2 += m.W[i] * float64(m.component(i, a)) * float64(m.component(i, b))
			}
			want := 0.0
			if a == b {
				want = m.CsSq
			}
			if math.Abs(m2-want) > tol {
				return fmt.Errorf("lattice %s: second moment (%d,%d) = %g, want %g", m.Name, a, b, m2, want)
			}
		}
	}
	for i := 0; i < m.Q; i++ {
		j := m.Opp[i]
		if m.Cx[j] != -m.Cx[i] || m.Cy[j] != -m.Cy[i] || m.Cz[j] != -m.Cz[i] {
			return fmt.Errorf("lattice %s: Opp[%d]=%d is not the opposite velocity", m.Name, i, j)
		}
	}
	return nil
}

func (m *Model) component(i, axis int) int {
	switch axis {
	case 0:
		return m.Cx[i]
	case 1:
		return m.Cy[i]
	default:
		return m.Cz[i]
	}
}

// LatticeMoment returns the lattice tensor moment Σ_i w_i Π_k c_{i,axes[k]}
// for the given multi-index of axes (each 0, 1 or 2).
func (m *Model) LatticeMoment(axes []int) float64 {
	var s float64
	for i := 0; i < m.Q; i++ {
		p := m.W[i]
		for _, a := range axes {
			p *= float64(m.component(i, a))
		}
		s += p
	}
	return s
}

// IsotropicMoment returns the moment of an isotropic Gaussian with variance
// csSq for the given multi-index: zero for odd rank, and for even rank 2n
// the sum over all perfect pairings of Π δ(a,b)·csSq.
func IsotropicMoment(csSq float64, axes []int) float64 {
	if len(axes)%2 == 1 {
		return 0
	}
	if len(axes) == 0 {
		return 1
	}
	// Pair axes[0] with each remaining axis in turn and recurse.
	var s float64
	first := axes[0]
	rest := axes[1:]
	for j, b := range rest {
		if first != b {
			continue
		}
		sub := make([]int, 0, len(rest)-1)
		sub = append(sub, rest[:j]...)
		sub = append(sub, rest[j+1:]...)
		s += csSq * IsotropicMoment(csSq, sub)
	}
	return s
}

// IsotropyDefect returns the largest absolute difference between the lattice
// moments of the given rank and the corresponding isotropic moments. A
// lattice supports an order-n Hermite equilibrium when its moments are
// isotropic through rank 2n (e.g. rank 6 for the D3Q39's 3rd-order
// expansion).
func (m *Model) IsotropyDefect(rank int) float64 {
	axes := make([]int, rank)
	var worst float64
	var walk func(k int)
	walk = func(k int) {
		if k == rank {
			d := math.Abs(m.LatticeMoment(axes) - IsotropicMoment(m.CsSq, axes))
			if d > worst {
				worst = d
			}
			return
		}
		for a := 0; a < 3; a++ {
			axes[k] = a
			walk(k + 1)
		}
	}
	walk(0)
	return worst
}

// IsotropyOrder returns the highest tensor rank r ≤ maxRank such that all
// lattice moments of rank ≤ r match the isotropic Gaussian moments to within
// tol.
func (m *Model) IsotropyOrder(maxRank int, tol float64) int {
	order := 0
	for r := 1; r <= maxRank; r++ {
		if m.IsotropyDefect(r) > tol {
			break
		}
		order = r
	}
	return order
}
