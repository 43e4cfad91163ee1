// Package collision provides the pluggable collision-operator subsystem:
// the per-cell relaxation applied after streaming. The paper's kernels are
// single-relaxation-time BGK, whose stability collapses as τ → 1/2 and
// caps the reachable Reynolds number well below the regimes the "beyond
// Navier-Stokes" framing targets. Splitting the relaxation rates between
// hydrodynamic and ghost moments removes that instability without changing
// the recovered Navier-Stokes viscosity (Reider & Sterling's accuracy
// analysis of discrete-velocity BGK models; the two-relaxation-time
// regularized LBM of Yu et al.). Three operators are provided:
//
//   - BGK: f ← f − ω(f − f_eq), ω = 1/τ — the paper's operator. The core
//     solver never routes BGK through this package on its hot paths (its
//     ladder has its own naive, row-generic and pair-symmetric BGK row
//     kernels); the operator exists for the per-cell kernel and cross-checks.
//
//   - TRT (two-relaxation-time, Ginzburg): the populations of each
//     opposite-velocity pair are split into even and odd parts, relaxed at
//     ω⁺ = 1/τ (sets the shear viscosity, exactly as BGK) and ω⁻ (free).
//     ω⁻ is chosen through the "magic" parameter Λ = (τ⁺−½)(τ⁻−½); Λ = ¼
//     gives the most robust damping of the staggered ghost modes and keeps
//     halfway bounce-back walls parallel-wall-exact.
//
//   - MRT (multiple-relaxation-time, d'Humières): populations are mapped to
//     a raw-moment basis (monomials c_x^a c_y^b c_z^c selected greedily in
//     graded order until the moment matrix has full rank, see mrt.go) and
//     relaxed with a diagonal rate vector: conserved and second-order
//     hydrodynamic moments at ω = 1/τ, ghost moments (order ≥ 3) at
//     independently chosen per-order rates. The defaults pair the odd and
//     even ghost sectors through the Λ = ¼ magic relation (see
//     ghostRateFor), which is both wall-accurate and the empirically
//     stable region; explicit GhostRates unlock the full diagonal.
//
// Operators are per-cell: Relax mutates one cell's post-streaming
// populations in place given its density and (forcing-shifted) velocity.
// An Operator is not safe for concurrent use — each worker goroutine must
// Clone its own (clones share the read-only tables, never scratch).
package collision

import (
	"fmt"
	"math"
	"strconv"
	"strings"

	"repro/internal/lattice"
)

// DefaultMagic is the TRT magic parameter Λ used when a Spec leaves Magic
// zero: Λ = ¼ damps the staggered ghost modes fastest and is the standard
// robust choice for bounce-back-bounded flows.
const DefaultMagic = 0.25

// Operator applies the collision relaxation to one cell.
type Operator interface {
	// Name identifies the operator (e.g. "trt(magic=0.25)").
	Name() string
	// Relax replaces the post-streaming populations f (length Q) of one
	// cell with the post-collision populations, given the cell's density
	// and equilibrium velocity (already including any forcing shift).
	Relax(f []float64, rho, ux, uy, uz float64)
	// ShiftTau returns the relaxation time the operator applies to the
	// momentum moments — the factor the velocity-shift body forcing must
	// use (equilibrium evaluated at u + ShiftTau·a injects exactly ρ·a of
	// momentum per step). τ for BGK and MRT (momentum relaxes at 1/τ);
	// τ⁻ for TRT (momentum rides in the odd sector).
	ShiftTau() float64
	// Clone returns an operator sharing the receiver's read-only tables
	// but owning private scratch, for use from another goroutine.
	Clone() Operator
}

// RowRelaxer is an optional fast-path interface: an Operator that can
// relax whole SoA z-runs at once. dst[v], src[v] and feq[v] are the
// velocity-v rows of the run (first n entries valid): src the
// post-streaming populations, feq their equilibria (computed by the
// caller, which has them as a by-product of the moment pass), dst the
// post-collision output. dst and src may alias row-for-row. Like Relax,
// RelaxRows is not safe for concurrent use — Clone per goroutine.
//
// TRT and MRT implement it. The solver runs TRT on its own pair kernel
// instead (fused per-pair primitives with this method's arithmetic, bit for
// bit), so RelaxRows serves MRT's operator row kernel, TRT's 0-ULP oracle,
// and the benchmark's collision.rows_ns layer; an operator without it
// falls back to per-cell Relax. BGK deliberately does not implement it:
// its production path is the solver's own BGK row kernels, and keeping the
// forced-operator regression route per-cell preserves the 0-ULP guard
// against the naive kernel.
type RowRelaxer interface {
	RelaxRows(dst, src, feq [][]float64, n int)
}

// Kind enumerates the provided operator families.
type Kind int

const (
	// BGK is the paper's single-relaxation-time operator (the default).
	BGK Kind = iota
	// TRT is the two-relaxation-time operator.
	TRT
	// MRT is the raw-moment multiple-relaxation-time operator.
	MRT
)

var kindNames = map[Kind]string{BGK: "bgk", TRT: "trt", MRT: "mrt"}

func (k Kind) String() string {
	if s, ok := kindNames[k]; ok {
		return s
	}
	return fmt.Sprintf("Kind(%d)", int(k))
}

// ParseKind resolves an operator name as accepted by the CLIs.
func ParseKind(s string) (Kind, error) {
	switch strings.ToLower(s) {
	case "bgk", "srt":
		return BGK, nil
	case "trt":
		return TRT, nil
	case "mrt":
		return MRT, nil
	}
	return 0, fmt.Errorf("collision: unknown operator %q (want bgk, trt or mrt)", s)
}

// Spec selects and parameterizes a collision operator. The zero value is
// plain BGK, which the solver maps to its own BGK row kernels.
type Spec struct {
	Kind Kind
	// Magic is the TRT magic parameter Λ = (τ⁺−½)(τ⁻−½); zero selects
	// DefaultMagic. Ignored by BGK and MRT.
	Magic float64
	// GhostRates overrides the MRT ghost-moment relaxation rates by moment
	// order: GhostRates[0] applies to the order-3 moments, GhostRates[1]
	// to order 4, and so on; moments beyond the list reuse the last entry.
	// Empty selects the boundary-aware defaults: odd orders at the Λ = ¼
	// TRT ω⁻ (accurate bounce-back wall placement), even orders at the
	// magic-paired ω⁺ = 1/τ (see mrt.go: unpaired ghost rates are
	// unstable at small τ). Each rate must lie in (0, 2). Ignored by BGK
	// and TRT.
	GhostRates []float64
}

// IsBGK reports whether the spec selects the plain BGK operator, i.e. the
// solver's own BGK row kernels.
func (s Spec) IsBGK() bool { return s.Kind == BGK }

// String renders the spec for run headers and tables.
func (s Spec) String() string {
	switch s.Kind {
	case TRT:
		return fmt.Sprintf("trt(magic=%g)", s.magic())
	case MRT:
		if len(s.GhostRates) == 0 {
			return "mrt(ghost=auto)"
		}
		parts := make([]string, len(s.GhostRates))
		for i, r := range s.GhostRates {
			parts[i] = strconv.FormatFloat(r, 'g', -1, 64)
		}
		return fmt.Sprintf("mrt(ghost=%s)", strings.Join(parts, ","))
	default:
		return "bgk"
	}
}

func (s Spec) magic() float64 {
	if s.Magic == 0 {
		return DefaultMagic
	}
	return s.Magic
}

// Validate checks the spec's parameters without building an operator.
func (s Spec) Validate() error {
	switch s.Kind {
	case BGK, TRT, MRT:
	default:
		return fmt.Errorf("collision: unknown kind %v", s.Kind)
	}
	// The bounds are written so that NaN fails them: every comparison
	// with NaN is false.
	if !(s.Magic >= 0) || math.IsInf(s.Magic, 1) {
		return fmt.Errorf("collision: magic parameter %g is not finite and >= 0", s.Magic)
	}
	if s.Kind != TRT && s.Magic != 0 {
		return fmt.Errorf("collision: magic parameter is TRT-only (spec is %s)", s.Kind)
	}
	if s.Kind != MRT && len(s.GhostRates) != 0 {
		return fmt.Errorf("collision: ghost rates are MRT-only (spec is %s)", s.Kind)
	}
	for _, r := range s.GhostRates {
		if !(r > 0 && r < 2) {
			return fmt.Errorf("collision: ghost rate %g outside the stable interval (0, 2)", r)
		}
	}
	return nil
}

// New builds the operator for a lattice and relaxation time. τ must exceed
// ½ (the shear rate ω = 1/τ sets ν = c_s²(τ−½) for every kind).
func (s Spec) New(m *lattice.Model, tau float64) (Operator, error) {
	if err := s.Validate(); err != nil {
		return nil, err
	}
	if !(tau > 0.5) || math.IsInf(tau, 1) {
		return nil, fmt.Errorf("collision: tau %g is not finite and > 0.5", tau)
	}
	switch s.Kind {
	case TRT:
		return NewTRT(m, tau, s.magic()), nil
	case MRT:
		return NewMRT(m, tau, s.GhostRates)
	default:
		return NewBGK(m, tau), nil
	}
}

// ParseRates parses a comma-separated relaxation-rate list (the CLI
// -mrt-rates argument); an empty string yields nil (the default rates).
func ParseRates(s string) ([]float64, error) {
	if strings.TrimSpace(s) == "" {
		return nil, nil
	}
	parts := strings.Split(s, ",")
	out := make([]float64, len(parts))
	for i, p := range parts {
		v, err := strconv.ParseFloat(strings.TrimSpace(p), 64)
		if err != nil {
			return nil, fmt.Errorf("collision: bad rate %q: %v", p, err)
		}
		out[i] = v
	}
	return out, nil
}

// bgkOp is the reference single-relaxation-time operator.
type bgkOp struct {
	m   *lattice.Model
	tau float64
	feq []float64
}

// NewBGK returns the BGK operator: f ← f − (f − f_eq)/τ, with the
// arithmetic of the solver's naive kernel (division by τ, equilibria via
// the model's closed form). The solver's BGK runs never build it (they
// relax on the ladder's own kernels); TRT and MRT are held to it in their
// degenerate cases.
func NewBGK(m *lattice.Model, tau float64) Operator {
	return &bgkOp{m: m, tau: tau, feq: make([]float64, m.Q)}
}

func (o *bgkOp) Name() string      { return "bgk" }
func (o *bgkOp) ShiftTau() float64 { return o.tau }

func (o *bgkOp) Clone() Operator {
	c := *o
	c.feq = make([]float64, o.m.Q)
	return &c
}

func (o *bgkOp) Relax(f []float64, rho, ux, uy, uz float64) {
	o.m.Equilibrium(rho, ux, uy, uz, o.feq)
	for i := range f {
		f[i] -= (f[i] - o.feq[i]) / o.tau
	}
}

// trtOp is the two-relaxation-time operator.
type trtOp struct {
	m              *lattice.Model
	omegaP, omegaM float64
	magic          float64
	pairs          [][2]int // i < j = Opp[i]
	rest           []int    // self-opposite velocities
	feq            []float64
}

// NewTRT returns the two-relaxation-time operator: even pair combinations
// relax at ω⁺ = 1/τ (which alone sets the shear viscosity), odd ones at
// the rate implied by the magic parameter Λ = (τ⁺−½)(τ⁻−½).
func NewTRT(m *lattice.Model, tau float64, magic float64) Operator {
	if magic <= 0 {
		magic = DefaultMagic
	}
	tauM := 0.5 + magic/(tau-0.5)
	o := &trtOp{
		m: m, omegaP: 1 / tau, omegaM: 1 / tauM, magic: magic,
		feq: make([]float64, m.Q),
	}
	for i := 0; i < m.Q; i++ {
		switch j := m.Opp[i]; {
		case i < j:
			o.pairs = append(o.pairs, [2]int{i, j})
		case i == j:
			o.rest = append(o.rest, i)
		}
	}
	return o
}

// OmegaMinus exposes the odd-sector rate (for tables and tests).
func (o *trtOp) OmegaMinus() float64 { return o.omegaM }

func (o *trtOp) Name() string { return fmt.Sprintf("trt(magic=%g)", o.magic) }

// ShiftTau is τ⁻: TRT relaxes the odd (momentum-carrying) sector at ω⁻,
// so the forcing shift must scale with 1/ω⁻ to inject ρ·a per step.
func (o *trtOp) ShiftTau() float64 { return 1 / o.omegaM }

func (o *trtOp) Clone() Operator {
	c := *o
	c.feq = make([]float64, o.m.Q)
	return &c
}

func (o *trtOp) Relax(f []float64, rho, ux, uy, uz float64) {
	o.m.Equilibrium(rho, ux, uy, uz, o.feq)
	for _, p := range o.pairs {
		i, j := p[0], p[1]
		neqP := 0.5 * ((f[i] + f[j]) - (o.feq[i] + o.feq[j]))
		neqM := 0.5 * ((f[i] - f[j]) - (o.feq[i] - o.feq[j]))
		dP, dM := o.omegaP*neqP, o.omegaM*neqM
		f[i] -= dP + dM
		f[j] -= dP - dM
	}
	for _, i := range o.rest {
		// Self-opposite velocities are purely even.
		f[i] -= o.omegaP * (f[i] - o.feq[i])
	}
}

// RelaxRows is the z-run-blocked form of Relax: the same even/odd pair
// arithmetic applied to whole SoA rows, which turns the per-cell gather,
// equilibrium method call and scatter into straight-line loops over
// contiguous slices (the shape of the solver's paired BGK kernel). The
// solver's TRT row primitives repeat this arithmetic operation for
// operation, and a core test holds them to it at 0 ULP: change both or
// neither.
func (o *trtOp) RelaxRows(dst, src, feq [][]float64, n int) {
	for _, p := range o.pairs {
		i, j := p[0], p[1]
		si, sj := src[i][:n], src[j][:n]
		ei, ej := feq[i][:n], feq[j][:n]
		di, dj := dst[i][:n], dst[j][:n]
		for z := 0; z < n; z++ {
			neqP := 0.5 * ((si[z] + sj[z]) - (ei[z] + ej[z]))
			neqM := 0.5 * ((si[z] - sj[z]) - (ei[z] - ej[z]))
			dP, dM := o.omegaP*neqP, o.omegaM*neqM
			vi, vj := si[z], sj[z]
			di[z] = vi - (dP + dM)
			dj[z] = vj - (dP - dM)
		}
	}
	for _, i := range o.rest {
		si, ei, di := src[i][:n], feq[i][:n], dst[i][:n]
		for z := 0; z < n; z++ {
			di[z] = si[z] - o.omegaP*(si[z]-ei[z])
		}
	}
}
