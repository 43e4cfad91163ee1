package core

import (
	"math"
	"testing"

	"repro/internal/geom"
	"repro/internal/grid"
	"repro/internal/lattice"
	"repro/internal/metrics"
)

// refSolverBounded is the package's one test oracle, an independent
// textbook implementation: full-array pull streaming that applies the
// boundary conditions link by link at stream time — halfway bounce-back
// (with the moving-wall momentum correction) for links crossing a wall
// face or reaching a solid cell, coordinate clamping for links crossing an
// outflow face, periodic wrap elsewhere (everywhere for a nil spec) — then
// per-cell BGK collision with velocity-shift forcing by accel. It shares
// no kernel or boundary code with the solver under test.
// In-domain solid cells are held at rest and skipped (the production
// solver lets them carry garbage that fluid cells never read, so
// comparisons against this oracle go through maxDiffFluid).
func refSolverBounded(m *lattice.Model, n grid.Dims, tau float64, steps int, init InitFunc, spec *BoundarySpec, solid *geom.Mask, accel [3]float64) *grid.Field {
	f := grid.NewField(m.Q, n, grid.SoA)
	fadv := grid.NewField(m.Q, n, grid.SoA)
	feq := make([]float64, m.Q)
	rest := make([]float64, m.Q)
	m.Equilibrium(1, 0, 0, 0, rest)
	isSolid := func(ix, iy, iz int) bool { return solid != nil && solid.At(ix, iy, iz) }
	for ix := 0; ix < n.NX; ix++ {
		for iy := 0; iy < n.NY; iy++ {
			for iz := 0; iz < n.NZ; iz++ {
				if isSolid(ix, iy, iz) {
					f.SetCell(ix, iy, iz, rest)
					continue
				}
				rho, ux, uy, uz := init(ix, iy, iz)
				m.Equilibrium(rho, ux, uy, uz, feq)
				f.SetCell(ix, iy, iz, feq)
			}
		}
	}
	dims := [3]int{n.NX, n.NY, n.NZ}
	fc := make([]float64, m.Q)
	for s := 0; s < steps; s++ {
		for ix := 0; ix < n.NX; ix++ {
			for iy := 0; iy < n.NY; iy++ {
				for iz := 0; iz < n.NZ; iz++ {
					if isSolid(ix, iy, iz) {
						continue
					}
					cell := [3]int{ix, iy, iz}
					for v := 0; v < m.Q; v++ {
						src := [3]int{ix - m.Cx[v], iy - m.Cy[v], iz - m.Cz[v]}
						wallHit, outside, movAxis, movSide := false, 0, -1, -1
						inAxis, inSide := -1, -1
						press := false
						for a := 0; a < 3; a++ {
							if spec.AxisPeriodic(a) {
								src[a] = ((src[a] % dims[a]) + dims[a]) % dims[a]
								continue
							}
							side := -1
							if src[a] < 0 {
								side = 0
							} else if src[a] >= dims[a] {
								side = 1
							}
							if side < 0 {
								continue
							}
							outside++
							switch spec.Faces[a][side].Kind {
							case BCWall:
								wallHit = true
							case BCMovingWall:
								wallHit = true
								movAxis, movSide = a, side
							case BCInlet:
								wallHit = true
								inAxis, inSide = a, side
								// Clamp for the profile evaluation below.
								if side == 0 {
									src[a] = 0
								} else {
									src[a] = dims[a] - 1
								}
							case BCOutflow:
								if side == 0 {
									src[a] = 0
								} else {
									src[a] = dims[a] - 1
								}
							case BCPressureOutlet:
								press = true
								if side == 0 {
									src[a] = 0
								} else {
									src[a] = dims[a] - 1
								}
							}
						}
						switch {
						case wallHit:
							delta := 0.0
							if outside == 1 && movAxis >= 0 {
								u := spec.Faces[movAxis][movSide].U
								cu := float64(m.Cx[v])*u[0] + float64(m.Cy[v])*u[1] + float64(m.Cz[v])*u[2]
								delta = 2 * m.W[v] * cu / m.CsSq
							}
							if outside == 1 && inAxis >= 0 {
								// Zou-He inversion: the full odd part of the
								// inlet equilibrium at the clamped endpoint.
								face := &spec.Faces[inAxis][inSide]
								u := face.U
								if face.Profile != nil {
									u = face.Profile(src[0], src[1], src[2])
								}
								delta = m.EquilibriumAt(v, 1, u[0], u[1], u[2]) -
									m.EquilibriumAt(m.Opp[v], 1, u[0], u[1], u[2])
							}
							fadv.Set(v, ix, iy, iz, f.At(m.Opp[v], cell[0], cell[1], cell[2])+delta)
						case isSolid(src[0], src[1], src[2]):
							fadv.Set(v, ix, iy, iz, f.At(m.Opp[v], cell[0], cell[1], cell[2]))
						case press:
							// Pressure outlet: the clamped source cell's
							// population with its equilibrium re-anchored
							// at unit density (non-equilibrium
							// extrapolation).
							f.Cell(src[0], src[1], src[2], fc)
							rho, jx, jy, jz := m.Moments(fc)
							ux, uy, uz := jx/rho, jy/rho, jz/rho
							val := f.At(v, src[0], src[1], src[2]) +
								m.EquilibriumAt(v, 1, ux, uy, uz) -
								m.EquilibriumAt(v, rho, ux, uy, uz)
							fadv.Set(v, ix, iy, iz, val)
						default:
							fadv.Set(v, ix, iy, iz, f.At(v, src[0], src[1], src[2]))
						}
					}
				}
			}
		}
		for ix := 0; ix < n.NX; ix++ {
			for iy := 0; iy < n.NY; iy++ {
				for iz := 0; iz < n.NZ; iz++ {
					if isSolid(ix, iy, iz) {
						continue
					}
					fadv.Cell(ix, iy, iz, fc)
					rho, jx, jy, jz := m.Moments(fc)
					ux := jx/rho + tau*accel[0]
					uy := jy/rho + tau*accel[1]
					uz := jz/rho + tau*accel[2]
					m.Equilibrium(rho, ux, uy, uz, feq)
					for v := 0; v < m.Q; v++ {
						f.Set(v, ix, iy, iz, fc[v]-(fc[v]-feq[v])/tau)
					}
				}
			}
		}
	}
	return f
}

// runAndCompareBounded executes cfg and holds it to the bounded oracle
// (comparison over fluid cells via boundary_test.go's maxDiffFluid).
func runAndCompareBounded(t *testing.T, cfg Config) *Result {
	t.Helper()
	cfg.KeepField = true
	if cfg.Init == nil {
		cfg.Init = waveInit(cfg.N)
	}
	res, err := Run(cfg)
	if err != nil {
		t.Fatalf("%s decomp=%v depth=%d: %v", cfg.Opt, cfg.Decomp, cfg.GhostDepth, err)
	}
	want := refSolverBounded(cfg.Model, cfg.N, cfg.Tau, cfg.Steps, cfg.Init, cfg.Boundary, cfg.Solid, cfg.Accel)
	if d := maxDiffFluid(res.Field, want, maskAtFn(cfg.Solid)); d > eqTol {
		t.Errorf("%s %s decomp=%v depth=%d: max |Δf| vs bounded oracle = %g (tol %g)",
			cfg.Model.Name, cfg.Opt, cfg.Decomp, cfg.GhostDepth, d, eqTol)
	}
	return res
}

// cavityWallsSpec: walls on x and y, moving lid on high y, periodic z.
func cavityWallsSpec(u float64) *BoundarySpec { return CavitySpec(u) }

func TestBoundedCavityAgainstOracleQ19(t *testing.T) {
	n := grid.Dims{NX: 8, NY: 8, NZ: 6}
	spec := cavityWallsSpec(0.08)
	for _, opt := range []OptLevel{OptGC, OptDH, OptCF, OptLoBr, OptNBC, OptGCC, OptSIMD} {
		for _, p := range [][3]int{{1, 1, 1}, {2, 2, 1}, {2, 2, 2}} {
			runAndCompareBounded(t, Config{
				Model: lattice.D3Q19(), N: n, Tau: 0.8, Steps: 5,
				Opt: opt, Ranks: p[0] * p[1] * p[2], Decomp: p, Threads: 1, GhostDepth: 1,
				Boundary: spec,
			})
		}
	}
}

func TestBoundedCavityAgainstOracleQ39(t *testing.T) {
	// k = 3 for D3Q39: every axis needs at least w = depth·3 owned cells.
	n := grid.Dims{NX: 8, NY: 8, NZ: 6}
	spec := cavityWallsSpec(0.05)
	for _, opt := range []OptLevel{OptGC, OptSIMD} {
		runAndCompareBounded(t, Config{
			Model: lattice.D3Q39(), N: n, Tau: 0.9, Steps: 4,
			Opt: opt, Ranks: 2, Decomp: [3]int{2, 1, 1}, Threads: 1, GhostDepth: 1,
			Boundary: spec,
		})
	}
}

// TestBoundedDeepHalo: wall and moving-wall faces are enforced by
// post-stream fixups every step, so they must agree with the per-step
// oracle at every ghost depth.
func TestBoundedDeepHalo(t *testing.T) {
	n := grid.Dims{NX: 12, NY: 12, NZ: 8}
	spec := cavityWallsSpec(0.08)
	for _, depth := range []int{2, 3} {
		for _, steps := range []int{4, 7} {
			runAndCompareBounded(t, Config{
				Model: lattice.D3Q19(), N: n, Tau: 0.8, Steps: steps,
				Opt: OptSIMD, Ranks: 4, Decomp: [3]int{2, 2, 1}, Threads: 1, GhostDepth: depth,
				Boundary: spec,
			})
		}
	}
}

// TestBoundedOutflow: zero-gradient faces refresh ghosts once per cycle,
// so the oracle comparison pins the depth-1 schedule (one fill per step).
func TestBoundedOutflow(t *testing.T) {
	n := grid.Dims{NX: 10, NY: 8, NZ: 6}
	var spec BoundarySpec
	spec.Faces[0][0] = Face{Kind: BCWall}
	spec.Faces[0][1] = Face{Kind: BCOutflow}
	spec.Faces[1][0] = Face{Kind: BCWall}
	spec.Faces[1][1] = Face{Kind: BCWall}
	for _, p := range [][3]int{{1, 1, 1}, {2, 2, 1}, {2, 1, 2}} {
		runAndCompareBounded(t, Config{
			Model: lattice.D3Q19(), N: n, Tau: 0.8, Steps: 6,
			Opt: OptSIMD, Ranks: p[0] * p[1] * p[2], Decomp: p, Threads: 1, GhostDepth: 1,
			Boundary: &spec,
		})
	}
}

// TestBoundedThreading: the fixup and fill paths must be thread-count
// invariant.
func TestBoundedThreading(t *testing.T) {
	n := grid.Dims{NX: 10, NY: 10, NZ: 6}
	spec := cavityWallsSpec(0.08)
	for _, threads := range []int{2, 4} {
		runAndCompareBounded(t, Config{
			Model: lattice.D3Q19(), N: n, Tau: 0.85, Steps: 4,
			Opt: OptSIMD, Ranks: 2, Decomp: [3]int{1, 2, 1}, Threads: threads, GhostDepth: 2,
			Boundary: spec,
		})
	}
}

// TestBoundedSolidObstacle: interior solid mask combined with bounded
// global faces — the arterial-geometry combination the paper motivates.
func TestBoundedSolidObstacle(t *testing.T) {
	n := grid.Dims{NX: 12, NY: 10, NZ: 6}
	solid := func(ix, iy, iz int) bool {
		dx, dy := ix-6, iy-5
		return dx*dx+dy*dy < 4
	}
	spec := cavityWallsSpec(0.06)
	for _, p := range [][3]int{{1, 1, 1}, {2, 2, 1}} {
		runAndCompareBounded(t, Config{
			Model: lattice.D3Q19(), N: n, Tau: 0.8, Steps: 6,
			Opt: OptSIMD, Ranks: p[0] * p[1] * p[2], Decomp: p, Threads: 1, GhostDepth: 1,
			Boundary: spec, Solid: geom.FromFunc(n, solid),
		})
	}
}

// TestBoundedCrossDecomposition is the bounded twin of
// TestCrossDecompositionEquivalence: the same lid-driven problem solved
// with 1-D, 2-D and 3-D rank grids must agree on the final field to
// within float reassociation and on the conserved sums to 1e-12.
func TestBoundedCrossDecomposition(t *testing.T) {
	n := grid.Dims{NX: 24, NY: 24, NZ: 8}
	steps := 30
	if testing.Short() {
		steps = 8
	}
	base := Config{
		Model: lattice.D3Q19(), N: n, Tau: 0.8, Steps: steps,
		Opt: OptSIMD, Ranks: 8, Threads: 1, GhostDepth: 1,
		Boundary: cavityWallsSpec(0.1), KeepField: true,
	}
	shapes := [][3]int{{8, 1, 1}, {4, 2, 1}, {2, 2, 2}}
	results := make([]*Result, len(shapes))
	for i, p := range shapes {
		cfg := base
		cfg.Decomp = p
		res, err := Run(cfg)
		if err != nil {
			t.Fatalf("decomp %v: %v", p, err)
		}
		results[i] = res
	}
	ref := results[0]
	for i, p := range shapes[1:] {
		res := results[i+1]
		if d := grid.MaxAbsDiff(ref.Field, res.Field); d > 1e-12 {
			t.Errorf("decomp %v vs 1-D: max |Δf| = %g", p, d)
		}
		if d := math.Abs(res.Mass - ref.Mass); d > 1e-12*ref.Mass {
			t.Errorf("decomp %v: mass %0.15f vs 1-D %0.15f", p, res.Mass, ref.Mass)
		}
		for _, m := range []struct {
			got, want float64
			name      string
		}{
			{res.MomX, ref.MomX, "px"}, {res.MomY, ref.MomY, "py"}, {res.MomZ, ref.MomZ, "pz"},
		} {
			if math.Abs(m.got-m.want) > 1e-12*ref.Mass {
				t.Errorf("decomp %v: %s = %g vs 1-D %g", p, m.name, m.got, m.want)
			}
		}
	}
	// Sanity: the lid must have set the cavity in motion.
	if results[0].MomX <= 0 {
		t.Errorf("lid-driven cavity momentum not positive: %g", results[0].MomX)
	}
}

// TestBounceBackMassConservationRandomMasks is the property test:
// stationary bounce-back — random interior solids and global walls alike
// — conserves fluid mass exactly (to summation roundoff), because every
// population that leaves the fluid across a wall link is re-injected at
// the same cell.
func TestBounceBackMassConservationRandomMasks(t *testing.T) {
	n := grid.Dims{NX: 14, NY: 12, NZ: 10}
	var wallSpec BoundarySpec
	wallSpec.Faces[0][0] = Face{Kind: BCWall}
	wallSpec.Faces[0][1] = Face{Kind: BCWall}
	wallSpec.Faces[1][0] = Face{Kind: BCWall}
	wallSpec.Faces[1][1] = Face{Kind: BCWall}
	for trial := 0; trial < 5; trial++ {
		rng := metrics.NewRNG(uint64(trial)*0x9e3779b9 + 7)
		mask := make([]bool, n.Cells())
		for c := range mask {
			mask[c] = rng.Float64() < 0.2
		}
		solid := func(ix, iy, iz int) bool { return mask[n.Index(ix, iy, iz)] }
		init := waveInit(n)
		var mass0 float64
		for ix := 0; ix < n.NX; ix++ {
			for iy := 0; iy < n.NY; iy++ {
				for iz := 0; iz < n.NZ; iz++ {
					if solid(ix, iy, iz) {
						continue
					}
					rho, _, _, _ := init(ix, iy, iz)
					mass0 += rho
				}
			}
		}
		for _, boundary := range []*BoundarySpec{nil, &wallSpec} {
			res, err := Run(Config{
				Model: lattice.D3Q19(), N: n, Tau: 0.8, Steps: 12,
				Opt: OptSIMD, Ranks: 4, Decomp: [3]int{2, 2, 1}, Threads: 1, GhostDepth: 1,
				Solid: geom.FromFunc(n, solid), Boundary: boundary, Init: init,
			})
			if err != nil {
				t.Fatalf("trial %d boundary=%v: %v", trial, boundary != nil, err)
			}
			if d := math.Abs(res.Mass - mass0); d > 1e-10*mass0 {
				t.Errorf("trial %d boundary=%v: fluid mass drifted %g (rel %g)", trial, boundary != nil, d, d/mass0)
			}
		}
	}
}

// TestBoundedValidation pins the configuration errors of the boundary
// layer.
func TestBoundedValidation(t *testing.T) {
	base := Config{
		Model: lattice.D3Q19(), N: grid.Dims{NX: 8, NY: 8, NZ: 8},
		Tau: 0.8, Steps: 1, Ranks: 2, Opt: OptGC, GhostDepth: 1,
		Boundary: cavityWallsSpec(0.1),
	}
	cases := []struct {
		name string
		mod  func(c *Config)
	}{
		{"orig with boundaries", func(c *Config) { c.Opt = OptOrig }},
		{"mixed periodicity on one axis", func(c *Config) {
			s := *c.Boundary
			s.Faces[2][1] = Face{Kind: BCWall}
			c.Boundary = &s
		}},
		{"moving wall with normal velocity", func(c *Config) {
			s := *c.Boundary
			s.Faces[1][1].U = [3]float64{0, 0.1, 0}
			c.Boundary = &s
		}},
		{"velocity on a plain wall", func(c *Config) {
			s := *c.Boundary
			s.Faces[0][0].U = [3]float64{0.1, 0, 0}
			c.Boundary = &s
		}},
		{"bounded axis smaller than halo", func(c *Config) { c.GhostDepth = 5 }},
	}
	for _, tc := range cases {
		cfg := base
		tc.mod(&cfg)
		if _, err := Run(cfg); err == nil {
			t.Errorf("%s: invalid config accepted", tc.name)
		}
	}
	if _, err := Run(base); err != nil {
		t.Errorf("base bounded config rejected: %v", err)
	}
	// An all-periodic spec is the default domain and must behave like nil:
	// slab shapes keep the specialized stepper, every level including Orig
	// works.
	cfg := base
	cfg.Boundary = &BoundarySpec{}
	cfg.Opt = OptOrig
	if _, err := Run(cfg); err != nil {
		t.Errorf("all-periodic spec rejected on the Orig slab path: %v", err)
	}
}
