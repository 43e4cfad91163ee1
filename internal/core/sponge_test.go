package core

import (
	"math"
	"testing"

	"repro/internal/geom"
	"repro/internal/grid"
	"repro/internal/lattice"
)

// pulseResidual launches an acoustic density pulse in a flow-through
// channel closed by pressure outlets on both x faces and returns the
// largest density disturbance left in the domain after the wave fronts
// have had time to cross and leave. An ideal open boundary absorbs the
// pulse completely; the zero-gradient outlet reflects part of it back.
func pulseResidual(t *testing.T, sponge bool, stream StreamScheme) float64 {
	t.Helper()
	m := lattice.D3Q19()
	n := grid.Dims{NX: 96, NY: 4, NZ: 4}
	var spec BoundarySpec
	spec.Faces[0][0] = Face{Kind: BCPressureOutlet}
	spec.Faces[0][1] = Face{Kind: BCPressureOutlet}
	if sponge {
		// A gentle ramp absorbs best: steep σ gradients reflect at the
		// sponge entrance before the wave ever reaches the outlet.
		for s := 0; s < 2; s++ {
			spec.Faces[0][s].SpongeWidth = 20
			spec.Faces[0][s].SpongeStrength = 0.1
		}
	}
	// 2.5 domain crossings at the lattice sound speed: both fronts reach a
	// face, any reflection travels back through the interior, and the
	// sponged run's absorbed tail has fully drained.
	steps := int(2.5 * float64(n.NX) * math.Sqrt(3))
	cfg := Config{
		Model: m, N: n, Tau: 0.8, Steps: steps,
		Opt: OptGCC, Ranks: 2, Threads: 2, GhostDepth: 1,
		Boundary: &spec, Stream: stream, KeepField: true,
		Init: func(ix, iy, iz int) (rho, ux, uy, uz float64) {
			x := float64(ix) - float64(n.NX)/2
			return 1 + 0.05*math.Exp(-x*x/(2*36)), 0, 0, 0
		},
	}
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	fc := make([]float64, m.Q)
	var worst float64
	for ix := 0; ix < n.NX; ix++ {
		for iy := 0; iy < n.NY; iy++ {
			for iz := 0; iz < n.NZ; iz++ {
				res.Field.Cell(ix, iy, iz, fc)
				rho, _, _, _ := m.Moments(fc)
				if d := math.Abs(rho - 1); d > worst {
					worst = d
				}
			}
		}
	}
	return worst
}

// TestSpongeAbsorbsOutletReflection: the ramped-equilibrium sponge ahead
// of a pressure outlet must swallow most of what the bare zero-gradient
// copy reflects — the mechanism behind the Re=100 drag-envelope ripple,
// reduced here to a cheap acoustic pulse. Checked on both streaming
// schemes (the AA kernels apply the sponge inside their collide rows).
func TestSpongeAbsorbsOutletReflection(t *testing.T) {
	for _, tc := range []struct {
		name   string
		stream StreamScheme
	}{{"twogrid", StreamTwoGrid}, {"aa", StreamAA}} {
		t.Run(tc.name, func(t *testing.T) {
			bare := pulseResidual(t, false, tc.stream)
			damped := pulseResidual(t, true, tc.stream)
			if damped > bare/3 {
				t.Errorf("sponge left %.2e residual disturbance, bare outlet %.2e; want at least 3x absorption", damped, bare)
			}
			t.Logf("residual |rho-1|: bare %.3e, sponged %.3e (%.1fx)", bare, damped, bare/damped)
		})
	}
}

// TestSpongeSchemeEquivalence: the sponge must leave AA and two-grid within
// reassociation tolerance of each other (the shared applySpongeRow makes it
// bit-equal per cell), and — blended inside the one row body on every path
// — the gather sweep (SIMD) equal to GC-C's split path at 0 ULP on the
// fluid cells of a channel whose cylinder sits in the sponge layer.
func TestSpongeSchemeEquivalence(t *testing.T) {
	n := grid.Dims{NX: 24, NY: 16, NZ: 16}
	spec := InletChannelSpec(0.04, nil)
	spec.Faces[0][1].SpongeWidth = 6
	spec.Faces[0][1].SpongeStrength = 0.2
	base := Config{
		Model: lattice.D3Q19(), N: n, Tau: 0.7, Steps: 6,
		Opt: OptGCC, Ranks: 4, Threads: 2, Decomp: [3]int{2, 2, 1}, GhostDepth: 1,
		Boundary: spec,
	}
	tg, aa := aaVariant(base)
	a := runField(t, tg)
	b := runField(t, aa)
	if d := grid.MaxAbsDiff(a, b); d > eqTol {
		t.Errorf("sponged AA vs two-grid: max |Δf| = %g (tol %g)", d, eqTol)
	}
	split := base
	split.Solid = geom.CylinderZ(n, 20, 7.5, 2.5)
	sweep := split
	sweep.Opt = OptSIMD
	if d := fluidMaxAbsDiff(runField(t, split), runField(t, sweep), split.Solid); d != 0 {
		t.Errorf("sponged channel with a cylinder: SIMD (gather) differs from GC-C (split) by %g on fluid cells (want 0 ULP)", d)
	}
}
