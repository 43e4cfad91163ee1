package core

// Non-periodic global boundaries. The paper positions its solver as the
// fluid engine for "complicated geometries … in irregular boundary
// conditions" (§I-II); this file supplies the global-boundary half of that
// story (the interior half is the solid mask of boundary.go). A
// BoundarySpec assigns a condition to each of the six global faces; a face
// that is not periodic turns its axis into a bounded axis: the halo layer
// skips the wraparound exchange across it and the stepper fills the ghost
// face from boundary data instead —
//
//   - walls and moving walls reuse the halfway bounce-back fixup
//     machinery (post-stream population replacement, with the standard
//     2·w_v·ρ0·(c_v·u_w)/c_s² momentum correction for a moving face), so
//     every optimization level's kernels stay untouched;
//
//   - outflow faces are zero-gradient: the ghost layers are refreshed each
//     cycle with a copy of the outermost owned layer.
//
// A bounded axis always carries ghosts, even uncut on a slab-shaped rank
// grid: the boundary data lives in its ghost faces. The run's periodic
// axes are unaffected — an uncut one is still left to the kernels' own
// wrap (GhostWidths).

import "fmt"

// BCKind identifies the condition on one global boundary face.
type BCKind int

const (
	// BCPeriodic wraps the face to the opposite one (the default).
	BCPeriodic BCKind = iota
	// BCWall is a halfway bounce-back no-slip wall half a link beyond the
	// outermost cell layer.
	BCWall
	// BCMovingWall is a halfway bounce-back wall translating with the
	// face's tangential velocity U (lid-driven flows), via bounce-back
	// with momentum correction.
	BCMovingWall
	// BCOutflow is a zero-gradient open face: ghost layers copy the
	// outermost interior layer. It imposes nothing on the pressure, so a
	// domain driven by a velocity inlet should close with BCPressureOutlet
	// instead — with both ends prescribing fluxes that ignore the local
	// density, the mean density drifts without bound.
	BCOutflow
	// BCPressureOutlet is an open face anchored at unit density: ghost
	// layers hold the non-equilibrium extrapolation of the outermost
	// interior layer (Guo et al.) — the layer's populations with their
	// equilibrium part re-evaluated at ρ0 = 1 and the local velocity,
	//
	//	f_ghost = f + f_eq(ρ0, u) − f_eq(ρ, u),
	//
	// which keeps the zero-gradient velocity behaviour of BCOutflow while
	// pinning the outlet pressure, the closure a velocity-inlet channel
	// needs for a steady mass balance.
	BCPressureOutlet
	// BCInlet is a Zou-He velocity inlet: the face prescribes the full flow
	// velocity (normal component included, pointing into the domain),
	// either uniformly (Face.U) or per lattice point (Face.Profile). The
	// unknown populations entering the domain are reconstructed by the
	// non-equilibrium bounce-back inversion: split each opposite-velocity
	// pair into its even and odd parts — exactly the TRT pair algebra of
	// the collision subsystem — bounce the even (non-equilibrium) part
	// like a wall, and prescribe the odd part from the wall equilibrium:
	//
	//	f_v = f_opp + (f_eq_v − f_eq_opp)|(ρ0=1, u_w)
	//
	// which rides the standard bounce-back fixup machinery with a per-link
	// delta (the parenthesized odd part, third-order equilibrium terms
	// included for the D3Q39 lattice). Ghost layers behind the face hold
	// the inlet equilibrium so extended deep-halo collisions stay stable.
	BCInlet
)

var bcNames = map[BCKind]string{
	BCPeriodic: "periodic", BCWall: "wall", BCMovingWall: "moving-wall",
	BCOutflow: "outflow", BCInlet: "velocity-inlet", BCPressureOutlet: "pressure-outlet",
}

func (k BCKind) String() string {
	if s, ok := bcNames[k]; ok {
		return s
	}
	return fmt.Sprintf("BCKind(%d)", int(k))
}

// Face is the condition on one global boundary face.
type Face struct {
	Kind BCKind
	// U is the wall velocity of a BCMovingWall face (tangential only — zero
	// component along the face normal) or the uniform inflow velocity of a
	// BCInlet face (normal component required, pointing into the domain).
	// Ignored for other kinds.
	U [3]float64
	// Profile, for a BCInlet face, prescribes a spatially varying inflow
	// velocity: it is evaluated at global lattice coordinates with the
	// face-normal coordinate clamped to the outermost in-domain layer (the
	// wall itself sits half a link beyond). Non-nil Profile overrides U.
	// The returned velocity must point into the domain. Must be nil for
	// every other kind.
	Profile func(gx, gy, gz int) [3]float64
	// SpongeWidth and SpongeStrength, on a BCPressureOutlet face, enable an
	// absorbing layer over the SpongeWidth global lattice columns adjacent
	// to the face: each post-collision state is blended toward its local
	// equilibrium by σ(g) = SpongeStrength·ξ², with ξ ramping quadratically
	// from 0 at the layer's inner edge to 1 at the outlet. The layer damps
	// vortices before they reach the outlet's zero-gradient copy, removing
	// the pressure-wave reflection that otherwise ripples the measured drag.
	// Strength must lie in (0, 1]; set both fields or neither.
	SpongeWidth    int
	SpongeStrength float64
}

// velocityAt resolves the face's prescribed velocity at a global lattice
// point (Profile when set, the uniform U otherwise).
func (f *Face) velocityAt(gx, gy, gz int) [3]float64 {
	if f.Profile != nil {
		return f.Profile(gx, gy, gz)
	}
	return f.U
}

// BoundarySpec assigns a condition to each global face:
// Faces[axis][0] is the low face (global index -1/2), Faces[axis][1] the
// high face. An axis whose faces are both BCPeriodic behaves exactly like
// the default periodic domain; mixing periodic with non-periodic on one
// axis is invalid (periodicity is an axis property).
type BoundarySpec struct {
	Faces [3][2]Face
}

// CavitySpec returns the lid-driven cavity boundary: no-slip walls on x
// and y except the high-y lid moving with velocity u along +x; z stays
// periodic (the quasi-2-D spanwise direction of Hou et al.).
func CavitySpec(u float64) *BoundarySpec {
	var b BoundarySpec
	b.Faces[0][0] = Face{Kind: BCWall}
	b.Faces[0][1] = Face{Kind: BCWall}
	b.Faces[1][0] = Face{Kind: BCWall}
	b.Faces[1][1] = Face{Kind: BCMovingWall, U: [3]float64{u, 0, 0}}
	return &b
}

// ChannelSpec returns a wall-bounded channel: no-slip walls on the y
// faces, everything else periodic (drive it with Config.Accel for
// Poiseuille flow).
func ChannelSpec() *BoundarySpec {
	var b BoundarySpec
	b.Faces[1][0] = Face{Kind: BCWall}
	b.Faces[1][1] = Face{Kind: BCWall}
	return &b
}

// InletChannelSpec returns an open flow-through channel: a Zou-He
// velocity inlet on the low-x face (uniform u along +x, or the given
// profile), a unit-density zero-gradient outlet on the high-x face (the
// pressure anchor a velocity-driven channel needs — see BCPressureOutlet),
// no-slip walls on the y faces and a periodic (quasi-2-D spanwise) z
// axis — the inlet → obstacle → outflow geometry of the vortex-shedding
// scenario.
func InletChannelSpec(u float64, profile func(gx, gy, gz int) [3]float64) *BoundarySpec {
	var b BoundarySpec
	b.Faces[0][0] = Face{Kind: BCInlet, U: [3]float64{u, 0, 0}, Profile: profile}
	b.Faces[0][1] = Face{Kind: BCPressureOutlet}
	b.Faces[1][0] = Face{Kind: BCWall}
	b.Faces[1][1] = Face{Kind: BCWall}
	return &b
}

// AxisPeriodic reports whether axis keeps periodic wrap semantics. A nil
// spec is fully periodic.
func (b *BoundarySpec) AxisPeriodic(axis int) bool {
	return b == nil || b.Faces[axis][0].Kind == BCPeriodic
}

// BoundedAxes returns the per-axis non-periodicity flags.
func (b *BoundarySpec) BoundedAxes() [3]bool {
	var out [3]bool
	for a := 0; a < 3; a++ {
		out[a] = !b.AxisPeriodic(a)
	}
	return out
}

// validate checks face-kind consistency.
func (b *BoundarySpec) validate() error {
	if b == nil {
		return nil
	}
	for a := 0; a < 3; a++ {
		lo, hi := b.Faces[a][0], b.Faces[a][1]
		if (lo.Kind == BCPeriodic) != (hi.Kind == BCPeriodic) {
			return fmt.Errorf("core: axis %d mixes %s and %s faces (periodicity is an axis property)", a, lo.Kind, hi.Kind)
		}
		for s, f := range [2]Face{lo, hi} {
			switch f.Kind {
			case BCMovingWall:
				if f.U[a] != 0 {
					return fmt.Errorf("core: axis %d side %d moving wall has normal velocity %g (tangential only)", a, s, f.U[a])
				}
			case BCInlet:
				// The inflow must point into the domain: positive normal
				// component on the low face, negative on the high one.
				// A Profile is trusted to do the same (not checkable here).
				if f.Profile == nil {
					inward := f.U[a]
					if s == 1 {
						inward = -inward
					}
					if inward <= 0 {
						return fmt.Errorf("core: axis %d side %d velocity inlet must flow into the domain (normal velocity %g)", a, s, f.U[a])
					}
				}
			default:
				if f.U != ([3]float64{}) {
					return fmt.Errorf("core: axis %d side %d %s face carries a wall velocity (only moving walls and inlets move)", a, s, f.Kind)
				}
			}
			if f.Kind != BCInlet && f.Profile != nil {
				return fmt.Errorf("core: axis %d side %d %s face carries a velocity profile (inlet-only)", a, s, f.Kind)
			}
			if f.SpongeWidth != 0 || f.SpongeStrength != 0 {
				if f.Kind != BCPressureOutlet {
					return fmt.Errorf("core: axis %d side %d %s face carries a sponge layer (pressure-outlet-only)", a, s, f.Kind)
				}
				if f.SpongeWidth <= 0 || f.SpongeStrength <= 0 {
					return fmt.Errorf("core: axis %d side %d sponge needs both a positive width and a positive strength (got width %d, strength %g)", a, s, f.SpongeWidth, f.SpongeStrength)
				}
				if f.SpongeStrength > 1 {
					return fmt.Errorf("core: axis %d side %d sponge strength %g out of range (0, 1]", a, s, f.SpongeStrength)
				}
			}
		}
	}
	return nil
}

// hasWallFaces reports whether any face uses the bounce-back fixup
// machinery: walls, moving walls and velocity inlets (whose Zou-He
// inversion is a bounce-back with a prescribed odd part).
func (b *BoundarySpec) hasWallFaces() bool { return b.hasFace(BCWall, BCMovingWall, BCInlet) }

// profiledInlet reports whether a velocity-inlet face prescribes a
// Profile: the one face whose bounce-back δ varies from cell to cell.
func (b *BoundarySpec) profiledInlet() bool {
	if b == nil {
		return false
	}
	for a := range b.Faces {
		for _, f := range b.Faces[a] {
			if f.Kind == BCInlet && f.Profile != nil {
				return true
			}
		}
	}
	return false
}

// hasFace reports whether any face is of one of the given kinds.
func (b *BoundarySpec) hasFace(kinds ...BCKind) bool {
	if b == nil {
		return false
	}
	for a := 0; a < 3; a++ {
		for s := 0; s < 2; s++ {
			for _, k := range kinds {
				if b.Faces[a][s].Kind == k {
					return true
				}
			}
		}
	}
	return false
}
