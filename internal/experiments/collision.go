package experiments

import (
	"fmt"
	"math"

	"repro/internal/collision"
	"repro/internal/core"
	"repro/internal/grid"
	"repro/internal/lattice"
	"repro/internal/physics"
)

// CollisionTable compares the collision operators with the real kernels
// on the local machine: transport-coefficient accuracy (shear-wave and
// Taylor-Green viscosity against ν = c_s²(τ−½)), stability on the
// under-resolved τ = 0.51 Re=1000 cavity that motivates the subsystem
// (BGK diverges there; the split-rate operators survive), and the
// per-cell cost of the generic operator kernel relative to the BGK fast
// path. This is the beyond-paper experiment the collision axis unlocks —
// the paper's §V ladder fixes BGK, which caps the reachable Reynolds
// number regardless of how fast the kernels run.
func CollisionTable(modelName string) (*Table, error) {
	m, err := lattice.ByName(modelName)
	if err != nil {
		return nil, err
	}
	specs := []collision.Spec{
		{Kind: collision.BGK},
		{Kind: collision.TRT},
		{Kind: collision.TRT, Magic: 3.0 / 16},
		{Kind: collision.MRT},
	}
	t := &Table{
		Title: fmt.Sprintf("Collision operators (real kernels) — %s, viscosity accuracy, low-tau stability, kernel cost", m.Name),
		Header: []string{"operator", "shear nu err (tau=0.7)", "TG nu err (tau=0.8)",
			"tau=0.51 Re=1000 cavity", "MFlup/s (periodic 32^3)"},
	}
	// Size the stability cavity so the lid runs at ≈ 0.1 lattice units
	// (Re = 1000 at τ = 0.51 then fixes L = Re·ν/0.1 = 100·c_s²: 33 for
	// D3Q19, 67 for D3Q39); much faster lids exceed the low-Mach envelope
	// for every operator, slower ones stop stressing τ → ½.
	const stabSteps = 1500
	stabL := int(100*m.CsSq + 0.5)
	for _, spec := range specs {
		mod := func(c *core.Config) { c.Collision = spec }
		shear, err := physics.ShearWaveViscosity(m, grid.Dims{NX: 32, NY: 6, NZ: 6}, 0.7, 80, mod)
		if err != nil {
			return nil, err
		}
		tg, err := physics.TaylorGreenViscosity(m, grid.Dims{NX: 24, NY: 24, NZ: 6}, 0.8, 80, mod)
		if err != nil {
			return nil, err
		}
		stable, err := lowTauCavityStable(m, spec, stabL, stabSteps)
		if err != nil {
			return nil, err
		}
		perf, err := core.Run(core.Config{
			Model: m, N: grid.Dims{NX: 32, NY: 32, NZ: 32}, Tau: 0.8, Steps: 10,
			Opt: core.OptSIMD, Ranks: 1, Threads: 1, GhostDepth: 1,
			Collision: spec,
		})
		if err != nil {
			return nil, err
		}
		t.Rows = append(t.Rows, []string{
			spec.String(),
			fmt.Sprintf("%.2f%%", 100*shear.RelError),
			fmt.Sprintf("%.2f%%", 100*tg.RelError),
			stable,
			fmt.Sprintf("%.1f", perf.MFlups),
		})
	}
	t.Notes = append(t.Notes,
		"viscosity is set by the shear rate 1/tau alone: all operators hit the same nu within tolerance",
		fmt.Sprintf("stability column: %d steps of an under-resolved L=%d cavity at tau=0.51 (Re=1000); BGK's divergence is the tau->1/2 wall TRT/MRT remove", stabSteps, stabL),
		"BGK runs the pair-symmetric row kernel; trt runs it with fused even/odd pair relaxes; mrt relaxes whole rows through its operator row kernel")
	return t, nil
}

// RealCollision is CollisionTable for the description's model. The
// table sweeps its own operators on its own boxes, steps and single
// ranks, so it refuses every other -real flag.
func RealCollision(r Run) (*Table, error) {
	if err := r.ignores("collision", "sweeps its own operators on its own boxes and steps", "ranks", "threads", "steps", "decomp", "depth", "collision", "stream"); err != nil {
		return nil, err
	}
	return CollisionTable(r.Model.Name)
}

// lowTauCavityStable runs the under-resolved low-tau cavity and reports
// "stable" or "DIVERGED".
func lowTauCavityStable(m *lattice.Model, spec collision.Spec, l, steps int) (string, error) {
	const tau, re = 0.51, 1000.0
	cav := physics.CavityConfig{Model: m, L: l, Re: re, LidU: re * m.Viscosity(tau) / float64(l), Steps: steps}
	res, err := physics.RunCavity(cav, func(c *core.Config) { c.Collision = spec })
	if err != nil {
		return "", err
	}
	if mass := res.Res.Mass; math.IsNaN(mass) || math.IsInf(mass, 0) {
		return "DIVERGED", nil
	}
	return "stable", nil
}
