// Package scenario is the registry of named flow scenarios behind the
// lbmrun CLI: each scenario turns the generic flag set (domain, Reynolds
// number, geometry file, ...) into a solver configuration and knows how to
// report its own physics after the run. The CLI derives its help text and
// its unknown-scenario errors from the registry, so adding a scenario here
// is the whole job — no switch statements to keep in sync.
package scenario

import (
	"fmt"
	"math"
	"sort"
	"strings"

	"repro/internal/collision"
	"repro/internal/core"
	"repro/internal/geom"
	"repro/internal/grid"
	"repro/internal/lattice"
	"repro/internal/physics"
)

// Params carries the scenario-relevant CLI flags. Configure may read any
// of them; flags a scenario ignores are simply unused.
type Params struct {
	Model *lattice.Model
	// N is the requested global domain (-nx/-ny/-nz). Scenarios with an
	// intrinsic geometry (channel) override it and report the final shape
	// through the Config.
	N grid.Dims
	// Amplitude is the initial perturbation amplitude (wave).
	Amplitude float64
	// Re is the Reynolds number (cavity: LidU·NY/ν; channel: Ū·D/ν).
	Re float64
	// LidU is the cavity lid speed in lattice units.
	LidU float64
	// UMean is the channel mean inflow speed Ū in lattice units.
	UMean float64
	// D is the channel cylinder diameter in cells (the resolution knob).
	D int
	// GeomPath optionally loads a voxel mask (-geom): extra obstacles for
	// wave, a replacement for the default cylinder in channel.
	GeomPath string
	// StepsSet reports whether the user pinned -steps (scenarios with a
	// physics-determined default run length honor the override).
	StepsSet bool
	// channel carries the benchmark's geometry/measurement shell from
	// Configure to Report.
	channel *physics.CylinderChannelResult
	// CollisionSet reports whether the user picked -collision explicitly
	// (the channel defaults to TRT otherwise — its τ ≈ 0.53 sits where
	// BGK is fragile next to voxelized walls).
	CollisionSet bool
}

// Scenario is one registered flow setup.
type Scenario struct {
	Name string
	// Summary is the one-line description the CLI help derives.
	Summary string
	// Configure turns the flag values into the final solver config. cfg
	// arrives pre-filled with the generic flags (model, opt level, ranks,
	// decomposition, threads, depth, collision, steps); Configure writes
	// only what the scenario owns (domain, tau, boundaries, geometry,
	// init, measurement) and leaves the execution settings as they came.
	// A flow with a set-up in internal/physics writes it through that
	// set-up, so the scenario and the physics runner share one.
	Configure func(p *Params, cfg *core.Config) error
	// Report, when non-nil, prints scenario-specific physics after the
	// run (centerline errors, force coefficients, ...). The returned
	// lines are printed verbatim by the CLI.
	Report func(p *Params, cfg *core.Config, res *core.Result) []string
}

var registry = map[string]*Scenario{}

// Register adds a scenario; duplicate names panic (registration is
// package-init time).
func Register(s *Scenario) {
	if _, dup := registry[s.Name]; dup {
		panic("scenario: duplicate " + s.Name)
	}
	registry[s.Name] = s
}

// Names lists the registered scenarios, sorted.
func Names() []string {
	out := make([]string, 0, len(registry))
	for name := range registry {
		out = append(out, name)
	}
	sort.Strings(out)
	return out
}

// Get resolves a scenario by name; the error of an unknown name lists
// every valid one.
func Get(name string) (*Scenario, error) {
	if s, ok := registry[name]; ok {
		return s, nil
	}
	return nil, fmt.Errorf("scenario: unknown scenario %q (want %s)", name, strings.Join(Names(), ", "))
}

// Usage returns the one-line flag help derived from the registry.
func Usage() string {
	var parts []string
	for _, name := range Names() {
		parts = append(parts, fmt.Sprintf("%s (%s)", name, registry[name].Summary))
	}
	return "flow scenario: " + strings.Join(parts, ", ")
}

// loadGeom loads the -geom voxel mask and checks it against the domain.
func loadGeom(path string, n grid.Dims) (*geom.Mask, error) {
	m, err := geom.Load(path)
	if err != nil {
		return nil, err
	}
	if m.D != n {
		return nil, fmt.Errorf("scenario: -geom mask is %v, domain is %v", m.D, n)
	}
	return m, nil
}

func init() {
	Register(&Scenario{
		Name:    "wave",
		Summary: "periodic shear wave, optional -geom obstacles",
		Configure: func(p *Params, cfg *core.Config) error {
			n, a := p.N, p.Amplitude
			cfg.Init = func(ix, iy, iz int) (rho, ux, uy, uz float64) {
				x := 2 * math.Pi * float64(ix) / float64(n.NX)
				y := 2 * math.Pi * float64(iy) / float64(n.NY)
				return 1 + a*math.Sin(x)*math.Cos(y), a * math.Sin(y), -a * math.Cos(x), 0
			}
			if p.GeomPath != "" {
				m, err := loadGeom(p.GeomPath, n)
				if err != nil {
					return err
				}
				cfg.Solid = m
			}
			return nil
		},
	})

	Register(&Scenario{
		Name:    "cavity",
		Summary: "bounded lid-driven cavity, -re sets tau",
		Configure: func(p *Params, cfg *core.Config) error {
			// Lid along +x on the high-y face; z periodic (quasi-2-D).
			// Re = LidU·NY/ν sets tau; -nx stretches the box along the
			// lid without changing it.
			flow := physics.CavityConfig{Model: cfg.Model, L: p.N.NY, NZ: p.N.NZ, Re: p.Re, LidU: p.LidU}
			if p.StepsSet {
				flow.Steps = cfg.Steps
			}
			if err := flow.Configure(cfg); err != nil {
				return err
			}
			cfg.N.NX = p.N.NX
			cfg.KeepField = true // the report reads the centerlines
			return nil
		},
		Report: func(p *Params, cfg *core.Config, res *core.Result) []string {
			if p.N.NX != p.N.NY {
				return nil
			}
			prof := physics.CavityProfiles(cfg.Model, res.Field, p.LidU)
			eu, ev, err := prof.CompareCavity(int(p.Re))
			if err != nil {
				return nil
			}
			return []string{fmt.Sprintf("centerline   max |Δu| %.4f, |Δv| %.4f of lid speed vs Hou et al. Re=%d", eu, ev, int(p.Re))}
		},
	})

	Register(&Scenario{
		Name:    "channel",
		Summary: "inlet-driven flow past a cylinder, vortex shedding at -re 100",
		Configure: func(p *Params, cfg *core.Config) error {
			if !p.CollisionSet {
				cfg.Collision = collision.Spec{Kind: collision.TRT}
			}
			flow := physics.CylinderChannelConfig{Model: cfg.Model, D: p.D, Re: p.Re, UMean: p.UMean}
			if p.StepsSet {
				flow.Steps = cfg.Steps
			}
			shell, err := flow.Configure(cfg)
			if err != nil {
				return err
			}
			if p.GeomPath != "" {
				m, err := loadGeom(p.GeomPath, cfg.N)
				if err != nil {
					return err
				}
				cfg.Solid = m
			}
			p.channel = shell
			return nil
		},
		Report: func(p *Params, cfg *core.Config, res *core.Result) []string {
			shell := p.channel
			if shell == nil {
				return nil
			}
			if err := shell.Analyze(res); err != nil {
				return []string{"channel      " + err.Error()}
			}
			out := []string{fmt.Sprintf("forces       mean Cd %.4f (max %.4f), max |Cl| %.4f over steps [%d, %d)",
				shell.Cd, shell.CdMax, shell.ClMax, shell.From, shell.Steps)}
			if shell.St > 0 {
				out = append(out, fmt.Sprintf("shedding     St = %.4f over %d periods", shell.St, shell.Periods))
			} else {
				out = append(out, "shedding     none detected (steady wake)")
			}
			if ref, ok := physics.CylinderRefFor(p.Re); ok {
				line := fmt.Sprintf("reference    Schaefer-Turek Re=%g: Cd in [%.2f, %.2f]", ref.Re, ref.CdLo, ref.CdHi)
				if ref.StLo > 0 {
					line += fmt.Sprintf(", St in [%.3f, %.3f]", ref.StLo, ref.StHi)
				}
				out = append(out, line)
			}
			return out
		},
	})
}
