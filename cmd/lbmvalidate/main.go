// Command lbmvalidate runs the physics validation suite: lattice sanity
// (weights, isotropy order), viscosity from shear-wave and Taylor-Green
// decay, sound speeds, conservation — for both velocity models — and the
// bounded-domain scenarios: the body-force Poiseuille channel between
// global wall faces and the lid-driven cavity against the Hou et al.
// Re=100/400 reference centerlines. It exits non-zero if any check fails
// its tolerance.
//
// Flags: -quick shrinks domains and step counts for CI; -list prints the
// check list (names and tolerances) without running anything — the
// golden-file regression test pins that output shape.
package main

import (
	"flag"
	"fmt"
	"io"
	"log"
	"math"
	"os"
	"runtime"
	"runtime/pprof"

	"repro/internal/collision"
	"repro/internal/core"
	"repro/internal/grid"
	"repro/internal/lattice"
	"repro/internal/physics"
)

// check is one validation: run returns a non-negative measure (usually a
// relative error) that must not exceed tol.
type check struct {
	name string
	tol  float64
	run  func() (measure float64, err error)
}

// suite assembles the validation checks. The quick variant shrinks
// domains and step counts but keeps every check's identity, so the -list
// output shape is the regression surface.
func suite(quick bool) []check {
	steps := 80
	shearN := grid.Dims{NX: 32, NY: 6, NZ: 6}
	tgN := grid.Dims{NX: 24, NY: 24, NZ: 6}
	soundN := grid.Dims{NX: 48, NY: 6, NZ: 6}
	// The cavity's step count scales with L inside RunCavity (16
	// convective times), so quick mode shrinks only the resolution.
	cavityL := 48
	if quick {
		steps = 40
		shearN = grid.Dims{NX: 16, NY: 6, NZ: 6}
		tgN = grid.Dims{NX: 16, NY: 16, NZ: 6}
		soundN = grid.Dims{NX: 32, NY: 6, NZ: 6}
		cavityL = 32
	}

	var cs []check
	for _, m := range []*lattice.Model{lattice.D3Q19(), lattice.D3Q39()} {
		m := m
		cs = append(cs, check{
			name: m.Name + " lattice consistency (weights, moments, symmetry)",
			tol:  0,
			run:  func() (float64, error) { return 0, m.Validate() },
		})
		wantOrder := 5
		if m.Order >= 3 {
			wantOrder = 7
		}
		cs = append(cs, check{
			name: fmt.Sprintf("%s isotropy through rank %d", m.Name, wantOrder),
			tol:  0.5,
			run: func() (float64, error) {
				if got := m.IsotropyOrder(wantOrder, 1e-12); got < wantOrder {
					return 1, nil
				}
				return 0, nil
			},
		})
		for _, tau := range []float64{0.7, 1.0} {
			tau := tau
			cs = append(cs, check{
				name: fmt.Sprintf("%s shear-wave viscosity (tau=%.1f)", m.Name, tau),
				tol:  0.05,
				run: func() (float64, error) {
					res, err := physics.ShearWaveViscosity(m, shearN, tau, steps, nil)
					if err != nil {
						return 0, err
					}
					return res.RelError, nil
				},
			})
		}
		cs = append(cs, check{
			name: m.Name + " Taylor-Green viscosity (tau=0.8)",
			tol:  0.07,
			run: func() (float64, error) {
				res, err := physics.TaylorGreenViscosity(m, tgN, 0.8, steps, nil)
				if err != nil {
					return 0, err
				}
				return res.RelError, nil
			},
		})
		cs = append(cs, check{
			name: m.Name + " sound speed",
			tol:  0.06,
			run: func() (float64, error) {
				res, err := physics.MeasureSoundSpeed(m, soundN, 0.8)
				if err != nil {
					return 0, err
				}
				return res.RelError, nil
			},
		})
		cs = append(cs, check{
			name: m.Name + " mass/momentum conservation (20 steps, 2 ranks)",
			tol:  1e-9,
			run:  func() (float64, error) { return conservation(m) },
		})
	}

	// Bounded-domain scenarios: the global-boundary wall path.
	cs = append(cs, check{
		name: "D3Q19 Poiseuille channel vs parabola (global walls, H=16)",
		tol:  0.02,
		run: func() (float64, error) {
			res, err := physics.PoiseuilleChannel(lattice.D3Q19(), 16, 1.0, 1e-6, 0, nil)
			if err != nil {
				return 0, err
			}
			return res.MaxRelErr, nil
		},
	})
	cs = append(cs, check{
		name: "D3Q39 Poiseuille channel vs parabola (global walls, H=18)",
		tol:  0.02,
		run: func() (float64, error) {
			res, err := physics.PoiseuilleChannel(lattice.D3Q39(), 18, 1.0, 1e-6, 0, nil)
			if err != nil {
				return 0, err
			}
			return res.MaxRelErr, nil
		},
	})
	cs = append(cs, check{
		name: fmt.Sprintf("lid-driven cavity Re=100 centerlines vs Hou et al. (L=%d)", cavityL),
		tol:  0.03,
		run:  func() (float64, error) { return cavityErr(100, cavityL, 0, collision.Spec{}) },
	})
	// Overlap schedule check: the per-axis overlap on the box stepper
	// (pencil shape, GC-C split and SIMD gather sweep) must agree with the
	// slab GC-C reference field to reassociation level.
	cs = append(cs, check{
		name: "overlap-box: pencil GC-C + SIMD vs slab GC-C (1e-12)",
		tol:  1e-12,
		run:  overlapBox,
	})
	// Collision-operator checks: TRT must reproduce the BGK viscosity
	// (the even/shear rate alone sets ν), for both lattices.
	cs = append(cs, check{
		name: "trt-viscosity: D3Q19+D3Q39 shear wave (tau=0.7, magic 1/4)",
		tol:  0.05,
		run: func() (float64, error) {
			worst := 0.0
			for _, m := range []*lattice.Model{lattice.D3Q19(), lattice.D3Q39()} {
				res, err := physics.ShearWaveViscosity(m, shearN, 0.7, steps, func(c *core.Config) {
					c.Collision = collision.Spec{Kind: collision.TRT}
				})
				if err != nil {
					return 0, err
				}
				worst = math.Max(worst, res.RelError)
			}
			return worst, nil
		},
	})
	// Cylinder-channel checks (the geometry subsystem end to end:
	// voxel mask, Zou-He inlet, pressure outlet, momentum-exchange
	// forces). Quick mode validates the steady 2D-1 drag at a coarser
	// cylinder; the full suite adds the vortex-shedding 2D-2 Strouhal.
	cylD := 10
	if quick {
		cylD = 8
	}
	cs = append(cs, check{
		name: "channel-cylinder: Re=20 steady drag vs Schaefer-Turek 2D-1",
		tol:  0.05,
		run:  func() (float64, error) { return cylinderSteadyErr(cylD) },
	})
	if !quick {
		cs = append(cs, check{
			name: "channel-cylinder: Re=100 Strouhal vs Schaefer-Turek 2D-2",
			tol:  0.05,
			run:  cylinderSheddingErr,
		})
		cs = append(cs, check{
			name: "lid-driven cavity Re=400 centerlines vs Hou et al. (L=48)",
			tol:  0.03,
			run:  func() (float64, error) { return cavityErr(400, 48, 16000, collision.Spec{}) },
		})
		// The workload the collision subsystem unlocks: Re=1000 needs TRT
		// (tau = 0.538 at L=64 diverges under BGK) and ~48 convective
		// times of spin-up.
		cs = append(cs, check{
			name: "cavity-re1000: TRT centerlines vs Ghia et al. (L=64)",
			tol:  0.03,
			run: func() (float64, error) {
				return cavityErr(1000, 64, 30720, collision.Spec{Kind: collision.TRT})
			},
		})
	}
	return cs
}

// trtThreads4 runs a cylinder channel with TRT on four threads.
func trtThreads4(c *core.Config) {
	c.Collision, c.Threads = collision.Spec{Kind: collision.TRT}, 4
}

// cylinderSteadyErr runs the Schäfer-Turek 2D-1 case (Re = 20, steady)
// and returns the drag coefficient's relative deviation from the
// reference interval midpoint; a detected shedding frequency in the
// steady regime is an error.
func cylinderSteadyErr(d int) (float64, error) {
	res, err := physics.RunCylinderChannel(physics.CylinderChannelConfig{D: d, Re: 20, UMean: 0.08}, trtThreads4)
	if err != nil {
		return 0, err
	}
	if res.St != 0 {
		return 0, fmt.Errorf("steady Re=20 wake reported shedding (St = %.3f)", res.St)
	}
	ref, _ := physics.CylinderRefFor(20)
	mid := (ref.CdLo + ref.CdHi) / 2
	return math.Abs(res.Cd-mid) / mid, nil
}

// cylinderSheddingErr runs the 2D-2 vortex-shedding case (Re = 100) and
// returns the Strouhal number's relative deviation from the reference
// midpoint; no established shedding, or a maximum drag coefficient
// outside 10% of the reference, is an error.
func cylinderSheddingErr() (float64, error) {
	res, err := physics.RunCylinderChannel(physics.CylinderChannelConfig{D: 16, Re: 100, UMean: 0.08}, trtThreads4)
	if err != nil {
		return 0, err
	}
	if res.St == 0 || res.Periods < 3 {
		return 0, fmt.Errorf("no vortex shedding detected at Re=100 (|Cl|max = %.4f)", res.ClMax)
	}
	ref, _ := physics.CylinderRefFor(100)
	cdMid := (ref.CdLo + ref.CdHi) / 2
	if d := math.Abs(res.CdMax-cdMid) / cdMid; d > 0.10 {
		return 0, fmt.Errorf("max drag coefficient %.3f deviates %.1f%% from the reference %.2f (tol 10%%)", res.CdMax, 100*d, cdMid)
	}
	// With the outlet sponge in place (the default), the drag envelope must
	// be flat: reflected pressure waves previously modulated the per-period
	// Cd maxima well above this bound.
	if res.Periods >= 3 && res.CdRipple > 0.002 {
		return 0, fmt.Errorf("drag envelope ripple %.3f%% exceeds 0.2%% — outlet reflection is back", 100*res.CdRipple)
	}
	stMid := (ref.StLo + ref.StHi) / 2
	return math.Abs(res.St-stMid) / stMid, nil
}

// cavityErr runs a cavity and returns the worst centerline deviation from
// the tabulated reference, in lid units.
func cavityErr(re, l, steps int, spec collision.Spec) (float64, error) {
	res, err := physics.RunCavity(physics.CavityConfig{L: l, Re: float64(re), Steps: steps}, func(c *core.Config) {
		c.Collision, c.Threads = spec, 4
	})
	if err != nil {
		return 0, err
	}
	errU, errV, err := res.CompareCavity(re)
	if err != nil {
		return 0, err
	}
	return math.Max(errU, errV), nil
}

// overlapBox runs one problem three ways — slab GC-C (the paper's
// overlapped schedule), box GC-C on a 2-D pencil (the per-axis phased
// schedule) and SIMD, its gather sweep, on the same pencil — and returns the
// worst field deviation from the slab reference.
func overlapBox() (float64, error) {
	n := grid.Dims{NX: 24, NY: 16, NZ: 16}
	init := func(ix, iy, iz int) (rho, ux, uy, uz float64) {
		x := 2 * math.Pi * float64(ix) / float64(n.NX)
		y := 2 * math.Pi * float64(iy) / float64(n.NY)
		return 1 + 0.03*math.Sin(x)*math.Cos(y), 0.01 * math.Sin(y), -0.01 * math.Cos(x), 0
	}
	base := core.Config{
		Model: lattice.D3Q19(), N: n, Tau: 0.8, Steps: 12,
		Opt: core.OptGCC, Ranks: 4, Threads: 2, GhostDepth: 2,
		Init: init, KeepField: true,
	}
	slab := base
	slab.Decomp = [3]int{4, 1, 1}
	ref, err := core.Run(slab)
	if err != nil {
		return 0, err
	}
	worst := 0.0
	for _, opt := range []core.OptLevel{core.OptGCC, core.OptSIMD} {
		cfg := base
		cfg.Decomp = [3]int{2, 2, 1}
		cfg.Opt = opt
		res, err := core.Run(cfg)
		if err != nil {
			return 0, err
		}
		worst = math.Max(worst, grid.MaxAbsDiff(ref.Field, res.Field))
	}
	return worst, nil
}

// conservation measures the relative drift of total mass over a short run.
func conservation(m *lattice.Model) (float64, error) {
	n := grid.Dims{NX: 12, NY: 6, NZ: 6}
	init := func(ix, iy, iz int) (rho, ux, uy, uz float64) {
		x := 2 * math.Pi * float64(ix) / float64(n.NX)
		return 1 + 0.03*math.Sin(x), 0.01 * math.Cos(x), 0, 0
	}
	var mass0 float64
	for ix := 0; ix < n.NX; ix++ {
		for iy := 0; iy < n.NY; iy++ {
			for iz := 0; iz < n.NZ; iz++ {
				rho, _, _, _ := init(ix, iy, iz)
				mass0 += rho
			}
		}
	}
	res, err := core.Run(core.Config{
		Model: m, N: n, Tau: 0.8, Steps: 20,
		Opt: core.OptSIMD, Ranks: 2, Threads: 1, GhostDepth: 1, Init: init,
	})
	if err != nil {
		return 0, err
	}
	return math.Abs(res.Mass-mass0) / mass0, nil
}

// writeList prints the check list: one "name  tol" line per check. This
// is the -list output the golden-file test pins.
func writeList(w io.Writer, cs []check) {
	for _, c := range cs {
		fmt.Fprintf(w, "%-62s tol %g\n", c.name, c.tol)
	}
}

func main() {
	log.SetFlags(0)
	log.SetPrefix("lbmvalidate: ")
	quick := flag.Bool("quick", false, "smaller domains and fewer steps")
	list := flag.Bool("list", false, "print the check list without running")
	cpuProf := flag.String("cpuprofile", "", "write a CPU profile of the suite to this file")
	memProf := flag.String("memprofile", "", "write a heap profile (post-run) to this file")
	flag.Parse()

	cs := suite(*quick)
	if *list {
		writeList(os.Stdout, cs)
		return
	}
	if *cpuProf != "" {
		f, err := os.Create(*cpuProf)
		if err != nil {
			log.Fatal(err)
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			log.Fatal(err)
		}
	}

	failures := 0
	for _, c := range cs {
		measure, err := c.run()
		var status string
		switch {
		case err != nil:
			status = "ERROR: " + err.Error()
			failures++
		case measure > c.tol:
			status = fmt.Sprintf("FAIL (err %.2f%% > %.2f%%)", 100*measure, 100*c.tol)
			failures++
		default:
			status = fmt.Sprintf("ok   (err %.2f%%)", 100*measure)
		}
		fmt.Printf("%-62s %s\n", c.name, status)
	}

	// Flush the profiles before the failure exit: os.Exit skips defers, and
	// a failing suite is exactly when the profile is wanted.
	if *cpuProf != "" {
		pprof.StopCPUProfile()
	}
	if *memProf != "" {
		f, err := os.Create(*memProf)
		if err != nil {
			log.Fatal(err)
		}
		runtime.GC()
		if err := pprof.WriteHeapProfile(f); err != nil {
			log.Fatal(err)
		}
		f.Close()
	}

	fmt.Printf("\nKnudsen regimes: Kn=0.01 -> %s (%s), Kn=0.5 -> %s (%s)\n",
		physics.ClassifyKnudsen(0.01), physics.ModelForKnudsen(0.01).Name,
		physics.ClassifyKnudsen(0.5), physics.ModelForKnudsen(0.5).Name)

	if failures > 0 {
		fmt.Printf("\n%d validation(s) FAILED\n", failures)
		os.Exit(1)
	}
	fmt.Println("\nall validations passed")
}
