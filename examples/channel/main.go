// Channel: vortex shedding past a voxelized cylinder — the geometry
// subsystem end to end. A parabolic Zou-He velocity inlet drives flow
// down a walled channel (the Schäfer-Turek benchmark geometry), the flow
// separates around a voxel-mask cylinder, and the wake rolls up into the
// Kármán vortex street; the momentum-exchange force series on the
// cylinder yields the drag/lift coefficients and the Strouhal number that
// the paper-scale references pin. The run uses a 2-rank slab
// decomposition so the obstacle's fixup links straddle a rank boundary.
package main

import (
	"fmt"
	"log"
	"math"
	"strings"

	"repro/internal/collision"
	"repro/internal/core"
	"repro/internal/physics"
)

func main() {
	log.SetFlags(0)

	const (
		d  = 16  // cylinder diameter in cells (D=16 resolves the Re=100 wake)
		re = 100 // vortex-shedding regime (2D-2 benchmark)
	)
	res, err := physics.RunCylinderChannel(physics.CylinderChannelConfig{D: d, Re: re}, func(c *core.Config) {
		c.Collision = collision.Spec{Kind: collision.TRT}
		c.Ranks, c.Decomp, c.Threads = 2, [3]int{2, 1, 1}, 2
	})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("Cylinder channel: %v (D=%d, Re=%d, tau=%.4f), %d steps on a 2-rank slab\n",
		res.N, d, re, res.Tau, res.Steps)
	fmt.Printf("  %.2f MFlup/s over %d fluid cells (solids excluded from N_fl)\n\n",
		res.Res.MFlups, res.Res.InteriorUpdates/int64(res.Steps))

	// The lift trace over the last shedding periods, rendered as a strip.
	fmt.Println("  lift coefficient (each row ~40 steps; the oscillation IS the vortex street):")
	stride := 40
	for s := res.Steps - 18*stride; s < res.Steps; s += stride {
		cl := res.Lift[s]
		pos := int((cl + 1.2) / 2.4 * 48)
		if pos < 0 {
			pos = 0
		}
		if pos > 47 {
			pos = 47
		}
		line := []byte(strings.Repeat(" ", 48))
		line[24] = '|'
		line[pos] = '*'
		fmt.Printf("  step %6d %s cL=%+.3f\n", s, line, cl)
	}

	fmt.Printf("\n  mean Cd %.3f (max %.3f), max |Cl| %.3f, St %.4f over %d periods\n",
		res.Cd, res.CdMax, res.ClMax, res.St, res.Periods)
	if ref, ok := physics.CylinderRefFor(re); ok {
		fmt.Printf("  Schaefer-Turek 2D-2 references: Cd(max) in [%.2f, %.2f], St in [%.3f, %.3f]\n",
			ref.CdLo, ref.CdHi, ref.StLo, ref.StHi)
		if ref.StLo > 0 && res.St > 0 {
			mid := (ref.StLo + ref.StHi) / 2
			fmt.Printf("  St deviation from the reference midpoint: %.1f%%\n", 100*math.Abs(res.St-mid)/mid)
		}
	}
	fmt.Println("\n  The cylinder sheds opposite-signed vortices at a single frequency —")
	fmt.Println("  the lift oscillation above — while the drag oscillates at twice it:")
	fmt.Println("  the classic Karman-street signature, measured entirely through the")
	fmt.Println("  momentum-exchange links of the voxel mask.")
}
