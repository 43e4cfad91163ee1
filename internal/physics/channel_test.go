package physics

import (
	"math"
	"testing"

	"repro/internal/collision"
	"repro/internal/core"
)

// TestSheddingFrequency recovers the frequency of a synthetic lift
// oscillation from its mean crossings.
func TestSheddingFrequency(t *testing.T) {
	const f0 = 1.0 / 73.0
	lift := make([]float64, 400)
	for i := range lift {
		lift[i] = 0.2 + math.Sin(2*math.Pi*f0*float64(i))
	}
	f, periods := sheddingFrequency(lift)
	if periods < 4 {
		t.Fatalf("found %d periods, want >= 4", periods)
	}
	if err := math.Abs(f-f0) / f0; err > 0.01 {
		t.Errorf("frequency %g, want %g (err %.3f)", f, f0, err)
	}
	if _, periods := sheddingFrequency(lift[:50]); periods != 0 {
		t.Errorf("sub-period window yielded %d periods", periods)
	}
}

// TestBuildCylinderChannel pins the benchmark geometry: domain 22D ×
// 4.1D, cylinder voxel count ≈ π(D/2)² per spanwise layer, inlet /
// pressure-outlet / wall faces in the right places.
func TestBuildCylinderChannel(t *testing.T) {
	var cfg core.Config
	shell, err := CylinderChannelConfig{D: 10, Re: 20, UMean: 0.05}.Configure(&cfg)
	if err != nil {
		t.Fatal(err)
	}
	if cfg.N.NX != 220 || cfg.N.NZ != 41 || cfg.N.NY != 2 {
		t.Fatalf("domain %v, want 220x2x41", cfg.N)
	}
	area := float64(cfg.Solid.Solids()) / float64(cfg.N.NY)
	if want := math.Pi * 25; math.Abs(area-want)/want > 0.07 {
		t.Errorf("cylinder cross-section %0.f voxels, want ~%.0f", area, want)
	}
	if cfg.Boundary.Faces[0][0].Kind != core.BCInlet ||
		cfg.Boundary.Faces[0][1].Kind != core.BCPressureOutlet ||
		cfg.Boundary.Faces[2][0].Kind != core.BCWall ||
		cfg.Boundary.Faces[2][1].Kind != core.BCWall ||
		!cfg.Boundary.AxisPeriodic(1) {
		t.Errorf("boundary faces wrong: %+v", cfg.Boundary)
	}
	if !cfg.MeasureForces {
		t.Error("forces not measured")
	}
	// The parabolic inlet peaks at 1.5·Ū mid-channel.
	mid := cfg.Boundary.Faces[0][0].Profile(0, 0, cfg.N.NZ/2)
	if math.Abs(mid[0]-1.5*0.05)/0.075 > 0.01 {
		t.Errorf("inlet peak %g, want ~%g", mid[0], 1.5*0.05)
	}
	if shell.From >= shell.Steps || shell.From == 0 {
		t.Errorf("measurement window [%d, %d) malformed", shell.From, shell.Steps)
	}
	if _, err := (CylinderChannelConfig{D: 4, Re: 20}).Configure(&cfg); err == nil {
		t.Error("D=4 accepted")
	}
	if _, err := (CylinderChannelConfig{D: 10, Re: 0}).Configure(&cfg); err == nil {
		t.Error("Re=0 accepted")
	}
}

// TestCylinderSteadyDrag is the 2D-1 benchmark (Re = 20, steady): the
// momentum-exchange drag coefficient must land near the Schäfer-Turek
// interval [5.57, 5.59] — within 4% at the D = 10 voxelization — with no
// shedding detected.
func TestCylinderSteadyDrag(t *testing.T) {
	if testing.Short() {
		t.Skip("steady-state transient in -short mode")
	}
	res, err := RunCylinderChannel(CylinderChannelConfig{D: 10, Re: 20, UMean: 0.08}, func(c *core.Config) {
		c.Collision = collision.Spec{Kind: collision.TRT}
		c.Threads = 2
	})
	if err != nil {
		t.Fatal(err)
	}
	ref, _ := CylinderRefFor(20)
	mid := (ref.CdLo + ref.CdHi) / 2
	if d := math.Abs(res.Cd-mid) / mid; d > 0.04 {
		t.Errorf("steady Cd = %.4f, want within 4%% of %.2f (got %.1f%%)", res.Cd, mid, 100*d)
	}
	if res.St != 0 {
		t.Errorf("steady wake reported shedding St = %g", res.St)
	}
	if res.ClMax > 0.05 {
		t.Errorf("steady wake lift |Cl| = %g, want ~0", res.ClMax)
	}
}
