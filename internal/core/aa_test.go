package core

import (
	"math"
	"testing"

	"repro/internal/collision"
	"repro/internal/geom"
	"repro/internal/grid"
	"repro/internal/lattice"
)

// aaVariant maps a two-grid config onto the nearest AA-legal one: the AA
// scheme needs ghost cells and is inherently fused, so the Orig and Fused
// knobs are normalized away. The returned pair
// differs ONLY in the Stream field — the comparison isolates the storage
// scheme.
func aaVariant(cfg Config) (tg, aa Config) {
	if cfg.Opt == OptOrig {
		cfg.Opt = OptGC
	}
	cfg.Fused = false
	tg = cfg
	tg.Stream = StreamTwoGrid
	aa = cfg
	aa.Stream = StreamAA
	return tg, aa
}

// fluidMaxAbsDiff compares two gathered fields over fluid cells only.
// Solid cells are excluded deliberately: neither scheme's kernels define
// their contents (the two-grid path streams stale values through them,
// the AA path leaves pulled-but-never-scattered slots behind), so the
// cross-scheme contract covers exactly the cells the physics does.
func fluidMaxAbsDiff(a, b *grid.Field, solid *geom.Mask) float64 {
	if solid == nil {
		return grid.MaxAbsDiff(a, b)
	}
	var max float64
	for v := 0; v < a.Q; v++ {
		for ix := 0; ix < a.D.NX; ix++ {
			for iy := 0; iy < a.D.NY; iy++ {
				for iz := 0; iz < a.D.NZ; iz++ {
					if solid.At(ix, iy, iz) {
						continue
					}
					if d := math.Abs(a.At(v, ix, iy, iz) - b.At(v, ix, iy, iz)); d > max {
						max = d
					}
				}
			}
		}
	}
	return max
}

// TestAAMatchesTwoGrid: the AA-pattern single-field scheme must reproduce
// the two-grid reference to reassociation tolerance on every stepper path
// it supports — the TestThreadCountInvariance path matrix normalized to
// AA-legal configs (slab shapes keep ghosts on every axis under AA). Odd
// step counts exercise the star-arrangement recovery of the final gather.
// Every masked or bounded path also runs its fused twin — the same gather
// sweep on two fields — against the same reference.
func TestAAMatchesTwoGrid(t *testing.T) {
	n := grid.Dims{NX: 24, NY: 16, NZ: 16}
	profile := func(gx, gy, gz int) [3]float64 {
		return [3]float64{0.02 * float64(gy%5) / 4, 0, 0}
	}
	solidFn := func(ix, iy, iz int) bool {
		dx, dy := float64(ix)-9, float64(iy)-8.3
		return dx*dx+dy*dy < 6.5
	}
	cases := []struct {
		name  string
		cfg   Config
		solid *geom.Mask
	}{
		{"slab-bgk-simd", Config{
			Model: lattice.D3Q19(), N: n, Tau: 0.8, Steps: 5,
			Opt: OptSIMD, Ranks: 1, GhostDepth: 1,
		}, nil},
		{"slab-gcc-2r", Config{
			Model: lattice.D3Q19(), N: n, Tau: 0.8, Steps: 5,
			Opt: OptGCC, Ranks: 2, GhostDepth: 1, Fused: true,
		}, nil},
		{"slab-trt-gcc", Config{
			Model: lattice.D3Q19(), N: n, Tau: 0.7, Steps: 5,
			Opt: OptGCC, Ranks: 2, GhostDepth: 1,
			Collision: collision.Spec{Kind: collision.TRT},
		}, nil},
		{"pencil-cavity-trt-deep", Config{
			Model: lattice.D3Q19(), N: n, Tau: 0.7, Steps: 5,
			Opt: OptGCC, Ranks: 4, Decomp: [3]int{2, 2, 1}, GhostDepth: 2,
			Collision: collision.Spec{Kind: collision.TRT},
			Boundary:  CavitySpec(0.05),
		}, nil},
		{"block-masked-mrt-gcc", Config{
			Model: lattice.D3Q19(), N: n, Tau: 0.7, Steps: 5,
			Opt: OptGCC, Ranks: 8, Decomp: [3]int{2, 2, 2}, GhostDepth: 1,
			Collision: collision.Spec{Kind: collision.MRT},
			Solid:     geom.FromFunc(n, solidFn),
		}, geom.FromFunc(n, solidFn)},
		{"pencil-inlet-profile-bgk", Config{
			Model: lattice.D3Q19(), N: n, Tau: 0.8, Steps: 5,
			Opt: OptGCC, Ranks: 4, Decomp: [3]int{2, 2, 1}, GhostDepth: 1,
			Boundary: InletChannelSpec(0.02, profile),
		}, nil},
		{"block-periodic-q39", Config{
			Model: lattice.D3Q39(), N: n, Tau: 0.8, Steps: 4,
			Opt: OptSIMD, Ranks: 8, Decomp: [3]int{2, 2, 2}, GhostDepth: 1, Fused: true,
		}, nil},
		{"slab-gc-2r", Config{
			Model: lattice.D3Q19(), N: n, Tau: 0.8, Steps: 5,
			Opt: OptGC, Ranks: 2, GhostDepth: 1,
		}, nil},
		{"slab-orig-normalized", Config{
			Model: lattice.D3Q19(), N: n, Tau: 0.8, Steps: 5,
			Opt: OptOrig, Ranks: 2, GhostDepth: 1,
		}, nil},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			tg, aa := aaVariant(tc.cfg)
			tg.Threads = 4
			aa.Threads = 4
			a := runField(t, tg)
			b := runField(t, aa)
			if d := fluidMaxAbsDiff(a, b, tc.solid); d > eqTol {
				t.Errorf("AA vs two-grid: max |Δf| = %g (tol %g)", d, eqTol)
			}
			if tg.Boundary == nil && tg.Solid == nil {
				return
			}
			tg.Fused = true
			if d := fluidMaxAbsDiff(a, runField(t, tg), tc.solid); d != 0 {
				t.Errorf("fused vs split: max |Δf| = %g, want bit-exact", d)
			}
		})
	}
}

// TestAAOracle: AA against the independent textbook solver directly, at
// even and odd step counts (odd leaves the array star-arranged and the
// final gather must undo the transport push on the fly).
func TestAAOracle(t *testing.T) {
	n := grid.Dims{NX: 12, NY: 8, NZ: 6}
	for _, steps := range []int{4, 5} {
		runAndCompare(t, Config{
			Model: lattice.D3Q19(), N: n, Tau: 0.8, Steps: steps,
			Opt: OptSIMD, Ranks: 2, Threads: 2, GhostDepth: 1,
			Stream: StreamAA,
		})
	}
}

// TestAAThreadInvariance: AA transport writes each slot from exactly one
// cell (the slot star is the cell's own read set), so chunking must stay
// bit-exact like every other kernel.
func TestAAThreadInvariance(t *testing.T) {
	n := grid.Dims{NX: 24, NY: 16, NZ: 16}
	cyl := geom.CylinderZ(n, 8, 8.3, 2.5)
	base := Config{
		Model: lattice.D3Q19(), N: n, Tau: 0.7, Steps: 5,
		Opt: OptGCC, Ranks: 4, Decomp: [3]int{2, 2, 1}, GhostDepth: 1,
		Boundary: InletChannelSpec(0.05, nil), Solid: cyl,
		Stream: StreamAA,
	}
	ref := base
	ref.Threads = 1
	thr := base
	thr.Threads = 8
	a := runField(t, ref)
	b := runField(t, thr)
	if d := grid.MaxAbsDiff(a, b); d != 0 {
		t.Errorf("AA threads=8 differs from threads=1: max |Δf| = %g, want bit-exact", d)
	}
}

// TestAAForceSeries: one force pass serves every path. Fused reads the
// same pre-stream populations as the split path, so its series is the
// split one bit for bit; AA reads the pair-start state directly (even
// entries) and recovers the pushed bounce value (odd entries, one
// rounding from the two-grid quantity when the link carries a Zou-He
// delta), so its series must track the two-grid one to tolerance, at full
// series length.
func TestAAForceSeries(t *testing.T) {
	n := grid.Dims{NX: 24, NY: 16, NZ: 4}
	cyl := geom.CylinderZ(n, 8, 8.3, 2.5)
	base := Config{
		Model: lattice.D3Q19(), N: n, Tau: 0.7, Steps: 10,
		Opt: OptGCC, Ranks: 4, Decomp: [3]int{2, 2, 1}, GhostDepth: 1,
		Boundary: InletChannelSpec(0.05, nil), Solid: cyl,
		MeasureForces: true, Init: waveInit(n), Threads: 4,
	}
	tg, aa := aaVariant(base)
	want, err := Run(tg)
	if err != nil {
		t.Fatal(err)
	}
	got, err := Run(aa)
	if err != nil {
		t.Fatal(err)
	}
	tg.Fused = true
	fused, err := Run(tg)
	if err != nil {
		t.Fatal(err)
	}
	for s := range want.ObstacleForce {
		if fused.ObstacleForce[s] != want.ObstacleForce[s] || fused.FaceForce[s] != want.FaceForce[s] {
			t.Errorf("step %d: fused forces %v / %v != split %v / %v", s,
				fused.ObstacleForce[s], fused.FaceForce[s], want.ObstacleForce[s], want.FaceForce[s])
		}
	}
	if len(got.ObstacleForce) != len(want.ObstacleForce) {
		t.Fatalf("force series length %d, want %d", len(got.ObstacleForce), len(want.ObstacleForce))
	}
	const fTol = 1e-11
	for s := range want.ObstacleForce {
		for a := 0; a < 3; a++ {
			if d := math.Abs(got.ObstacleForce[s][a] - want.ObstacleForce[s][a]); d > fTol {
				t.Errorf("step %d axis %d: obstacle force %g != %g (|Δ| = %g)",
					s, a, got.ObstacleForce[s][a], want.ObstacleForce[s][a], d)
			}
			if d := math.Abs(got.FaceForce[s][a] - want.FaceForce[s][a]); d > fTol {
				t.Errorf("step %d axis %d: face force %g != %g (|Δ| = %g)",
					s, a, got.FaceForce[s][a], want.FaceForce[s][a], d)
			}
		}
	}
}

// TestAAMassConservation: on closed domains (periodic, cavity) both
// schemes must conserve total fluid mass to accumulated rounding —
// collision conserves per-cell mass, streaming and bounce-back only move
// it. A scheme bug that drops or duplicates a slot shows up here first.
func TestAAMassConservation(t *testing.T) {
	n := grid.Dims{NX: 16, NY: 12, NZ: 8}
	cases := []struct {
		name string
		cfg  Config
	}{
		{"periodic", Config{
			Model: lattice.D3Q19(), N: n, Tau: 0.8, Steps: 6,
			Opt: OptSIMD, Ranks: 2, Threads: 2, GhostDepth: 1,
		}},
		{"cavity", Config{
			Model: lattice.D3Q19(), N: n, Tau: 0.7, Steps: 6,
			Opt: OptGCC, Ranks: 2, Threads: 2, GhostDepth: 1,
			Boundary: CavitySpec(0.03),
		}},
	}
	mass := func(f *grid.Field) float64 {
		var m float64
		for _, v := range f.Data {
			m += v
		}
		return m
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			for _, scheme := range []StreamScheme{StreamTwoGrid, StreamAA} {
				cfg := tc.cfg
				cfg.Stream = scheme
				cfg.KeepField = true
				cfg.Init = waveInit(cfg.N)
				res, err := Run(cfg)
				if err != nil {
					t.Fatal(err)
				}
				ref := refSolverBounded(cfg.Model, cfg.N, cfg.Tau, 0, cfg.Init, nil, nil, [3]float64{})
				m0, m1 := mass(ref), mass(res.Field)
				if drift := math.Abs(m1-m0) / m0; drift > 1e-12 {
					t.Errorf("%s: relative mass drift %g over %d steps (m0=%g, m1=%g)",
						scheme, drift, cfg.Steps, m0, m1)
				}
			}
		})
	}
}

// TestAASingleField: the whole point of the scheme — the advected copy is
// gone. White-box check plus the config-validation fences.
func TestAASingleField(t *testing.T) {
	n := grid.Dims{NX: 16, NY: 12, NZ: 8}
	cs := buildStepper(t, Config{
		Model: lattice.D3Q19(), N: n, Tau: 0.8, Steps: 2,
		Opt: OptSIMD, Ranks: 1, Threads: 1, GhostDepth: 1,
		Stream: StreamAA, Boundary: CavitySpec(0.02),
	})
	if cs.fadv != nil {
		t.Error("AA stepper allocated a second field; the footprint win is gone")
	}
	if !cs.aa {
		t.Error("AA stepper not flagged aa")
	}
	tg := buildStepper(t, Config{
		Model: lattice.D3Q19(), N: n, Tau: 0.8, Steps: 2,
		Opt: OptSIMD, Ranks: 1, Threads: 1, GhostDepth: 1,
		Boundary: CavitySpec(0.02),
	})
	if tg.fadv == nil {
		t.Error("two-grid stepper lost its advected field")
	}

	bad := []Config{
		{Model: lattice.D3Q19(), N: n, Tau: 0.8, Steps: 2, Opt: OptOrig,
			Ranks: 1, Threads: 1, GhostDepth: 1, Stream: StreamAA},
		{Model: lattice.D3Q19(), N: n, Tau: 0.8, Steps: 2, Opt: OptSIMD,
			Ranks: 1, Threads: 1, GhostDepth: 1, Stream: StreamAA, Fused: true},
	}
	for i, cfg := range bad {
		if _, err := cfg.init(); err == nil {
			t.Errorf("bad AA config %d validated", i)
		}
	}
	// Open faces on two distinct axes: corner fills are fills-of-fills in
	// the two-grid reference, out of AA's reach — must be rejected.
	var spec BoundarySpec
	spec.Faces[0][0] = Face{Kind: BCInlet, U: [3]float64{0.02, 0, 0}}
	spec.Faces[0][1] = Face{Kind: BCPressureOutlet}
	spec.Faces[1][0] = Face{Kind: BCWall}
	spec.Faces[1][1] = Face{Kind: BCOutflow}
	twoOpen := Config{
		Model: lattice.D3Q19(), N: n, Tau: 0.8, Steps: 2, Opt: OptGCC,
		Ranks: 1, Threads: 1, GhostDepth: 1, Stream: StreamAA, Boundary: &spec,
	}
	if _, err := twoOpen.init(); err == nil {
		t.Error("AA config with open faces on two axes validated")
	}
}

// TestParseStreamScheme: flag-level parsing, including rejection wording.
func TestParseStreamScheme(t *testing.T) {
	for _, tc := range []struct {
		in   string
		want StreamScheme
		ok   bool
	}{
		{"aa", StreamAA, true},
		{"twogrid", StreamTwoGrid, true},
		{"AA", StreamAA, true},
		{"esotwist", 0, false},
		{"", 0, false},
	} {
		got, err := ParseStreamScheme(tc.in)
		if tc.ok && (err != nil || got != tc.want) {
			t.Errorf("ParseStreamScheme(%q) = %v, %v; want %v", tc.in, got, err, tc.want)
		}
		if !tc.ok && err == nil {
			t.Errorf("ParseStreamScheme(%q) accepted", tc.in)
		}
	}
}
