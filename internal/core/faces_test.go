package core

import (
	"fmt"
	"math"
	"slices"
	"testing"

	"repro/internal/collision"
	"repro/internal/comm"
	"repro/internal/geom"
	"repro/internal/grid"
	"repro/internal/lattice"
)

// TestConstFacesOnceBitIdentity: writing a constant face (wall, moving
// wall, inlet) into each field once, on that field's first refresh, leaves
// every rank's fields — owned cells and ghosts — bit for bit where
// rewriting it at every refresh puts them (testRefillFaces): the cavity on
// one rank (the benchmark's SIMD sweep) and on two (a cut axis's exchange carries the wall corners), a channel
// cut across its walls, an inlet closed by a wall (the one constant face
// the owned cells read), and the inlet/outflow and inlet/pressure-outlet
// channels, at depth 1, 2 and 3, two-grid and AA, plus a per-axis depth
// that refills x and writes y once. Depth 3 is the deep halo whose refresh
// lands on both fields in turn, so each field's face is computed into
// between its refreshes: without the refill a ghost value differs.
func TestConstFacesOnceBitIdentity(t *testing.T) {
	n := grid.Dims{NX: 16, NY: 12, NZ: 6}
	solid := geom.CylinderZ(n, 6, 6.2, 2)
	inletWalled := InletChannelSpec(0.05, nil)
	inletWalled.Faces[0][1] = Face{Kind: BCWall}
	trt := collision.Spec{Kind: collision.TRT}
	cases := []struct {
		name string
		cfg  Config
	}{
		{"cavity-1rank-simd", Config{Model: lattice.D3Q19(), Opt: OptSIMD, Ranks: 1, Threads: 2, Collision: trt, Boundary: CavitySpec(0.05)}},
		{"cavity-2rank-gcc", Config{Model: lattice.D3Q19(), Opt: OptGCC, Ranks: 2, Threads: 1, Collision: trt, Boundary: CavitySpec(0.05)}},
		{"cavity-2rank-q39", Config{Model: lattice.D3Q39(), Opt: OptSIMD, Ranks: 2, Threads: 1, Boundary: CavitySpec(0.05)}},
		{"channel-pencil", Config{Model: lattice.D3Q19(), Opt: OptNBC, Ranks: 4, Threads: 1, Decomp: [3]int{2, 2, 1}, Boundary: ChannelSpec(), Accel: [3]float64{1e-4, 0, 0}}},
		{"inlet-walled", Config{Model: lattice.D3Q19(), Opt: OptGCC, Ranks: 2, Threads: 1, Boundary: inletWalled, Solid: solid}},
		{"inlet-outflow", Config{Model: lattice.D3Q19(), Opt: OptGCC, Ranks: 2, Threads: 1, Boundary: outflowChannelSpec(0.05), Solid: solid}},
		{"inlet-pressure", Config{Model: lattice.D3Q19(), Opt: OptSIMD, Ranks: 2, Threads: 1, Collision: trt, Boundary: InletChannelSpec(0.05, nil), Solid: solid}},
	}
	for _, tc := range cases {
		for _, stream := range []StreamScheme{StreamTwoGrid, StreamAA} {
			for _, depth := range []int{1, 2, 3} {
				if depth*tc.cfg.Model.MaxSpeed > n.NX/2 {
					continue // D3Q39's depth-3 halo is wider than a rank's 8 planes
				}
				cfg := tc.cfg
				cfg.N, cfg.Tau, cfg.Steps, cfg.GhostDepth, cfg.Stream = n, 0.8, 7, depth, stream
				t.Run(fmt.Sprintf("%s/%s/depth%d", tc.name, stream, depth), func(t *testing.T) {
					requireRefillBitIdentity(t, cfg)
				})
			}
		}
	}
	t.Run("cavity-2rank-axes-2,1,1", func(t *testing.T) {
		requireRefillBitIdentity(t, Config{
			Model: lattice.D3Q19(), N: n, Tau: 0.8, Steps: 7, Opt: OptGCC, Ranks: 2, Threads: 1,
			GhostDepthAxes: [3]int{2, 1, 1}, Boundary: CavitySpec(0.05),
		})
	})
}

// requireRefillBitIdentity runs cfg as shipped and with every constant
// face rewritten at every refresh, and fails unless every rank's fields
// agree bit for bit at the end — owned cells, and ghosts too: a face left
// unwritten where a step had overwritten it shows there even where no
// owned cell reads it.
func requireRefillBitIdentity(t *testing.T, cfg Config) {
	t.Helper()
	once := localFields(t, cfg)
	testRefillFaces = true
	defer func() { testRefillFaces = false }()
	every := localFields(t, cfg)
	for r := range once {
		for i, x := range once[r] {
			if y := every[r][i]; math.Float64bits(x) != math.Float64bits(y) {
				t.Fatalf("rank %d value %d: %v with faces written once, %v rewritten at every refresh", r, i, x, y)
			}
		}
	}
}

// localFields runs cfg and returns each rank's fields as the run left
// them, ghosts included: f, then fadv on two fields.
func localFields(t *testing.T, cfg Config) [][]float64 {
	t.Helper()
	if cfg.Init == nil {
		cfg.Init = waveInit(cfg.N)
	}
	dec, err := cfg.init()
	if err != nil {
		t.Fatal(err)
	}
	out := make([][]float64, cfg.Ranks)
	if err := comm.NewFabric(cfg.Ranks).Run(func(r *comm.Rank) error {
		cs, err := newCartStepper(&cfg, dec, r)
		if err != nil {
			return err
		}
		defer cs.close()
		cs.initField()
		r.Barrier()
		cs.run()
		out[r.ID] = slices.Clone(cs.f.Data)
		if cs.fadv != nil {
			out[r.ID] = append(out[r.ID], cs.fadv.Data...)
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	return out
}

// TestConstFacesWrittenOnce counts the fills themselves, as a run's report
// does (its face rows): a depth-1 two-grid cavity writes each wall face of
// an axis once per field, 2 fields × 2 sides = 4 fills per axis whatever
// the step count; a deep halo and AA write them at every refresh, as does
// the test-only forced refill.
func TestConstFacesWrittenOnce(t *testing.T) {
	const steps = 10
	for _, tc := range []struct {
		name   string
		depth  int
		stream StreamScheme
		refill bool
		want   int64
	}{
		{"depth1", 1, StreamTwoGrid, false, 4},
		{"depth1-forced", 1, StreamTwoGrid, true, 2 * steps},
		{"depth2", 2, StreamTwoGrid, false, 2 * steps / 2},
		{"aa", 1, StreamAA, false, 2 * steps / 2}, // AA refreshes every 2 steps
	} {
		t.Run(tc.name, func(t *testing.T) {
			cfg := Config{
				Model: lattice.D3Q19(), N: grid.Dims{NX: 12, NY: 12, NZ: 4}, Tau: 0.8, Steps: steps,
				Opt: OptSIMD, Ranks: 1, Threads: 1, GhostDepth: tc.depth, Stream: tc.stream,
				Boundary: CavitySpec(0.05), Observe: true,
			}
			testRefillFaces = tc.refill
			defer func() { testRefillFaces = false }()
			res, err := Run(cfg)
			if err != nil {
				t.Fatal(err)
			}
			var got [3]int64
			for _, p := range NewReport(&cfg, res).Phases {
				if p.Phase == "face" {
					got[p.Axis] = p.Count
				}
			}
			if want := [3]int64{tc.want, tc.want, 0}; got != want {
				t.Errorf("face fills per axis %v over %d steps, want %v", got, steps, want)
			}
		})
	}
}
