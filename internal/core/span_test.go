package core

import (
	"fmt"
	"math"
	"slices"
	"testing"

	"repro/internal/collision"
	"repro/internal/geom"
	"repro/internal/grid"
	"repro/internal/lattice"
)

// TestSpansMatchOneRowSpans: the row body relaxes spans of back-to-back
// rows in one call, and everything that belongs to a row — its upwind
// read, links, sponge factors, AA's scatter — loops over the span's rows;
// the row kernels treat every z alone, so the final field must be the one
// the body computes row by row (testOneRowSpans), to the last bit of every
// value. The table walks every read source — the split path (Orig
// included), the sweep reading views and rotating a wrap axis, AA's two
// sub-steps on a dense mask (fluid-interval cuts) and under the run index,
// the run index on both two-field paths — with wall and mask links, a
// sponge, forcing, the three operators, both lattices and 1 and 3 threads,
// at z rows of 2 cells (dozens of rows per span), 12, and 97 (three rows
// fill a span; the fourth starts the next). A 400-cell row is longer than
// spanCells: every span is that one row, and the scratch must hold it.
func TestSpansMatchOneRowSpans(t *testing.T) {
	q19, q39 := lattice.D3Q19(), lattice.D3Q39()
	trt, mrt := collision.Spec{Kind: collision.TRT}, collision.Spec{Kind: collision.MRT}
	accel := [3]float64{1e-5, 2e-6, 0}
	for _, nz := range []int{2, 12, 97, 400} {
		n := grid.Dims{NX: 12, NY: 8, NZ: nz}
		if nz > spanCells {
			n.NX, n.NY = 8, 6
		}
		solid := geom.SphereAt(n, float64(n.NX)/2, float64(n.NY)/2, float64(nz)/2, 2.5)
		sponge := InletChannelSpec(0.05, nil)
		sponge.Faces[0][1].SpongeWidth = 4
		sponge.Faces[0][1].SpongeStrength = 0.2
		for _, c := range []struct {
			name string
			cfg  Config
		}{
			{"split-soa/walls", Config{Model: q19, Opt: OptGCC, Boundary: CavitySpec(0.05), Threads: 3}},
			{"split-soa/orig/forced", Config{Model: q19, Opt: OptOrig, Ranks: 2, Accel: accel}},
			{"sweep-views/q39/trt", Config{Model: q39, Opt: OptSIMD, Sparse: true, Collision: trt, Threads: 3}},
			{"sweep-wrap/mask/mrt", Config{Model: q19, Opt: OptSIMD, Solid: solid, Collision: mrt, Accel: accel}},
			{"sweep-wrap/q39/walls", Config{Model: q39, Opt: OptSIMD, Boundary: CavitySpec(0.05)}},
			{"aa/dense-mask/q39", Config{Model: q39, Opt: OptGCC, Stream: StreamAA, Solid: solid, Accel: accel, Threads: 3}},
			{"aa/run-index/trt", Config{Model: q19, Opt: OptSIMD, Stream: StreamAA, Solid: solid, Sparse: true, Collision: trt}},
			{"run-index/split/forced", Config{Model: q19, Opt: OptGCC, Solid: solid, Sparse: true, Accel: accel, Threads: 3}},
			{"run-index/sweep/q39/mrt", Config{Model: q39, Opt: OptSIMD, Solid: solid, Sparse: true, Collision: mrt}},
			{"sponge/split", Config{Model: q19, Opt: OptGC, Boundary: sponge, Solid: solid}},
			{"sponge/sweep/trt", Config{Model: q19, Opt: OptSIMD, Boundary: sponge, Solid: solid, Collision: trt, Threads: 3}},
			{"sponge/aa/mrt", Config{Model: q19, Opt: OptGCC, Stream: StreamAA, Boundary: sponge, Collision: mrt}},
		} {
			cfg := c.cfg
			cfg.N, cfg.Tau, cfg.Steps, cfg.GhostDepth = n, 0.8, 5, 1
			if cfg.Ranks == 0 {
				cfg.Ranks = 1
			}
			if cfg.Threads == 0 {
				cfg.Threads = 1
			}
			if 2*cfg.Model.MaxSpeed > nz {
				cfg.Model = q19 // D3Q39 reaches 3 cells: a 2-cell z row is too short for it
			}
			name := fmt.Sprintf("nz%d/%s", nz, c.name)
			spans := runField(t, cfg)
			testOneRowSpans = true
			rows := runField(t, cfg)
			testOneRowSpans = false
			if i := firstBitDiff(spans.Data, rows.Data); i >= 0 {
				t.Errorf("%s: value %d is %v with spans, %v row by row (want the same bits)", name, i, spans.Data[i], rows.Data[i])
			}
		}
	}
}

// TestBlockedSplitMatchesPasses: the split path streams and relaxes a
// chunk block by block (streamRows), and the block order must not show.
// One step of the shipped kernel over a batch of boxes must leave fadv —
// every value, ghosts and cells outside the boxes included — bit-identical
// to the rung's stream kernel over the whole batch followed by the row body
// over it. The batches are the owned box and planStep's interior and thin
// rim pairs, so a block that leaves its chunk's x-plane writes outside a
// rim. The table walks the ladder's three stream forms and the run index,
// x-only ghosts and ghosts on every axis, the vessel's links
// dense and sparse, a sponge, the three operators, both lattices and 1 and
// 3 threads, on 97-cell z rows: four rows close a dense block, and every
// plane ends on a short one.
func TestBlockedSplitMatchesPasses(t *testing.T) {
	q19, q39 := lattice.D3Q19(), lattice.D3Q39()
	trt, mrt := collision.Spec{Kind: collision.TRT}, collision.Spec{Kind: collision.MRT}
	accel := [3]float64{1e-5, 2e-6, 0}
	n := grid.Dims{NX: 12, NY: 10, NZ: 97}
	vessel := sparseTestMask(n)
	sponge := InletChannelSpec(0.05, nil)
	sponge.Faces[0][1].SpongeWidth = 4
	sponge.Faces[0][1].SpongeStrength = 0.2
	for _, c := range []struct {
		name string
		cfg  Config
	}{
		{"gc-scalar/trt", Config{Model: q19, Opt: OptGC, Collision: trt}},
		{"dh-copy/q39", Config{Model: q39, Opt: OptDH, Threads: 3}},
		{"gcc-indexed/q39/trt", Config{Model: q39, Opt: OptGCC, Collision: trt}},
		{"gcc-ghosted/q39/mrt", Config{Model: q39, Opt: OptGCC, Sparse: true, Collision: mrt, Threads: 3}},
		{"gcc-vessel/dense/forced", Config{Model: q19, Opt: OptGCC, Solid: vessel, Accel: accel, Threads: 3}},
		{"gcc-vessel/sparse/q39/trt", Config{Model: q39, Opt: OptGCC, Solid: vessel, Sparse: true, Collision: trt}},
		{"gcc-vessel/sparse/forced", Config{Model: q19, Opt: OptGCC, Solid: vessel, Sparse: true, Accel: accel, Threads: 3}},
		{"gcc-sponge/trt", Config{Model: q19, Opt: OptGCC, Boundary: sponge, Collision: trt, Threads: 3}},
		{"gcc-sponge/q39/vessel", Config{Model: q39, Opt: OptGCC, Boundary: sponge, Solid: vessel}},
	} {
		cfg := c.cfg
		cfg.N, cfg.Tau, cfg.Steps, cfg.Ranks, cfg.GhostDepth, cfg.Init = n, 0.8, 1, 1, 1, waveInit(n)
		if cfg.Threads == 0 {
			cfg.Threads = 1
		}
		cs := buildStepper(t, cfg)
		cs.initField()
		var stale [3]bool
		for a := range stale {
			stale[a] = cs.w[a] > 0
		}
		cs.fillOpenFaces()
		cs.refreshAxes(stale)
		poisonField(cs.fadv)
		start := slices.Clone(cs.fadv.Data)
		owned := cs.ownedBox()
		plan := planStep(owned, cs.own, cs.w, cs.k, stale)
		batches := map[string][]box{"owned": {owned}, "interior": {plan.interior}}
		for a := range stale {
			if stale[a] {
				batches[fmt.Sprintf("rims%d", a)] = plan.rims[a][:]
			}
		}
		for name, boxes := range batches {
			copy(cs.fadv.Data, start)
			cs.br.run(cs.next, boxes...)
			blocked := slices.Clone(cs.fadv.Data)
			copy(cs.fadv.Data, start)
			cs.br.run(cs.stream, boxes...)
			cs.br.run(cs.gather, boxes...)
			if i := firstBitDiff(blocked, cs.fadv.Data); i >= 0 {
				t.Errorf("%s/%s: value %d of fadv is %v blocked, %v in two passes (want the same bits)", c.name, name, i, blocked[i], cs.fadv.Data[i])
			}
		}
	}
}

// firstBitDiff returns the index of the first value whose bits differ
// between a and b, or −1 when none does.
func firstBitDiff(a, b []float64) int {
	if len(a) != len(b) {
		return 0
	}
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return i
		}
	}
	return -1
}
