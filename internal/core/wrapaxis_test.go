package core

import (
	"fmt"
	"testing"

	"repro/internal/collision"
	"repro/internal/geom"
	"repro/internal/grid"
	"repro/internal/lattice"
)

// TestGhostWidthsPerAxis states the whole rule: x always carries its
// ghosts, and w[a] = 0 ⇔ a is y or z, uncut, periodic, on a two-grid dense
// run — every other axis keeps exactly the width it was given.
func TestGhostWidthsPerAxis(t *testing.T) {
	dk := [3]int{2, 3, 4}
	for _, shape := range [][3]int{{1, 1, 1}, {4, 1, 1}, {2, 2, 1}, {2, 1, 2}, {1, 2, 2}, {1, 1, 3}, {2, 2, 2}} {
		for bits := 0; bits < 8; bits++ {
			bounded := [3]bool{bits&1 != 0, bits&2 != 0, bits&4 != 0}
			for _, stream := range []StreamScheme{StreamTwoGrid, StreamAA} {
				for _, sparse := range []bool{false, true} {
					w := GhostWidths(shape, bounded, stream, sparse, dk)
					for a := 0; a < 3; a++ {
						want := dk[a]
						if a > 0 && shape[a] == 1 && !bounded[a] && stream == StreamTwoGrid && !sparse {
							want = 0
						}
						if w[a] != want {
							t.Errorf("shape %v bounded %v %v sparse=%v: w[%d] = %d, want %d", shape, bounded, stream, sparse, a, w[a], want)
						}
					}
				}
			}
		}
	}
}

// TestWrapAxisBitIdentity: a wrap axis is an optimisation of the ghost
// geometry, never of the answer. Every quasi-2-D scenario the repo
// validates physics on — the cavity, the wall-bounded channel, the inlet
// channel around a cylinder, each with a periodic uncut z — and the
// periodic 2×2×1 pencil run with z folded by the kernels, and again with
// ghosts forced onto every axis: fluid-cell fields, the force series and
// the conserved sums must agree to the last bit, on every stream kernel
// (scalar, copy, indexed), the gather sweep, both lattices, BGK and TRT,
// one and two threads, depth 1 and 2.
func TestWrapAxisBitIdentity(t *testing.T) {
	type scenario struct {
		name  string
		n     grid.Dims
		shape [3]int
		spec  *BoundarySpec
		solid *geom.Mask
	}
	inlet := grid.Dims{NX: 28, NY: 14, NZ: 8}
	scenarios := []scenario{
		{"cavity", grid.Dims{NX: 12, NY: 12, NZ: 8}, [3]int{1, 1, 1}, CavitySpec(0.05), nil},
		{"channel", grid.Dims{NX: 24, NY: 12, NZ: 8}, [3]int{2, 1, 1}, ChannelSpec(), nil},
		{"inlet-cylinder", inlet, [3]int{2, 1, 1}, InletChannelSpec(0.04, nil), geom.CylinderZ(inlet, 8, 7.3, 2.5)},
		{"pencil", grid.Dims{NX: 16, NY: 12, NZ: 8}, [3]int{2, 2, 1}, nil, nil},
	}
	paths := []struct {
		opt   OptLevel
		fused bool
	}{{OptGC, false}, {OptCF, false}, {OptGCC, false}, {OptGCC, true}}
	count := 0
	for _, sc := range scenarios {
		for _, model := range []*lattice.Model{lattice.D3Q19(), lattice.D3Q39()} {
			for _, path := range paths {
				for _, kind := range []collision.Kind{collision.BGK, collision.TRT} {
					for _, threads := range []int{1, 2} {
						for _, depth := range []int{1, 2} {
							count++
							if testing.Short() && count%9 != 0 {
								continue
							}
							cfg := Config{
								Model: model, N: sc.n, Tau: 0.8, Steps: 5,
								Opt: path.opt, Fused: path.fused,
								Ranks: sc.shape[0] * sc.shape[1] * sc.shape[2], Decomp: sc.shape,
								Threads: threads, GhostDepth: depth,
								Collision: collision.Spec{Kind: kind},
								Boundary:  sc.spec, Solid: sc.solid, MeasureForces: sc.spec != nil,
								Init: waveInit(sc.n), KeepField: true,
							}
							name := fmt.Sprintf("%s %s %s fused=%v %s t%d d%d", sc.name, model.Name, path.opt, path.fused, kind, threads, depth)
							wrapped, err := Run(cfg)
							if err != nil {
								t.Fatalf("%s: %v", name, err)
							}
							testGhostsEveryAxis = true
							ghosted, err := Run(cfg)
							testGhostsEveryAxis = false
							if err != nil {
								t.Fatalf("%s, ghosts on every axis: %v", name, err)
							}
							if d := fluidMaxAbsDiff(wrapped.Field, ghosted.Field, cfg.Solid); d != 0 {
								t.Errorf("%s: max |Δf| vs ghosts on every axis = %g, want bit-identical", name, d)
							}
							// NaN != NaN: a poisoned fluid cell fails here too.
							if [4]float64{wrapped.Mass, wrapped.MomX, wrapped.MomY, wrapped.MomZ} != [4]float64{ghosted.Mass, ghosted.MomX, ghosted.MomY, ghosted.MomZ} {
								t.Errorf("%s: conserved sums differ: mass %v vs %v", name, wrapped.Mass, ghosted.Mass)
							}
							for s := range wrapped.ObstacleForce {
								if wrapped.ObstacleForce[s] != ghosted.ObstacleForce[s] || wrapped.FaceForce[s] != ghosted.FaceForce[s] {
									t.Errorf("%s: step %d forces differ: obstacle %v vs %v, faces %v vs %v", name, s,
										wrapped.ObstacleForce[s], ghosted.ObstacleForce[s], wrapped.FaceForce[s], ghosted.FaceForce[s])
									break
								}
							}
							if w, g := wrapped.PerRank[0].FieldBytes, ghosted.PerRank[0].FieldBytes; w >= g {
								t.Errorf("%s: fields hold %d B with z wrapped, %d B with ghosts there; the two runs are one geometry", name, w, g)
							}
						}
					}
				}
			}
		}
	}
}

// TestPerAxisDepthOnSlabIsUniformDepth: a wrap axis has no depth, so on a
// periodic slab GhostDepthAxes{d,1,1} is the uniform depth-d run — the
// job the performance model has always priced it as: the same field to the
// last bit, the same halo bytes, ghost work and memory.
func TestPerAxisDepthOnSlabIsUniformDepth(t *testing.T) {
	for _, c := range []struct {
		model *lattice.Model
		d     int
	}{{lattice.D3Q19(), 2}, {lattice.D3Q19(), 3}, {lattice.D3Q39(), 2}} {
		n := grid.Dims{NX: 24, NY: 8, NZ: 10}
		uniform := Config{
			Model: c.model, N: n, Tau: 0.8, Steps: 7, Opt: OptGCC, Ranks: 2, Threads: 1,
			GhostDepth: c.d, Init: waveInit(n), KeepField: true,
		}
		perAxis := uniform
		perAxis.GhostDepth, perAxis.GhostDepthAxes = 0, [3]int{c.d, 1, 1}
		want, err := Run(uniform)
		if err != nil {
			t.Fatal(err)
		}
		got, err := Run(perAxis)
		if err != nil {
			t.Fatalf("%s {%d,1,1}: %v", c.model.Name, c.d, err)
		}
		if d := grid.MaxAbsDiff(want.Field, got.Field); d != 0 {
			t.Errorf("%s {%d,1,1}: max |Δf| vs depth %d = %g, want bit-identical", c.model.Name, c.d, c.d, d)
		}
		if got.HaloAxisBytes != want.HaloAxisBytes || got.GhostUpdates != want.GhostUpdates {
			t.Errorf("%s {%d,1,1}: halo bytes %v ghost updates %d; depth %d has %v, %d",
				c.model.Name, c.d, got.HaloAxisBytes, got.GhostUpdates, c.d, want.HaloAxisBytes, want.GhostUpdates)
		}
		for r := range want.PerRank {
			if got.PerRank[r].FieldBytes != want.PerRank[r].FieldBytes {
				t.Errorf("%s {%d,1,1} rank %d: fields hold %d B, depth %d holds %d B",
					c.model.Name, c.d, r, got.PerRank[r].FieldBytes, c.d, want.PerRank[r].FieldBytes)
			}
		}
	}
}
