package core

import (
	"fmt"
	"math"
	"testing"

	"repro/internal/comm"
	"repro/internal/geom"
	"repro/internal/grid"
	"repro/internal/lattice"
	"repro/internal/metrics"
)

// Fluid-compact storage tests: under the run index the fields hold the
// fluid runs and nothing else, and at/clip map lattice coordinates to
// field offsets. The address map is pinned as a property over random
// masks, the sparse stream (which walks the index without them) against
// at; the kernels that ride on it are pinned on a geometry
// whose rows carry several runs each — the vessel masks of sparse_test.go
// have exactly one run per row, which leaves every "source interval spans
// runs / starts in a gap / ends in a ghost layer" branch of the clip
// unexercised.

// newRunIndex run-length encodes the fluid (false) cells of a z-fastest
// solid mask over an nx × ny × nz box, row by row: the index buildMask
// builds as it reads the mask.
func newRunIndex(nx, ny, nz int, solid []bool) runIndex {
	ri := runIndex{nx: nx, ny: ny, runStart: make([]int32, nx*ny+1), off: []int32{0}}
	for r := 0; r < nx*ny; r++ {
		fluidRuns(solid[r*nz:(r+1)*nz], func(lo, hi int) { ri.addRun(r, lo, hi) })
		ri.runStart[r+1] = int32(len(ri.runs))
	}
	return ri
}

// multiRunMask is two tubes along x, stacked in z with a wall between them
// thinner than a D3Q39 hop, and a lattice of solid beads through both. The
// upper tube crosses the periodic z boundary, so its runs touch the low
// and the high z ghost layers; rows outside the tubes' y extent are empty.
// Lengths scale with k so both lattices see the same shape.
func multiRunMask(n grid.Dims, k int) *geom.Mask {
	inTube := func(iy, iz int, cz, r float64) bool {
		dy := float64(iy) + 0.5 - 0.5*float64(n.NY)
		dz := math.Abs(float64(iz) + 0.5 - cz)
		dz = math.Min(dz, float64(n.NZ)-dz) // periodic in z
		return dy*dy+dz*dz < r*r
	}
	nz := float64(n.NZ)
	period, bead := 4*k, 0.9*float64(k)
	return geom.FromFunc(n, func(ix, iy, iz int) bool {
		if !inTube(iy, iz, 0.25*nz, 0.17*nz) && !inTube(iy, iz, 0.76*nz, 0.29*nz) {
			return true
		}
		c := func(i int) float64 { return float64(i%period) - 0.5*float64(period-1) }
		return c(ix)*c(ix)+c(iy)*c(iy)+c(iz)*c(iz) < bead*bead
	})
}

// TestMultiRunMaskShape: the geometry above really has what the clip
// branches need — rows with three or more runs, empty rows, runs of
// length one, and runs touching both z ghost layers.
func TestMultiRunMaskShape(t *testing.T) {
	for _, m := range []*lattice.Model{lattice.D3Q19(), lattice.D3Q39()} {
		k := m.MaxSpeed
		n := grid.Dims{NX: 24 * k, NY: 8 * k, NZ: 12 * k}
		cs := buildStepper(t, Config{
			Model: m, N: n, Tau: 0.8, Opt: OptSIMD, Ranks: 1, Threads: 1, GhostDepth: 1,
			Solid: multiRunMask(n, k), Sparse: true,
		})
		var maxRuns, empty, single, low, high int
		for r := 0; r+1 < len(cs.runStart); r++ {
			runs := cs.runs[cs.runStart[r]:cs.runStart[r+1]]
			maxRuns = max(maxRuns, len(runs))
			if len(runs) == 0 {
				empty++
			}
			for _, ru := range runs {
				if ru.hi-ru.lo == 1 {
					single++
				}
				if int(ru.lo) < cs.w[2] {
					low++
				}
				if int(ru.hi) > cs.d.NZ-cs.w[2] {
					high++
				}
			}
		}
		if maxRuns < 3 || empty == 0 || low == 0 || high == 0 || (k == 1 && single == 0) {
			t.Errorf("%s: max runs/row %d, empty rows %d, length-1 runs %d, runs in the low z ghost %d, in the high %d",
				m.Name, maxRuns, empty, single, low, high)
		}
	}
}

// TestSparseMultiRunMatrix runs the multi-run geometry through the sparse
// ≡ dense matrix of TestSparseHaloMatrix: both lattices (reach 3 crosses
// the wall between the tubes and whole beads), both streaming schemes and
// the fused sweep, the deep-halo cadences, slab/pencil/fluid-balanced block, all three exchange
// protocols — 1e-12 against the dense single-rank run on every fluid cell
// and bit-equal between 1 and 3 threads.
func TestSparseMultiRunMatrix(t *testing.T) {
	type grid3 struct {
		p       [3]int
		balance Balance
	}
	shapes := []grid3{{p: [3]int{2, 1, 1}}, {p: [3]int{2, 2, 1}}, {p: [3]int{2, 2, 2}, balance: BalanceFluid}}
	depths := [][3]int{{1, 1, 1}, {2, 2, 2}, {2, 1, 1}}
	opts := []OptLevel{OptGC, OptNBC, OptGCC}
	models := []*lattice.Model{lattice.D3Q19(), lattice.D3Q39()}
	if testing.Short() {
		models = models[:1] // the k = 3 domain is 27× the cells
	}
	for _, m := range models {
		k := m.MaxSpeed
		n := grid.Dims{NX: 24 * k, NY: 8 * k, NZ: 12 * k}
		mask := multiRunMask(n, k)
		ref := runField(t, Config{
			Model: m, N: n, Tau: 0.8, Steps: 6,
			Opt: OptSIMD, Ranks: 1, Threads: 1, GhostDepth: 1, Solid: mask,
		})
		for _, sh := range shapes {
			for _, depth := range depths {
				for _, path := range []struct {
					stream StreamScheme
					fused  bool
				}{{StreamTwoGrid, false}, {StreamAA, false}, {StreamTwoGrid, true}} {
					for _, opt := range opts {
						cfg := Config{
							Model: m, N: n, Tau: 0.8, Steps: 6,
							Opt: opt, Ranks: sh.p[0] * sh.p[1] * sh.p[2], Decomp: sh.p, Balance: sh.balance,
							GhostDepthAxes: depth, Stream: path.stream, Fused: path.fused,
							Solid: mask, Sparse: true,
						}
						name := fmt.Sprintf("%s %v depth=%v %s fused=%v %s", m.Name, sh.p, depth, path.stream, path.fused, opt)
						cfg.Threads = 1
						one := runField(t, cfg)
						if d := maxDiffFluid(ref, one, mask.At); d > eqTol {
							t.Errorf("%s: sparse vs dense single rank max fluid |Δf| = %g", name, d)
						}
						cfg.Threads = 3
						if d := maxDiffFluid(one, runField(t, cfg), mask.At); d != 0 {
							t.Errorf("%s: 3 threads vs 1 max fluid |Δf| = %g, want bit-exact", name, d)
						}
					}
				}
			}
		}
	}
}

// TestSparseStarArrangement: an odd AA step count ends in star
// arrangement, where a population bound for a solid neighbour has no
// downwind slot to sit in under compact storage and is recovered from the
// cell's own bounced slot (starPop) — by the final gather, by the mass and
// momentum sums, and mid-run by the open-face fix that emulates the odd
// step's ghost refill. Stationary links recover exactly; moving walls and
// inlets (δ ≠ 0) within one rounding.
func TestSparseStarArrangement(t *testing.T) {
	n := grid.Dims{NX: 24, NY: 10, NZ: 12}
	mask := multiRunMask(n, 1)
	var open BoundarySpec
	open.Faces[0][0] = Face{Kind: BCInlet, U: [3]float64{0.03, 0, 0}}
	open.Faces[0][1] = Face{Kind: BCPressureOutlet, SpongeWidth: 5, SpongeStrength: 0.1}
	open.Faces[1][0] = Face{Kind: BCWall}
	open.Faces[1][1] = Face{Kind: BCMovingWall, U: [3]float64{0.02, 0, 0}}
	var outflow BoundarySpec
	outflow.Faces[2][0] = Face{Kind: BCWall}
	outflow.Faces[2][1] = Face{Kind: BCOutflow}
	for _, c := range []struct {
		name string
		spec *BoundarySpec
	}{{"periodic", nil}, {"inlet+outlet+lid", &open}, {"outflow-z", &outflow}} {
		for _, steps := range []int{5, 6} {
			dense, sparse := runSparsePair(t, Config{
				Model: lattice.D3Q19(), N: n, Tau: 0.8, Steps: steps,
				Opt: OptGCC, Ranks: 2, Decomp: [3]int{2, 1, 1}, Threads: 2, GhostDepth: 2,
				Solid: mask, Boundary: c.spec, Stream: StreamAA,
			})
			if d := maxDiffFluid(dense.Field, sparse.Field, mask.At); d > eqTol {
				t.Errorf("%s steps=%d: sparse vs dense max fluid |Δf| = %g", c.name, steps, d)
			}
			if d := math.Abs(dense.Mass - sparse.Mass); d > eqTol*dense.Mass {
				t.Errorf("%s steps=%d: mass %0.15f sparse vs %0.15f dense", c.name, steps, sparse.Mass, dense.Mass)
			}
			for a, pair := range [][2]float64{{dense.MomX, sparse.MomX}, {dense.MomY, sparse.MomY}, {dense.MomZ, sparse.MomZ}} {
				if d := math.Abs(pair[0] - pair[1]); d > 1e-10 {
					t.Errorf("%s steps=%d: momentum[%d] %g sparse vs %g dense", c.name, steps, a, pair[1], pair[0])
				}
			}
		}
	}
}

// TestAddressMapProperties: over seeded random masks — all-solid rows,
// full rows and runs of length one included — at is a bijection from the
// fluid cells of the box onto [0, cells) in run order and reports every
// solid or out-of-box cell absent; clip tiles exactly the fluid cells of
// any interval, in order, at at's offsets; lower brackets them.
func TestAddressMapProperties(t *testing.T) {
	rng := metrics.NewRNG(20261001)
	for trial := 0; trial < 40; trial++ {
		nx, ny, nz := 1+int(rng.Float64()*4), 1+int(rng.Float64()*5), 1+int(rng.Float64()*14)
		solid := make([]bool, nx*ny*nz)
		for r := 0; r < nx*ny; r++ {
			row := solid[r*nz : (r+1)*nz]
			switch p := rng.Float64(); {
			case p < 0.15: // all solid
				for z := range row {
					row[z] = true
				}
			case p < 0.3: // full row
			default:
				density := rng.Float64()
				for z := range row {
					row[z] = rng.Float64() < density
				}
			}
		}
		ri := newRunIndex(nx, ny, nz, solid)
		next := 0
		for ix := -1; ix <= nx; ix++ {
			for iy := -1; iy <= ny; iy++ {
				for iz := -2; iz < nz+2; iz++ {
					inBox := ix >= 0 && ix < nx && iy >= 0 && iy < ny && iz >= 0 && iz < nz
					off, ok := ri.at(ix, iy, iz)
					if fluid := inBox && !solid[(ix*ny+iy)*nz+iz]; ok != fluid {
						t.Fatalf("trial %d: at(%d,%d,%d) stored=%v, fluid=%v", trial, ix, iy, iz, ok, fluid)
					}
					if ok {
						if off != next {
							t.Fatalf("trial %d: at(%d,%d,%d) = %d, want %d (run order)", trial, ix, iy, iz, off, next)
						}
						next++
					}
				}
			}
		}
		if next != ri.cells() {
			t.Fatalf("trial %d: at covers %d offsets, index stores %d cells", trial, next, ri.cells())
		}
		for probe := 0; probe < 60; probe++ {
			ix, iy := int(rng.Float64()*float64(nx+2))-1, int(rng.Float64()*float64(ny+2))-1
			a := int(rng.Float64()*float64(nz+6)) - 3
			b := a + int(rng.Float64()*float64(nz+4)) // a ≤ b; empty when equal
			z := a
			lastOff := -1
			ri.clip(ix, iy, a, b, func(off, z0, n int) {
				if n <= 0 || z0 < z || z0+n > b {
					t.Fatalf("trial %d: clip(%d,%d,[%d,%d)) gave segment z=%d n=%d after z=%d", trial, ix, iy, a, b, z0, n, z)
				}
				for ; z < z0; z++ { // the gap before the segment holds no fluid
					if _, ok := ri.at(ix, iy, z); ok {
						t.Fatalf("trial %d: clip(%d,%d,[%d,%d)) skipped fluid cell z=%d", trial, ix, iy, a, b, z)
					}
				}
				for i := 0; i < n; i++ {
					if want, ok := ri.at(ix, iy, z0+i); !ok || want != off+i || want <= lastOff {
						t.Fatalf("trial %d: clip(%d,%d,[%d,%d)) z=%d at offset %d, at says %d %v", trial, ix, iy, a, b, z0+i, off+i, want, ok)
					}
					lastOff = off + i
				}
				z = z0 + n
			})
			for ; z < b; z++ {
				if _, ok := ri.at(ix, iy, z); ok {
					t.Fatalf("trial %d: clip(%d,%d,[%d,%d)) dropped fluid cell z=%d", trial, ix, iy, a, b, z)
				}
			}
		}
	}
}

// TestStreamRunsCopiesStoredUpwind holds the sparse stream kernel to the
// address map: with f distinct everywhere and fadv poisoned, one
// streamRuns call over box b leaves, at every stored cell of the local
// box, f's value at the upwind cell when the cell is inside b and its
// upwind cell is stored, and the poison otherwise. at is the oracle. The
// boxes cover the owned box, a z cut whose ends lie inside runs, the
// depth-2 destination box reaching into the ghosts, and the outermost
// ghost x-plane, whose upwind rows lie outside the local box. Every fluid
// row of the multi-run geometry holds two runs or more, so the vessel,
// where most rows hold one, covers the kernel's one-run case.
func TestStreamRunsCopiesStoredUpwind(t *testing.T) {
	for _, m := range []*lattice.Model{lattice.D3Q19(), lattice.D3Q39()} {
		k := m.MaxSpeed
		w := 2 * k // GhostDepth 2, ghosts on every axis
		multi := grid.Dims{NX: 24 * k, NY: 8 * k, NZ: 12 * k}
		vessel := grid.Dims{NX: 32, NY: 16, NZ: 16}
		nz := multi.NZ + 2*w
		for _, g := range []struct {
			name string
			n    grid.Dims
			mask *geom.Mask
			zcut [2]int // local z: through each tube, or the vessel's middle
		}{
			{"multi-run", multi, multiRunMask(multi, k), [2]int{nz / 4, 3 * nz / 4}},
			{"vessel", vessel, sparseTestMask(vessel), [2]int{w + vessel.NZ/2 - 1, w + vessel.NZ/2 + 1}},
		} {
			name := m.Name + " " + g.name
			cs := buildStepper(t, Config{
				Model: m, N: g.n, Tau: 0.8, Opt: OptGCC, Ranks: 1, Threads: 1, GhostDepth: 2,
				Solid: g.mask, Sparse: true,
			})
			d := cs.d
			zcut := cs.ownedBox()
			zcut.lo[2], zcut.hi[2] = g.zcut[0], g.zcut[1]
			var cutLo, cutHi bool
			for _, ru := range cs.runs {
				cutLo = cutLo || int(ru.lo) < zcut.lo[2] && zcut.lo[2] < int(ru.hi)
				cutHi = cutHi || int(ru.lo) < zcut.hi[2] && zcut.hi[2] < int(ru.hi)
			}
			if !cutLo || !cutHi {
				t.Fatalf("%s: z cut [%d, %d) starts inside a run %v, ends inside one %v; want both", name, zcut.lo[2], zcut.hi[2], cutLo, cutHi)
			}
			for i := range cs.f.Data {
				cs.f.Data[i] = float64(i + 1)
			}
			for _, c := range []struct {
				name string
				b    box
			}{
				{"owned", cs.ownedBox()},
				{"z cut", zcut},
				{"deep halo", cs.boxFor(cs.w)},
				{"ghost rim", box{hi: [3]int{1, d.NY, d.NZ}}},
			} {
				for i := range cs.fadv.Data {
					cs.fadv.Data[i] = math.NaN()
				}
				cs.streamRuns(0, c.b)
				for v := 0; v < m.Q; v++ {
					src, dst := cs.f.V(v), cs.fadv.V(v)
					for ix := 0; ix < d.NX; ix++ {
						for iy := 0; iy < d.NY; iy++ {
							for iz := 0; iz < d.NZ; iz++ {
								o, ok := cs.at(ix, iy, iz)
								if !ok {
									continue
								}
								want := math.NaN()
								in := ix >= c.b.lo[0] && ix < c.b.hi[0] && iy >= c.b.lo[1] && iy < c.b.hi[1] && iz >= c.b.lo[2] && iz < c.b.hi[2]
								if s, up := cs.at(ix-m.Cx[v], iy-m.Cy[v], iz-m.Cz[v]); in && up {
									want = src[s]
								}
								if got := dst[o]; got != want && !(math.IsNaN(got) && math.IsNaN(want)) {
									t.Fatalf("%s %s box %v: v=%d cell (%d,%d,%d) holds %g, want %g (in box %v)",
										name, c.name, c.b, v, ix, iy, iz, got, want, in)
								}
							}
						}
					}
				}
			}
		}
	}
}

// TestCompactFieldHoldsFluidOnly: on the 2-rank fluid-balanced vessel
// every rank's fields hold Q values per cell of its fluid runs over the
// ghosted box and nothing more — both grids under two-grid streaming, the
// single one under AA — while the dense run of the same configuration
// still allocates the whole box; RankStats.FieldBytes reports exactly
// that.
func TestCompactFieldHoldsFluidOnly(t *testing.T) {
	n := grid.Dims{NX: 48, NY: 24, NZ: 24}
	mask := sparseTestMask(n)
	for _, stream := range []StreamScheme{StreamTwoGrid, StreamAA} {
		for _, sparse := range []bool{true, false} {
			cfg := Config{
				Model: lattice.D3Q19(), N: n, Tau: 0.8, Steps: 2,
				Opt: OptGCC, Ranks: 2, Decomp: [3]int{2, 1, 1}, Threads: 1, GhostDepth: 2,
				Solid: mask, Balance: BalanceFluid, Sparse: sparse, Stream: stream,
			}
			dec, err := cfg.init()
			if err != nil {
				t.Fatal(err)
			}
			want := make([]int64, cfg.Ranks)
			if err := comm.NewFabric(cfg.Ranks).Run(func(r *comm.Rank) error {
				cs, err := newCartStepper(&cfg, dec, r)
				if err != nil {
					return err
				}
				defer cs.close()
				cells := cs.d.Cells()
				if sparse {
					cells = 0
					for _, ru := range cs.runs {
						cells += int(ru.hi - ru.lo)
					}
					if solid := cs.d.Cells() - cells; solid < 4*cells {
						t.Errorf("rank %d: %d fluid of %d cells — the vessel should be mostly solid", r.ID, cells, cs.d.Cells())
					}
				}
				fields := []*grid.Field{cs.f, cs.fadv}
				if stream == StreamAA {
					if cs.fadv != nil {
						t.Errorf("rank %d: AA allocated a second field", r.ID)
					}
					fields = fields[:1]
				}
				for i, f := range fields {
					if len(f.Data) != cfg.Model.Q*cells {
						t.Errorf("%s sparse=%v rank %d field %d: %d values, want Q·%d = %d",
							stream, sparse, r.ID, i, len(f.Data), cells, cfg.Model.Q*cells)
					}
				}
				want[r.ID] = int64(8 * len(fields) * cfg.Model.Q * cells)
				return nil
			}); err != nil {
				t.Fatal(err)
			}
			res, err := Run(cfg)
			if err != nil {
				t.Fatal(err)
			}
			for r, rs := range res.PerRank {
				if rs.FieldBytes != want[r] {
					t.Errorf("%s sparse=%v rank %d: FieldBytes %d, fields hold %d", stream, sparse, r, rs.FieldBytes, want[r])
				}
			}
		}
	}
}
