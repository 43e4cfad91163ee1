package core

// The set-up passes against the per-cell arithmetic they replaced: the
// initial field (initRows through eqRows) against Model.Equilibrium of
// Init, the conserved sums (pairMoments over stateRows) against a per-cell
// Moments loop, and the link scan by source row (buildFixups) against an
// exhaustive per-cell scan — plus the one error every rank returns for an
// initial condition that is not a state.

import (
	"math"
	"slices"
	"strings"
	"testing"

	"repro/internal/comm"
	"repro/internal/geom"
	"repro/internal/grid"
	"repro/internal/lattice"
)

// onRanks builds every rank's stepper of cfg and calls body on each, inside
// the fabric's run, so bodies may step and exchange.
func onRanks(t testing.TB, cfg Config, body func(cs *cartStepper)) {
	t.Helper()
	dec, err := cfg.init()
	if err != nil {
		t.Fatal(err)
	}
	if err := comm.NewFabric(cfg.Ranks).Run(func(r *comm.Rank) error {
		cs, err := newCartStepper(&cfg, dec, r)
		if err != nil {
			return err
		}
		defer cs.close()
		body(cs)
		return nil
	}); err != nil {
		t.Fatal(err)
	}
}

// setupCase is one storage arrangement of the set-up tests.
type setupCase struct {
	name string
	cfg  Config
}

// setupCases returns the storage arrangements of lattice m on grid n: dense,
// dense over a mask, and fluid-compact under the run index.
func setupCases(m *lattice.Model, n grid.Dims) []setupCase {
	mask := noiseMask(n, 4)
	base := Config{Model: m, N: n, Tau: 0.8, Opt: OptSIMD, Threads: 2, Init: waveInit(n)}
	masked := base
	masked.Solid = mask
	sparse := masked
	sparse.Sparse = true
	return []setupCase{{"dense", base}, {"dense-masked", masked}, {"sparse", sparse}}
}

// ownedCells calls cell for every owned local cell with its global
// coordinates.
func ownedCells(cs *cartStepper, cell func(ix, iy, iz, gx, gy, gz int)) {
	b := cs.ownedBox()
	for ix := b.lo[0]; ix < b.hi[0]; ix++ {
		for iy := b.lo[1]; iy < b.hi[1]; iy++ {
			for iz := b.lo[2]; iz < b.hi[2]; iz++ {
				cell(ix, iy, iz, cs.start[0]+ix-cs.w[0], cs.start[1]+iy-cs.w[1], cs.start[2]+iz-cs.w[2])
			}
		}
	}
}

// TestInitFieldMatchesEquilibrium: the row-built initial field is
// Model.Equilibrium of Init to 1e-15 relative per value on every lattice
// and storage arrangement, and a dense field's solid cells hold exactly
// the rest state.
func TestInitFieldMatchesEquilibrium(t *testing.T) {
	n := grid.Dims{NX: 12, NY: 8, NZ: 10}
	for _, m := range pairLattices {
		for _, tc := range setupCases(m, n) {
			onRanks(t, tc.cfg, func(cs *cartStepper) {
				if bad := cs.initField(); bad != 0 {
					t.Errorf("%s %s: initField reports bad cell %d", m.Name, tc.name, bad-1)
				}
				feq := make([]float64, m.Q)
				worst := 0.0
				ownedCells(cs, func(ix, iy, iz, gx, gy, gz int) {
					off, ok := cs.cell(ix, iy, iz)
					if !ok {
						return // a solid cell has no storage under the run index
					}
					solid := cs.mask != nil && cs.mask[cs.d.Index(ix, iy, iz)]
					want := cs.rest
					if !solid {
						rho, ux, uy, uz := cs.cfg.Init(gx, gy, gz)
						m.Equilibrium(rho, ux, uy, uz, feq)
						want = feq
					}
					for v, w := range want {
						got := cs.f.Data[cs.f.Idx(v, off)]
						if solid && math.Float64bits(got) != math.Float64bits(w) {
							t.Errorf("%s %s: solid cell (%d,%d,%d) f[%d] = %g, rest state %g", m.Name, tc.name, gx, gy, gz, v, got, w)
						}
						worst = max(worst, math.Abs(got-w)/math.Abs(w))
					}
				})
				if worst > 1e-15 {
					t.Errorf("%s %s: initial field deviates from Model.Equilibrium by %g relative", m.Name, tc.name, worst)
				}
			})
		}
	}
}

// sumsPerCell is the per-cell reference of ownedSums: Model.Moments of
// every owned fluid cell's populations, read one by one (through starPop
// in AA's star arrangement), summed, with the sums of magnitudes that
// scale each one's rounding.
func sumsPerCell(cs *cartStepper) (sums, scale [4]float64) {
	m, f, fc := cs.model, cs.f, make([]float64, cs.model.Q)
	ownedCells(cs, func(ix, iy, iz, _, _, _ int) {
		off, ok := cs.fluidCell(ix, iy, iz)
		if !ok {
			return
		}
		for v := range fc {
			if cs.aaStar {
				fc[v] = cs.starPop(v, ix, iy, iz)
			} else {
				fc[v] = f.Data[f.Idx(v, off)]
			}
		}
		rho, jx, jy, jz := m.Moments(fc)
		for k, x := range [4]float64{rho, jx, jy, jz} {
			sums[k] += x
			scale[k] += math.Abs(x)
		}
	})
	return sums, scale
}

// TestOwnedSumsMatchMoments: the row sums are the per-cell Moments sums to
// 1e-13 of their scale, stepped three times so the field is off
// equilibrium — AA's odd count leaves it in star arrangement — and mass and
// momentum are the same bits at 1, 2 and 3 threads.
func TestOwnedSumsMatchMoments(t *testing.T) {
	n := grid.Dims{NX: 12, NY: 8, NZ: 10}
	cases := setupCases(lattice.D3Q19(), n)[1:] // dense-masked, sparse
	for _, sparse := range []bool{false, true} {
		aa := cases[0] // AA on the dense-masked case, then fluid-compact
		aa.name, aa.cfg.Stream, aa.cfg.Sparse = "aa-star", StreamAA, sparse
		if sparse {
			aa.name += "-sparse"
		}
		cases = append(cases, aa)
	}
	for _, tc := range cases {
		tc.cfg.Steps = 3
		var ref [4]float64
		for threads := 1; threads <= 3; threads++ {
			tc.cfg.Threads = threads
			onRanks(t, tc.cfg, func(cs *cartStepper) {
				cs.initField()
				cs.run()
				if tc.cfg.Stream == StreamAA && !cs.aaStar {
					t.Errorf("%s: an odd step count left the field in normal arrangement", tc.name)
				}
				mass, mx, my, mz := cs.ownedSums()
				got := [4]float64{mass, mx, my, mz}
				want, scale := sumsPerCell(cs)
				for k := range got {
					if d := math.Abs(got[k] - want[k]); d > 1e-13*scale[k] {
						t.Errorf("%s threads %d: sum %d is %g by rows, %g per cell (scale %g)", tc.name, threads, k, got[k], want[k], scale[k])
					}
				}
				if threads == 1 {
					ref = got
				} else if got != ref {
					t.Errorf("%s: sums at %d threads %v, at 1 thread %v", tc.name, threads, got, ref)
				}
			})
		}
	}
}

// fixupsPerCell is the exhaustive reference of buildFixups: every Q
// upwind cell of every fluid cell of the local box tested, in (ix, iy, iz,
// v) order, cells and their links classified by solidAt — the scan the
// per-run scan replaced.
func fixupsPerCell(cs *cartStepper) *fixIndex {
	nx, ny, nz := cs.d.NX, cs.d.NY, cs.d.NZ
	m, class := cs.model, cs.class
	owned := func(a, i int) bool { return i >= cs.w[a] && i < cs.w[a]+cs.own[a] }
	solid := func(ix, iy, iz int) bool {
		s, _ := cs.solidAt([3]axisClass{class[0][ix], class[1][iy], class[2][iz]})
		return s
	}
	fi := newFixIndex(nx*ny, m)
	for ix := 0; ix < nx; ix++ {
		for iy := 0; iy < ny; iy++ {
			fi.rows[ix*ny+iy] = int32(len(fi.links))
			for iz := 0; iz < nz; iz++ {
				if solid(ix, iy, iz) {
					continue
				}
				cell, _ := cs.cell(ix, iy, iz)
				for v := 0; v < m.Q; v++ {
					sx, sy, sz := ix-m.Cx[v], iy-m.Cy[v], iz-m.Cz[v]
					if cs.w[1] == 0 {
						sy = (sy + ny) % ny
					}
					if cs.w[2] == 0 {
						sz = (sz + nz) % nz
					}
					if sx < 0 || sx >= nx || sy < 0 || sy >= ny || sz < 0 || sz >= nz || !solid(sx, sy, sz) {
						continue
					}
					c := [3]axisClass{class[0][sx], class[1][sy], class[2][sz]}
					var flags uint8
					if owned(0, ix) && owned(1, iy) && owned(2, iz) {
						flags |= fixOwned
					}
					if solid, face := cs.solidAt(c); solid && !face {
						flags |= fixObstacle
					}
					fi.links = append(fi.links, fixup{
						cell: int32(cell), v: uint8(v), opp: uint8(m.Opp[v]),
						delta: cs.faceDelta(v, c), flags: flags,
					})
				}
			}
		}
	}
	fi.rows[nx*ny] = int32(len(fi.links))
	return fi
}

// solidAt classifies one local point, cell by cell: whether it is solid,
// and whether the solidity comes from a global boundary face (walls,
// moving walls, velocity inlets) rather than the user's voxel mask. Mask
// coordinates wrap on periodic axes and clamp beyond non-wall bounded
// faces (the mask analog of zero gradient). It is the per-cell reference
// of buildMask's rows and of the links' body tags.
func (cs *cartStepper) solidAt(c [3]axisClass) (solid, face bool) {
	for a := 0; a < 3; a++ {
		if c[a].side >= 0 {
			switch cs.spec.Faces[a][c[a].side].Kind {
			case BCWall, BCMovingWall, BCInlet:
				return true, true
			}
		}
	}
	return cs.cfg.Solid != nil && cs.cfg.Solid.At(c[0].g, c[1].g, c[2].g), false
}

// fixupScanCases are the geometries the set-up scans are held to their
// per-cell references on: walls and lids on every axis, uniform and
// profiled inlets with an outlet's clamp, both wrap axes, noise masks, fluid-compact storage, reach 3,
// rows of several fluid runs, and an obstacle across the z wrap of a
// y-ghosted pencil.
func fixupScanCases() []setupCase {
	q19, q39 := lattice.D3Q19(), lattice.D3Q39()
	n := grid.Dims{NX: 16, NY: 12, NZ: 8}
	channel := grid.Dims{NX: 24, NY: 12, NZ: 6}
	vessel := grid.Dims{NX: 32, NY: 16, NZ: 16}
	multi19 := grid.Dims{NX: 24, NY: 8, NZ: 12}
	multi39 := grid.Dims{NX: 72, NY: 24, NZ: 36}
	seam := geom.FromFunc(n, func(ix, iy, iz int) bool {
		dz := min(iz, n.NZ-iz) // a ball centred on the z seam, solid on both sides of it
		return (ix-8)*(ix-8)+(iy-6)*(iy-6)+dz*dz <= 9
	})
	duct := func(gx, gy, gz int) [3]float64 { // varies along z too: a span's δ changes cell by cell
		y, z := (float64(gy)+0.5)/float64(channel.NY), (float64(gz)+0.5)/float64(channel.NZ)
		return [3]float64{0.96 * y * (1 - y) * z * (1 - z), 0, 0}
	}
	zLid := ChannelSpec() // walls on y, and on z a wall below a lid moving along x
	zLid.Faces[2][0] = Face{Kind: BCWall}
	zLid.Faces[2][1] = Face{Kind: BCMovingWall, U: [3]float64{0.05, 0, 0}}
	cases := []setupCase{
		{"cavity", Config{Model: q19, N: n, Boundary: CavitySpec(0.05)}},
		{"inlet-channel-cylinder", Config{Model: q19, N: channel, Boundary: InletChannelSpec(0.04, nil),
			Solid: geom.CylinderZ(channel, 8, 6, 2.5)}},
		{"profiled-inlet-channel-cylinder", Config{Model: q19, N: channel, Ranks: 2, Boundary: InletChannelSpec(0, duct),
			Solid: geom.CylinderZ(channel, 8, 6, 2.5)}},
		{"z-walls-lid", Config{Model: q19, N: n, Ranks: 2, Boundary: zLid, Solid: noiseMask(n, 8)}},
		{"pencil-wrap-z", Config{Model: q19, N: n, Ranks: 4, Decomp: [3]int{2, 2, 1}, Solid: noiseMask(n, 5)}},
		{"slab-wrap-y", Config{Model: q19, N: n, Ranks: 2, Solid: noiseMask(n, 6)}},
		{"sparse-vessel", Config{Model: q19, N: vessel, Ranks: 2, Sparse: true, Solid: geom.Bifurcation(vessel, 3)}},
		{"q39-cavity", Config{Model: q39, N: n, Ranks: 2, Boundary: CavitySpec(0.05), Solid: noiseMask(n, 7)}},
		{"q39-sparse-vessel-depth2", Config{Model: q39, N: vessel, Ranks: 2, GhostDepth: 2, Sparse: true, Solid: geom.Bifurcation(vessel, 3)}},
		{"multi-run-wrap", Config{Model: q19, N: multi19, Solid: multiRunMask(multi19, 1)}},
		{"q39-multi-run-sparse", Config{Model: q39, N: multi39, GhostDepth: 2, Sparse: true, Solid: multiRunMask(multi39, 3)}},
		{"pencil-y-ghosts-z-seam", Config{Model: q19, N: n, Ranks: 2, Decomp: [3]int{1, 2, 1}, Solid: seam}},
	}
	for i := range cases {
		cases[i].cfg.Tau, cases[i].cfg.Opt = 0.8, OptSIMD
	}
	return cases
}

// TestFixupScanMatchesExhaustive pins the link scan by fluid run to the
// exhaustive per-cell scan: the same links (cell, v, opp, δ, flags) in the
// same CSR order, and the same row table, on every rank of
// fixupScanCases — with the list allocated at its exact size.
func TestFixupScanMatchesExhaustive(t *testing.T) {
	for _, tc := range fixupScanCases() {
		onRanks(t, tc.cfg, func(cs *cartStepper) {
			if cs.fix == nil {
				t.Errorf("%s: rank %d has no fixup index", tc.name, cs.r.ID)
				return
			}
			if cap(cs.fix.links) != len(cs.fix.links) {
				t.Errorf("%s: rank %d: %d links in a list of capacity %d", tc.name, cs.r.ID, len(cs.fix.links), cap(cs.fix.links))
			}
			want := fixupsPerCell(cs)
			if len(want.links) == 0 {
				t.Errorf("%s: rank %d: the case has no links to compare", tc.name, cs.r.ID)
			}
			if len(cs.fix.links) != len(want.links) {
				t.Errorf("%s: rank %d: %d links, exhaustive scan %d", tc.name, cs.r.ID, len(cs.fix.links), len(want.links))
				return
			}
			for i, fx := range cs.fix.links {
				if fx != want.links[i] {
					t.Errorf("%s: rank %d: link %d is %+v, exhaustive scan %+v", tc.name, cs.r.ID, i, fx, want.links[i])
					return
				}
			}
			for i, r := range cs.fix.rows {
				if r != want.rows[i] {
					t.Errorf("%s: rank %d: row %d starts at link %d, exhaustive scan %d", tc.name, cs.r.ID, i, r, want.rows[i])
					return
				}
			}
		})
	}
}

// TestMaskMatchesSolidAt pins the mask buildMask builds to the per-cell
// solidAt classification on every rank of fixupScanCases, ghosts included:
// on dense fields the cell mask, under the run index — where no cell mask
// may exist — which cells the installed index stores. The fluid runs
// buildMask returns, installed or set-up-only dense, must be the
// run-length encoding of that classification.
func TestMaskMatchesSolidAt(t *testing.T) {
	for _, tc := range fixupScanCases() {
		onRanks(t, tc.cfg, func(cs *cartStepper) {
			class := cs.class
			if tc.cfg.Sparse != (cs.mask == nil) {
				t.Errorf("%s: rank %d: sparse %v, but a cell mask of %d cells was built", tc.name, cs.r.ID, tc.cfg.Sparse, len(cs.mask))
			}
			solid := make([]bool, cs.d.Cells())
			for ix := 0; ix < cs.d.NX; ix++ {
				for iy := 0; iy < cs.d.NY; iy++ {
					for iz := 0; iz < cs.d.NZ; iz++ {
						i := cs.d.Index(ix, iy, iz)
						solid[i], _ = cs.solidAt([3]axisClass{class[0][ix], class[1][iy], class[2][iz]})
						_, stored := cs.at(ix, iy, iz)
						got := !stored
						if !tc.cfg.Sparse {
							got = cs.mask[i]
						}
						if got != solid[i] {
							t.Fatalf("%s: rank %d: cell (%d, %d, %d) solid %v, solidAt %v", tc.name, cs.r.ID, ix, iy, iz, got, solid[i])
						}
					}
				}
			}
			want := newRunIndex(cs.d.NX, cs.d.NY, cs.d.NZ, solid)
			got := cs.buildMask()
			if tc.cfg.Sparse != (got == &cs.runIndex) {
				t.Errorf("%s: rank %d: sparse %v, but the runs are installed: %v", tc.name, cs.r.ID, tc.cfg.Sparse, got == &cs.runIndex)
			}
			if !slices.Equal(got.runs, want.runs) || !slices.Equal(got.runStart, want.runStart) ||
				!slices.Equal(got.off, want.off) || !slices.Equal(got.row, want.row) {
				t.Errorf("%s: rank %d: buildMask's fluid runs differ from the run-length encoding of solidAt", tc.name, cs.r.ID)
			}
		})
	}
}

// TestRunReleasesFields: every field a stepper maps outside the Go heap is
// released again — grid.MappedBytes returns to its starting value after a
// successful Run, after Run's init-error path and after a newCartStepper
// that fails once its fields exist (here: a halo wider than the slab).
func TestRunReleasesFields(t *testing.T) {
	start := grid.MappedBytes()
	released := func(what string) {
		t.Helper()
		if live := grid.MappedBytes() - start; live != 0 {
			t.Errorf("%s: %d mapped bytes still live", what, live)
		}
	}
	n := grid.Dims{NX: 32, NY: 16, NZ: 32}
	cfg := Config{Model: lattice.D3Q19(), N: n, Tau: 0.8, Steps: 2, Opt: OptSIMD, Ranks: 2, Threads: 2, Init: waveInit(n)}
	if _, err := Run(cfg); err != nil {
		t.Fatal(err)
	}
	released("Run")

	bad := cfg
	bad.Init = func(ix, iy, iz int) (rho, ux, uy, uz float64) {
		if ix == 20 {
			return math.NaN(), 0, 0, 0
		}
		return 1, 0, 0, 0
	}
	if _, err := Run(bad); err == nil {
		t.Fatal("a NaN initial density was accepted")
	}
	released("Run with a bad initial condition")

	dec, err := cfg.init()
	if err != nil {
		t.Fatal(err)
	}
	wide := cfg
	wide.GhostDepth = n.NX // 32 ghost planes on 16-plane slabs: the exchanger refuses
	if err := comm.NewFabric(cfg.Ranks).Run(func(r *comm.Rank) error {
		cs, err := newCartStepper(&wide, dec, r)
		if err == nil {
			cs.close()
		}
		return err
	}); err == nil {
		t.Fatal("a halo wider than the slab was accepted")
	}
	released("newCartStepper failure")
}

// TestBadInitialConditionFails: an Init that is not a state at some cells
// fails the run before its first step, with one error naming the lowest
// such cell — on one rank; on an x slab pair with the bad cells on rank 1,
// where they lie in different chunks of its two workers' batch; and on a y
// pair, where each rank holds one and the lowest is rank 0's. Which worker
// meets which bad cell is up to the pool, so each shape runs a few times.
func TestBadInitialConditionFails(t *testing.T) {
	n := grid.Dims{NX: 32, NY: 16, NZ: 32}
	init := func(ix, iy, iz int) (rho, ux, uy, uz float64) {
		switch [3]int{ix, iy, iz} {
		case [3]int{20, 3, 2}:
			return 1, math.NaN(), 0, 0
		case [3]int{28, 0, 0}:
			return -1, 0, 0, 0
		case [3]int{31, 15, 31}:
			return 1, 0, math.Inf(1), 0
		}
		return 1, 0.01, 0, 0
	}
	for _, shape := range [][3]int{{1, 1, 1}, {2, 1, 1}, {1, 2, 1}} {
		for range 5 {
			_, err := Run(Config{
				Model: lattice.D3Q19(), N: n, Tau: 0.8, Steps: 5,
				Opt: OptSIMD, Ranks: shape[0] * shape[1], Decomp: shape, Threads: 2, Init: init,
			})
			if err == nil {
				t.Fatalf("%v ranks: a NaN initial velocity was accepted", shape)
			}
			msg := err.Error()
			if !strings.Contains(msg, "(20, 3, 2)") || strings.Count(msg, "initial condition") != 1 {
				t.Fatalf("%v ranks: error %q does not name the lowest bad cell (20, 3, 2) once", shape, msg)
			}
		}
	}
}
