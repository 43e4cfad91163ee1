package core

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/collision"
	"repro/internal/geom"
	"repro/internal/grid"
	"repro/internal/lattice"
)

// TestCrossPathBitIdentity: every path collides with the one row kernel
// its rung and operator select, and streaming only moves values, so every
// way of running a configuration must produce the same field to the last
// bit — not merely within the 1e-12 reassociation envelope the other
// suites allow. The base is the periodic slab on 2 ranks, ghosts on x
// only; each variant changes only the path.
func TestCrossPathBitIdentity(t *testing.T) {
	n := grid.Dims{NX: 24, NY: 12, NZ: 12}
	variants := []struct {
		name  string
		apply func(*Config)
	}{
		{"ghosted", func(c *Config) { c.Sparse = true }}, // no mask: dense rows, ghosts on every axis
		{"pencil", func(c *Config) { c.Decomp = [3]int{1, 2, 1} }},
		{"aa", func(c *Config) { c.Stream = StreamAA }},
		{"fused", func(c *Config) { c.Fused = true }},
		{"fused-ghosted", func(c *Config) { c.Fused, c.Sparse = true, true }},
		{"threads-3", func(c *Config) { c.Threads = 3 }},
		{"depth-2", func(c *Config) { c.GhostDepth = 2 }},
	}
	for _, m := range []*lattice.Model{lattice.D3Q19(), lattice.D3Q39()} {
		for _, opt := range []OptLevel{OptGC, OptDH, OptCF, OptLoBr, OptNBC, OptGCC, OptSIMD} {
			for _, spec := range []collision.Spec{{}, {Kind: collision.TRT}} {
				base := Config{
					Model: m, N: n, Tau: 0.8, Steps: 6, Collision: spec,
					Opt: opt, Ranks: 2, Threads: 1, GhostDepth: 1,
				}
				want := runField(t, base)
				for _, v := range variants {
					cfg := base
					v.apply(&cfg)
					if d := grid.MaxAbsDiff(want, runField(t, cfg)); d != 0 {
						t.Errorf("%s %s %s: %s differs from the slab by %g (want 0 ULP)", m.Name, opt, spec, v.name, d)
					}
				}
			}
		}
	}

	// The SIMD rung steps with the gather sweep and GC-C with the split
	// path, so above the SIMD rows compare gather with gather; here each
	// SIMD run is held to GC-C's split run of the same lattice, operator,
	// decomposition and depth. The shapes cover both ways the sweep reads
	// an upwind row: the slab wraps z, so its cz ≠ 0 rows are rotated
	// copies and its cz = 0 rows views of f; ghosted z (Sparse, the
	// z-cut pencil) makes every row a view. D3Q39 reaches 3 cells.
	for _, m := range []*lattice.Model{lattice.D3Q19(), lattice.D3Q39()} {
		for _, spec := range []collision.Spec{{}, {Kind: collision.TRT}, {Kind: collision.MRT}} {
			for _, shape := range []struct {
				name   string
				decomp [3]int
				sparse bool
			}{{"slab", [3]int{2, 1, 1}, false}, {"ghosted", [3]int{2, 1, 1}, true}, {"pencil-z", [3]int{1, 1, 2}, false}} {
				for _, depth := range []int{1, 2} {
					split := Config{
						Model: m, N: n, Tau: 0.8, Steps: 6, Collision: spec,
						Opt: OptGCC, Ranks: 2, Decomp: shape.decomp, Sparse: shape.sparse,
						Threads: 2, GhostDepth: depth,
					}
					gather := split
					gather.Opt = OptSIMD
					if d := grid.MaxAbsDiff(runField(t, split), runField(t, gather)); d != 0 {
						t.Errorf("%s %s %s depth %d: SIMD (gather) differs from GC-C (split) by %g (want 0 ULP)", m.Name, spec, shape.name, depth, d)
					}
				}
			}
		}
	}

	// Bounce-back links across the y/z seam: a plate on the y = 0 and
	// z = NZ−1 faces of the periodic box plus a sphere. With ghosts on x
	// only the link builder folds those links across the wrap; with ghosts
	// everywhere (pencil shapes) they point into ghost copies of the
	// plate. One stream form per rung group, forced and deep. The gather
	// sweep applies the same links row by row: fused in both geometries and
	// on fluid-compact fields, AA on dense and on compact fields, agree
	// with the split path on every fluid cell (solid cells have no storage
	// under the run index and hold scheme-specific garbage under dense AA).
	// The plate's links land on cz = 0 velocities too, whose rows the
	// two-field sweep otherwise reads in place: those are copied before the
	// link is written. SIMD steps with the sweep, so its reference is GC-C's
	// split field.
	solid := geom.FromFunc(n, func(ix, iy, iz int) bool { return iy == 0 || iz == n.NZ-1 })
	solid.Union(geom.SphereAt(n, 11.5, 6, 5.5, 2.6))
	splitOf := func(c Config) Config {
		c.Fused = false
		if c.Opt == OptSIMD {
			c.Opt = OptGCC
		}
		return c
	}
	for _, m := range []*lattice.Model{lattice.D3Q19(), lattice.D3Q39()} {
		for _, opt := range []OptLevel{OptGC, OptDH, OptGCC, OptSIMD} {
			base := Config{
				Model: m, N: n, Tau: 0.8, Steps: 6, Solid: solid, Accel: [3]float64{1e-5, 0, 0},
				Opt: opt, Ranks: 2, Threads: 2, GhostDepth: 2,
			}
			want := runField(t, splitOf(base))
			for _, shape := range [][3]int{{1, 2, 1}, {1, 1, 2}} {
				cfg := base
				cfg.Decomp = shape
				if d := grid.MaxAbsDiff(want, runField(t, cfg)); d != 0 {
					t.Errorf("masked %s %s: ghosted shape %v differs from x-only ghosts by %g (want 0 ULP)", m.Name, opt, shape, d)
				}
			}
			for _, v := range []struct {
				name  string
				apply func(*Config)
			}{
				{"base", func(c *Config) {}},
				{"fused", func(c *Config) { c.Fused = true }},
				{"fused-pencil", func(c *Config) { c.Fused, c.Decomp = true, [3]int{1, 2, 1} }},
				{"fused-sparse", func(c *Config) { c.Fused, c.Sparse = true, true }},
				{"fused-trt", func(c *Config) { c.Fused, c.Collision = true, collision.Spec{Kind: collision.TRT} }},
				{"fused-mrt", func(c *Config) { c.Fused, c.Collision = true, collision.Spec{Kind: collision.MRT} }},
				{"aa", func(c *Config) { c.Stream = StreamAA }},
				{"aa-sparse", func(c *Config) { c.Stream, c.Sparse = StreamAA, true }},
			} {
				cfg := base
				v.apply(&cfg)
				ref := want
				if !cfg.Collision.IsBGK() {
					ref = runField(t, splitOf(cfg))
				}
				if d := fluidMaxAbsDiff(ref, runField(t, cfg), solid); d != 0 {
					t.Errorf("masked %s %s: %s differs from the split path by %g on fluid cells (want 0 ULP)", m.Name, opt, v.name, d)
				}
			}
		}
	}
}

// TestCollideAllocatesNothing: one single-thread pass of the row body over
// the owned region allocates nothing — the split path's (GC-C) and the
// gather sweep's (SIMD), for every operator's row kernel, in either ghost
// geometry: the chunk kernel and the row kernel are fields bound at
// construction, not method values rebuilt per call.
func TestCollideAllocatesNothing(t *testing.T) {
	n := grid.Dims{NX: 8, NY: 6, NZ: 6}
	for _, opt := range []OptLevel{OptGCC, OptSIMD} {
		for _, kind := range []collision.Kind{collision.BGK, collision.TRT, collision.MRT} {
			for _, ghosted := range []bool{false, true} {
				cs := buildStepper(t, Config{
					Model: lattice.D3Q19(), N: n, Tau: 0.8, Steps: 1,
					Opt: opt, Ranks: 1, Threads: 1, GhostDepth: 1, Sparse: ghosted,
					Collision: collision.Spec{Kind: kind},
				})
				owned := cs.ownedBox()
				if a := testing.AllocsPerRun(10, func() { cs.br.run(cs.gather, owned) }); a != 0 {
					t.Errorf("%s %s, ghosts on every axis = %v: the row body: %v allocs per call, want 0", opt, kind, ghosted, a)
				}
				cs.close()
			}
		}
	}
}

var pairLattices = []*lattice.Model{lattice.D3Q19(), lattice.D3Q27(), lattice.D3Q39()}

// randomRows fills Q rows of zn cells with a randomly perturbed
// equilibrium around a random velocity of lattice scale.
func randomRows(rng *rand.Rand, m *lattice.Model, zn int) [][]float64 {
	rows := make([][]float64, m.Q)
	for v := range rows {
		rows[v] = make([]float64, zn)
	}
	feq := make([]float64, m.Q)
	for z := 0; z < zn; z++ {
		m.Equilibrium(1+0.1*rng.Float64(), 0.1*rng.Float64()-0.05, 0.1*rng.Float64()-0.05, 0.1*rng.Float64()-0.05, feq)
		for v, f := range feq {
			rows[v][z] = f * (1 + 0.1*rng.Float64())
		}
	}
	return rows
}

// TestVelocityPairTable: the pair table is the lattice, regrouped — every
// velocity in exactly one pair with its opposite, oriented, carrying the
// lattice's own components on exactly the axes it moves along and its own
// weight — and the moment pass through it is Model.Moments.
func TestVelocityPairTable(t *testing.T) {
	shapes := map[string][4]int{"D3Q19": {1, 3, 6, 0}, "D3Q27": {1, 3, 6, 4}, "D3Q39": {1, 9, 6, 4}}
	rng := rand.New(rand.NewSource(1))
	for _, m := range pairLattices {
		var c collider
		if err := c.init(&Config{Model: m, Tau: 0.8, Opt: OptCF}); err != nil {
			t.Fatal(err)
		}
		seen := make([]int, m.Q)
		var count [4]int
		for _, p := range c.pairs {
			seen[p.i]++
			if p.j != p.i {
				seen[p.j]++
			}
			if p.j != m.Opp[p.i] {
				t.Errorf("%s: pair (%d, %d): Opp[%d] = %d", m.Name, p.i, p.j, p.i, m.Opp[p.i])
			}
			count[p.n]++
			if p.n > 0 && p.c[0] <= 0 {
				t.Errorf("%s: pair (%d, %d) is not oriented: first component %g", m.Name, p.i, p.j, p.c[0])
			}
			var comp [3]float64
			for a := 0; a < p.n; a++ {
				if p.c[a] == 0 || (a > 0 && p.ax[a] <= p.ax[a-1]) {
					t.Errorf("%s: pair (%d, %d): axes %v components %v", m.Name, p.i, p.j, p.ax[:p.n], p.c[:p.n])
				}
				comp[p.ax[a]] = p.c[a]
			}
			if want := [3]float64{float64(m.Cx[p.i]), float64(m.Cy[p.i]), float64(m.Cz[p.i])}; comp != want {
				t.Errorf("%s: pair (%d, %d) moves along %v, velocity %d is %v", m.Name, p.i, p.j, comp, p.i, want)
			}
			if w := c.tw[p.k] / c.omega; math.Abs(w-m.W[p.i]) > 1e-17 {
				t.Errorf("%s: pair (%d, %d): class weight %g, W = %g", m.Name, p.i, p.j, w, m.W[p.i])
			}
		}
		for v, k := range seen {
			if k != 1 {
				t.Errorf("%s: velocity %d is in %d pairs", m.Name, v, k)
			}
		}
		if count != shapes[m.Name] {
			t.Errorf("%s: rest/one/two/three-axis pairs %v, want %v", m.Name, count, shapes[m.Name])
		}
		distinct := map[float64]bool{}
		for _, w := range m.W {
			distinct[w] = true
		}
		if len(c.tw) != len(distinct) {
			t.Errorf("%s: %d weight classes, %d distinct weights", m.Name, len(c.tw), len(distinct))
		}

		const zn = 7
		in := randomRows(rng, m, zn)
		b := newRowBufs(zn, m.Q)
		c.pairMoments(&b, in, nil, zn)
		fc := make([]float64, m.Q)
		for z := 0; z < zn; z++ {
			for v := range fc {
				fc[v] = in[v][z]
			}
			rho, jx, jy, jz := m.Moments(fc)
			got := [4]float64{b.rho[z], b.j[0][z], b.j[1][z], b.j[2][z]}
			for k, want := range [4]float64{rho, jx, jy, jz} {
				if math.Abs(got[k]-want) > 1e-15 {
					t.Errorf("%s cell %d: moment %d through the pair table %g, Model.Moments %g", m.Name, z, k, got[k], want)
				}
			}
		}
	}
}

// TestPairKernelsMatchGeneric holds the pair kernels against arithmetic
// that shares nothing with them: relaxPaired against relaxGeneric's
// expanded polynomial per value, and relaxOpRows' equilibrium rows against
// Model.Equilibrium — at run lengths 1, 5 and a full 96-cell line, forced
// and unforced, relaxing in place and into separate rows.
func TestPairKernelsMatchGeneric(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	for _, m := range pairLattices {
		for _, accel := range [][3]float64{{}, {1e-4, -2e-4, 3e-4}} {
			cfg := Config{Model: m, Tau: 0.8, Opt: OptCF, Accel: accel}
			var paired, generic, trt collider
			if err := paired.init(&cfg); err != nil {
				t.Fatal(err)
			}
			cfg.Opt = OptDH
			if err := generic.init(&cfg); err != nil {
				t.Fatal(err)
			}
			cfg.Opt, cfg.Collision = OptCF, collision.Spec{Kind: collision.TRT}
			if err := trt.init(&cfg); err != nil {
				t.Fatal(err)
			}
			for _, zn := range []int{1, 5, 96} {
				sc := newScratches(1, m.Q, zn, trt.op)[0]
				in := randomRows(rng, m, zn)
				want := sc.gathered(zn)
				generic.relaxGeneric(sc, in, want, zn)
				for _, inPlace := range []bool{false, true} {
					src, dst := in, randomRows(rng, m, zn)
					if inPlace {
						for v := range dst {
							copy(dst[v], in[v])
						}
						src = dst
					}
					paired.relaxPaired(sc, src, dst, zn)
					for v := range dst {
						for z, got := range dst[v] {
							if math.Abs(got-want[v][z]) > 1e-14*math.Abs(want[v][z]) {
								t.Errorf("%s accel %v zn %d in place %v: f[%d][%d] paired %g, generic %g",
									m.Name, accel, zn, inPlace, v, z, got, want[v][z])
							}
						}
					}
				}

				out := sc.scattered(zn)
				trt.relaxOpRows(sc, in, out, zn)
				feq := make([]float64, m.Q)
				for z := 0; z < zn; z++ {
					for v := range sc.fc {
						sc.fc[v] = in[v][z]
					}
					rho, jx, jy, jz := m.Moments(sc.fc)
					m.Equilibrium(rho, jx/rho+trt.shiftX, jy/rho+trt.shiftY, jz/rho+trt.shiftZ, feq)
					for v, want := range feq {
						if got := sc.vrows[v][z]; math.Abs(got-want) > 1e-15 {
							t.Errorf("%s accel %v zn %d: feq[%d][%d] row kernel %g, Model.Equilibrium %g",
								m.Name, accel, zn, v, z, got, want)
						}
					}
				}
			}
		}
	}
}

// TestTRTKernelMatchesRelaxRows holds TRT's row kernel (relaxTRT, the
// fused primitives) to what it replaces — eqRows into feq rows, then
// collision.(*trtOp).RelaxRows, as relaxOpRows still runs them — at 0 ULP:
// on every lattice, forced and unforced, on the Go bodies (CF) and the
// SIMD rung's, at every run length 1–97 (every tail of the 4-wide loop),
// in place and into separate rows. The pair table must be oriented as the
// operator's pairs (i < Opp[i]) for the signs of zero to agree.
func TestTRTKernelMatchesRelaxRows(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for _, m := range pairLattices {
		for _, accel := range [][3]float64{{}, {1e-4, -2e-4, 3e-4}} {
			for _, opt := range []OptLevel{OptCF, OptSIMD} {
				var c collider
				if err := c.init(&Config{Model: m, Tau: 0.7, Opt: opt, Accel: accel, Collision: collision.Spec{Kind: collision.TRT}}); err != nil {
					t.Fatal(err)
				}
				for _, p := range c.pairs {
					if p.i > p.j {
						t.Fatalf("%s: pair (%d, %d) is oriented against the operator's", m.Name, p.i, p.j)
					}
				}
				const maxZn = 97
				sc := newScratches(1, m.Q, maxZn, c.op)[0]
				for zn := 1; zn <= maxZn; zn++ {
					in := randomRows(rng, m, zn)
					want := randomRows(rng, m, zn)
					c.relaxOpRows(sc, in, want, zn)
					for _, inPlace := range []bool{false, true} {
						got := randomRows(rng, m, zn)
						src := in
						if inPlace {
							for v := range got {
								copy(got[v], in[v])
							}
							src = got
						}
						c.relaxTRT(sc, src, got, zn)
						for v := range got {
							for z := range got[v] {
								if math.Float64bits(got[v][z]) != math.Float64bits(want[v][z]) {
									t.Fatalf("%s %s accel %v zn %d in place %v: f[%d][%d] = %v, eqRows + RelaxRows %v",
										m.Name, opt, accel, zn, inPlace, v, z, got[v][z], want[v][z])
								}
							}
						}
					}
				}
			}
		}
	}
}
