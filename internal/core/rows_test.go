package core

import (
	"encoding/binary"
	"math"
	"math/rand"
	"reflect"
	"testing"
	"unsafe"

	"repro/internal/collision"
	"repro/internal/geom"
	"repro/internal/grid"
	"repro/internal/lattice"
)

// rowPrim is one row primitive as the tests drive it: how many output
// rows (read and written) and input rows (read only) it takes, in argument
// order outputs first, its scalar count, and which output rows a caller
// may pass as one of its inputs (relaxing in place).
type rowPrim struct {
	name          string
	outs, ins, ks int
	alias         [][2]int // (output, input) pairs
	call          func(r *rowOps, o, i [][]float64, k []float64)
}

// goRows are the Go bodies in the vector table's shape.
var goRows = rowOps{
	moments: func(rho, jx, jy, jz []float64, in [][]float64, tab []momPair, _ []uintptr) {
		momentRows(rho, jx, jy, jz, in, tab, 0)
	},
	velocity: velocityRows, scale: scaleRow, comb2: comb2, comb3: comb3,
	relax0: relax0, relax2: relax2, relax3: relax3,
	eq0: eq0, eq2: eq2, eq3: eq3,
	trt0: trt0, trt2: trt2, trt3: trt3,
}

var rowPrims = []rowPrim{
	// velocity's ρ row is read only, so it leads as input row 0: the run
	// is its length.
	{"velocity", 4, 1, 5, nil, func(r *rowOps, o, i [][]float64, k []float64) {
		r.velocity(i[0], o[0], o[1], o[2], o[3], k[0], k[1], k[2], k[3], k[4])
	}},
	{"scale", 1, 1, 1, [][2]int{{0, 0}}, func(r *rowOps, o, i [][]float64, k []float64) { r.scale(o[0], i[0], k[0]) }},
	{"comb2", 1, 2, 2, nil, func(r *rowOps, o, i [][]float64, k []float64) { r.comb2(o[0], i[0], i[1], k[0], k[1]) }},
	{"comb3", 1, 3, 3, nil, func(r *rowOps, o, i [][]float64, k []float64) {
		r.comb3(o[0], i[0], i[1], i[2], k[0], k[1], k[2])
	}},
	{"relax0", 1, 3, 1, [][2]int{{0, 0}}, func(r *rowOps, o, i [][]float64, k []float64) {
		r.relax0(o[0], i[0], i[1], i[2], k[0])
	}},
	{"relax2", 2, 5, 2, [][2]int{{0, 0}, {1, 1}}, func(r *rowOps, o, i [][]float64, k []float64) {
		r.relax2(o[0], o[1], i[0], i[1], i[2], i[3], i[4], k[0], k[1])
	}},
	{"relax3", 2, 5, 3, [][2]int{{0, 0}, {1, 1}}, func(r *rowOps, o, i [][]float64, k []float64) {
		r.relax3(o[0], o[1], i[0], i[1], i[2], i[3], i[4], k[0], k[1], k[2])
	}},
	{"eq0", 1, 2, 0, nil, func(r *rowOps, o, i [][]float64, k []float64) { r.eq0(o[0], i[0], i[1]) }},
	{"eq2", 2, 3, 1, nil, func(r *rowOps, o, i [][]float64, k []float64) { r.eq2(o[0], o[1], i[0], i[1], i[2], k[0]) }},
	{"eq3", 2, 3, 2, nil, func(r *rowOps, o, i [][]float64, k []float64) {
		r.eq3(o[0], o[1], i[0], i[1], i[2], k[0], k[1])
	}},
	{"trt0", 1, 3, 1, [][2]int{{0, 0}}, func(r *rowOps, o, i [][]float64, k []float64) {
		r.trt0(o[0], i[0], i[1], i[2], k[0])
	}},
	{"trt2", 2, 5, 3, [][2]int{{0, 0}, {1, 1}}, func(r *rowOps, o, i [][]float64, k []float64) {
		r.trt2(o[0], o[1], i[0], i[1], i[2], i[3], i[4], k[0], k[1], k[2])
	}},
	{"trt3", 2, 5, 4, [][2]int{{0, 0}, {1, 1}}, func(r *rowOps, o, i [][]float64, k []float64) {
		r.trt3(o[0], o[1], i[0], i[1], i[2], i[3], i[4], k[0], k[1], k[2], k[3])
	}},
}

// needSIMDRows skips where this build or CPU binds no vector bodies.
func needSIMDRows(t testing.TB) {
	if simdRows == nil {
		t.Skip("no vector row bodies here: they need amd64 with AVX2 and OS YMM state, and race builds keep the Go bodies")
	}
}

// specials are the values a row primitive must carry through bit for bit:
// signed zeros, subnormals, extremes and infinities (NaN is checked as
// NaN only).
var specials = []float64{
	0, math.Copysign(0, -1), 5e-324, -5e-324, 2.2e-310, -1e-310,
	math.SmallestNonzeroFloat64 * 3, 1e-300, -1e300, math.MaxFloat64,
	math.Inf(1), math.Inf(-1), math.NaN(), 1, -1, 0.5,
}

// alignedRow returns a row of n values that starts off values past a
// 32-byte boundary.
func alignedRow(n, off int) []float64 {
	buf := make([]float64, n+off+4)
	skip := int(-uintptr(unsafe.Pointer(&buf[0])) % 32 / 8)
	return buf[skip+off:][:n]
}

// checkRowPrim runs p's Go body and its body in the vector table vec on
// copies of the same rows — a run of n values, value(r, z) in row r
// (outputs first), k its scalars — with the output rows of alias passed as
// the inputs they pair with, and fails unless every stored value has the
// same bits (or is NaN in both). Row r starts off(r) values past a 32-byte
// boundary. Every row but the one that sets the run is two values longer,
// and those must stay untouched.
func checkRowPrim(t *testing.T, vec *rowOps, p rowPrim, n int, value func(r, z int) float64, k []float64, alias [][2]int, off func(r int) int) {
	t.Helper()
	const pad = 2
	rows := func() (o, in [][]float64, all [][]float64) {
		all = make([][]float64, p.outs+p.ins)
		for r := range all {
			all[r] = alignedRow(n+pad, off(r))
			for z := range all[r] {
				all[r][z] = value(r, z)
			}
		}
		o, in = append([][]float64(nil), all[:p.outs]...), append([][]float64(nil), all[p.outs:]...)
		for _, a := range alias {
			in[a[1]] = o[a[0]]
		}
		if p.name == "velocity" {
			in[0] = in[0][:n]
		} else {
			o[0] = o[0][:n]
		}
		return o, in, all
	}
	og, ig, goAll := rows()
	ov, iv, vecAll := rows()
	p.call(&goRows, og, ig, k)
	p.call(vec, ov, iv, k)
	for r := range goAll {
		for z := range goAll[r] {
			want, got := goAll[r][z], vecAll[r][z]
			if z >= n && math.Float64bits(got) != math.Float64bits(value(r, z)) {
				t.Fatalf("%s n %d alias %v: row %d wrote past the run at %d", p.name, n, alias, r, z)
			}
			if math.Float64bits(got) != math.Float64bits(want) && !(math.IsNaN(want) && math.IsNaN(got)) {
				t.Fatalf("%s n %d alias %v k %v offsets %d/%d: row %d [%d] vector %v (%#x), Go %v (%#x)",
					p.name, n, alias, k, off(0), off(1), r, z, got, math.Float64bits(got), want, math.Float64bits(want))
			}
		}
	}
}

// mixedOffsets starts row r r mod 4 values past a 32-byte boundary.
func mixedOffsets(r int) int { return r % 4 }

// streamOffsets starts the output rows di and dj oi and oj values past a
// 32-byte boundary — the streaming wrappers' head peel and their fallback
// where the two differ — and the input rows at mixed offsets.
func streamOffsets(oi, oj int) func(r int) int {
	return func(r int) int {
		switch r {
		case 0:
			return oi
		case 1:
			return oj
		}
		return (r + oi) % 4
	}
}

// checkStreamPrims holds p's body in simdStreamRows to its Go body with
// di at each offset 0–3 from a 32-byte boundary and dj at each, so that
// the streaming bodies run behind every head the wrappers peel, and the
// plain x4 bodies wherever dj's offset differs. (A wrapper that let a
// misaligned address reach VMOVNTPD faults the test binary.)
func checkStreamPrims(t *testing.T, p rowPrim, n int, value func(r, z int) float64, k []float64) {
	t.Helper()
	for oi := 0; oi < 4; oi++ {
		for oj := 0; oj < 4; oj++ {
			checkRowPrim(t, simdStreamRows, p, n, value, k, nil, streamOffsets(oi, oj))
			checkRowPrim(t, simdStreamRows, p, n, value, k, p.alias, streamOffsets(oi, oj))
		}
	}
}

// momentLattices are the pair tables the moment pass is checked on.
var momentLattices = []*lattice.Model{lattice.D3Q19(), lattice.D3Q27(), lattice.D3Q39()}

// pairPasses is the moment pass as one Go per-pair pass per velPair of
// ps, in their order: the reference the table-driven bodies are held to.
func pairPasses(rho []float64, j [3][]float64, in [][]float64, ps []velPair) {
	for z := range rho {
		rho[z], j[0][z], j[1][z], j[2][z] = 0, 0, 0, 0
	}
	for _, p := range ps {
		si, sj := in[p.i], in[p.j]
		ja, jb, jc := j[p.ax[0]], j[p.ax[1]], j[p.ax[2]]
		switch p.n {
		case 0:
			sumRow(rho, si)
		case 1:
			moments1(rho, ja, si, sj, p.c[0])
		case 2:
			moments2(rho, ja, jb, si, sj, p.c[0], p.c[1])
		case 3:
			moments3(rho, ja, jb, jc, si, sj, p.c[0], p.c[1], p.c[2])
		}
	}
}

// checkMoments holds the moment pass's Go body and its body in vec to
// the per-pair passes over m's pair table at 0 ULP (NaN against NaN): a
// run of n cells, population v's row holding value(v, z) and starting
// off(v) values past a 32-byte boundary. The ρ and j rows are two values
// longer than the run (ρ's length sets it), and those two must stay
// untouched. The vector body runs without a prefetch table and with three
// (aheadTables): a prefetch must change no value and fault nowhere.
func checkMoments(t *testing.T, vec *rowOps, m *lattice.Model, n int, value func(v, z int) float64, off func(r int) int) {
	t.Helper()
	const pad = 2
	ps, _ := velocityPairs(m)
	tab := momPairs(ps)
	in := make([][]float64, m.Q)
	for v := range in {
		in[v] = alignedRow(n+pad, off(v))
		for z := range in[v] {
			in[v][z] = value(v, z)
		}
	}
	sentinel := func(r, z int) float64 { return math.Float64frombits(0x4321dead00000000 | uint64(r<<8|z)) }
	rows := func() (rho []float64, j [3][]float64) {
		all := make([][]float64, 4)
		for r := range all {
			all[r] = alignedRow(n+pad, off(m.Q+r))
			for z := range all[r] {
				all[r][z] = sentinel(r, z)
			}
		}
		return all[0], [3][]float64{all[1], all[2], all[3]}
	}
	wantRho, wantJ := rows()
	pairPasses(wantRho[:n], wantJ, in, ps)
	type momBody struct {
		name  string
		ops   *rowOps
		ahead []uintptr
	}
	bodies := []momBody{{"Go", &goRows, nil}, {"vector", vec, nil}}
	for name, ahead := range aheadTables(in, n) {
		bodies = append(bodies, momBody{"vector, ahead " + name, vec, ahead})
	}
	for _, body := range bodies {
		rho, j := rows()
		body.ops.moments(rho[:n], j[0], j[1], j[2], in, tab, body.ahead)
		for r, got := range [4][]float64{rho, j[0], j[1], j[2]} {
			want := [4][]float64{wantRho, wantJ[0], wantJ[1], wantJ[2]}[r]
			for z := range got {
				g, w := got[z], want[z]
				if z >= n && math.Float64bits(g) != math.Float64bits(sentinel(r, z)) {
					t.Fatalf("%s moments, %s n %d: row %d wrote past the run at %d", body.name, m.Name, n, r, z)
				}
				if math.Float64bits(g) != math.Float64bits(w) && !(math.IsNaN(g) && math.IsNaN(w)) {
					t.Fatalf("%s moments, %s n %d offsets %d/%d: row %d [%d] %v (%#x), per-pair passes %v (%#x)",
						body.name, m.Name, n, off(0), off(1), r, z, g, math.Float64bits(g), w, math.Float64bits(w))
				}
			}
		}
	}
}

// aheadTables are the prefetch tables the moment pass is run with on the
// rows in, a run of n cells: where the next span of each row would start
// (next), far past the rows' ends (far), and all at address 0 (zero).
func aheadTables(in [][]float64, n int) map[string][]uintptr {
	tabs := map[string][]uintptr{"next": nil, "far": nil, "zero": make([]uintptr, len(in))}
	for _, row := range in {
		a := uintptr(unsafe.Pointer(unsafe.SliceData(row)))
		tabs["next"] = append(tabs["next"], a+uintptr(n)*8)
		tabs["far"] = append(tabs["far"], a+1<<30)
	}
	return tabs
}

// randomRowValues draws rows × n normal values, a quarter of them
// replaced by specials where withSpecials is set, as value(r, z).
func randomRowValues(rng *rand.Rand, rows, n int, withSpecials bool) func(r, z int) float64 {
	vals := make([][]float64, rows)
	for r := range vals {
		vals[r] = make([]float64, n)
		for z := range vals[r] {
			vals[r][z] = rng.NormFloat64()
			if withSpecials && rng.Intn(4) == 0 {
				vals[r][z] = specials[rng.Intn(len(specials))]
			}
		}
	}
	return func(r, z int) float64 { return vals[r][z] }
}

// TestRowPrimitives holds every vector row body to its Go body at 0 ULP:
// every run length 0–67 (every tail of the 4-wide loop), each primitive
// also with its in-place aliasing, on rows mixing ordinary values with
// signed zeros, subnormals, ±Inf and NaN. The moment pass runs the pair
// tables of D3Q19, D3Q27 and D3Q39 over the same lengths (every 8-cell
// block, 4-cell step and Go tail) and specials, Go and vector body both
// held to the per-pair passes (checkMoments). The streaming bodies
// (simdStreamRows) run the same rows at every output alignment
// (checkStreamPrims) over lengths 0–41: every head of 0–3 cells, every
// tail, and up to nine vectors between them.
func TestRowPrimitives(t *testing.T) {
	needSIMDRows(t)
	rng := rand.New(rand.NewSource(7))
	for _, p := range rowPrims {
		for n := 0; n <= 67; n++ {
			for _, withSpecials := range []bool{false, true} {
				value := randomRowValues(rng, p.outs+p.ins, n+2, withSpecials)
				k := make([]float64, p.ks)
				for i := range k {
					k[i] = rng.NormFloat64()
					if withSpecials && rng.Intn(8) == 0 {
						k[i] = specials[rng.Intn(len(specials))]
					}
				}
				checkRowPrim(t, simdRows, p, n, value, k, nil, mixedOffsets)
				if p.alias != nil {
					checkRowPrim(t, simdRows, p, n, value, k, p.alias, mixedOffsets)
				}
				if n <= 41 {
					checkStreamPrims(t, p, n, value, k)
				}
			}
		}
	}
	for _, m := range momentLattices {
		for n := 0; n <= 67; n++ {
			for _, withSpecials := range []bool{false, true} {
				checkMoments(t, simdRows, m, n, randomRowValues(rng, m.Q, n+2, withSpecials), mixedOffsets)
			}
		}
	}
}

// FuzzRowPrimitives: the same property on fuzzed bits, for both tables.
// The input is read as little-endian float64s; its length picks the run,
// and the values fill the scalars and then the rows, cycling. The seed
// corpus is testdata/fuzz.
func FuzzRowPrimitives(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		needSIMDRows(t)
		vals := make([]float64, len(data)/8)
		for i := range vals {
			vals[i] = math.Float64frombits(binary.LittleEndian.Uint64(data[8*i:]))
		}
		if len(vals) == 0 {
			return
		}
		n := len(vals) % 68
		at := func(i int) float64 { return vals[i%len(vals)] }
		for _, p := range rowPrims {
			k := make([]float64, p.ks)
			for i := range k {
				k[i] = at(i)
			}
			value := func(r, z int) float64 { return at(p.ks + r*(n+2) + z) }
			checkRowPrim(t, simdRows, p, n, value, k, nil, mixedOffsets)
			if p.alias != nil {
				checkRowPrim(t, simdRows, p, n, value, k, p.alias, mixedOffsets)
			}
			checkStreamPrims(t, p, n, value, k)
		}
		for _, m := range momentLattices {
			checkMoments(t, simdRows, m, n, func(v, z int) float64 { return at(v*(n+2) + z) }, mixedOffsets)
		}
	})
}

// TestStreamingStoresOnlyIntoTheNextField: collider.init binds the
// streaming table only where the row kernel's out rows are the next field
// — the SIMD rung's two-field sweep, BGK and TRT on both lattices — and
// keeps the ordinary stores of simdRows under AA, whose out rows are
// scatter rows read straight back or the field relaxed in place. Every
// rung below SIMD runs the Go bodies. The stepper routes the same way.
// Only the streaming table carries a fence for the row kernels to call.
func TestStreamingStoresOnlyIntoTheNextField(t *testing.T) {
	needSIMDRows(t)
	if simdStreamRows == simdRows || simdStreamRows.fence == nil || simdRows.fence != nil {
		t.Fatal("simdStreamRows must be a table of its own with a fence, and simdRows without one")
	}
	for _, m := range []*lattice.Model{lattice.D3Q19(), lattice.D3Q39()} {
		for _, spec := range []collision.Spec{{}, {Kind: collision.TRT}} {
			for _, opt := range []OptLevel{OptOrig, OptGC, OptDH, OptCF, OptLoBr, OptNBC, OptGCC, OptSIMD} {
				for _, stream := range []StreamScheme{StreamTwoGrid, StreamAA} {
					var c collider
					if err := c.init(&Config{Model: m, Tau: 0.8, Opt: opt, Stream: stream, Collision: spec}); err != nil {
						t.Fatal(err)
					}
					want := (*rowOps)(nil)
					switch {
					case opt == OptSIMD && stream == StreamAA:
						want = simdRows
					case opt == OptSIMD:
						want = simdStreamRows
					}
					if c.vec != want {
						t.Errorf("%s %s %s stream %v: vector table %p, want %p (simdRows %p, simdStreamRows %p)",
							m.Name, spec.Kind, opt, stream, c.vec, want, simdRows, simdStreamRows)
					}
				}
			}
		}
	}
	n := grid.Dims{NX: 8, NY: 8, NZ: 8}
	for _, stream := range []StreamScheme{StreamTwoGrid, StreamAA} {
		cs := buildStepper(t, Config{Model: lattice.D3Q19(), N: n, Tau: 0.8, Steps: 1, Opt: OptSIMD, Stream: stream, Ranks: 1, Threads: 1, GhostDepth: 1})
		want := simdStreamRows
		if stream == StreamAA {
			want = simdRows
		}
		if cs.vec != want {
			t.Errorf("stepper, stream %v: vector table %p, want %p", stream, cs.vec, want)
		}
		cs.close()
	}
}

// TestMomentPassBinding: both SIMD tables carry the one-pass moment body,
// the same one (it writes the worker's ρ and j rows, never the next
// field, so it keeps ordinary stores), and neither table exists where
// simdRows does not. collider.init tabulates the pass's pairs once, in
// the pair table's order, on every rung.
func TestMomentPassBinding(t *testing.T) {
	if simdRows == nil {
		if simdStreamRows != nil {
			t.Fatal("simdStreamRows is bound where simdRows is nil")
		}
	} else if simdRows.moments == nil || simdStreamRows.moments == nil ||
		reflect.ValueOf(simdRows.moments).Pointer() != reflect.ValueOf(simdStreamRows.moments).Pointer() {
		t.Fatal("simdRows and simdStreamRows must both carry the same moment body")
	}
	for _, m := range momentLattices {
		for _, opt := range []OptLevel{OptCF, OptGCC, OptSIMD} {
			var c collider
			if err := c.init(&Config{Model: m, Tau: 0.8, Opt: opt}); err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(c.mom, momPairs(c.pairs)) {
				t.Errorf("%s %s: moment table %v, want momPairs of the %d pairs", m.Name, opt, c.mom, len(c.pairs))
			}
		}
	}
}

// TestMomentPrefetchTable: on the SIMD rung the row body's upwind read on
// dense fields — the two-field sweep and AA's even sub-step — fills the
// worker's prefetch table with, per velocity, the address in f where the
// next span's upwind read starts: the upwind cell of its first cell, y
// wrapped on a wrap axis, rotated rows (z wraps on the sweep here)
// included, and where the next span reads a view of f, that view's first
// cell. The rows are an x-plane's first three, whose sources wrap in y on
// the periodic sweeps while the next span's do not: an address taken from
// the span's own first row lands a plane off there. Under the run
// index, on AA's odd sub-step, below SIMD (the gather sweep and the split
// path) and under testNoAhead the table stays empty, and an empty table is
// what selects the body without prefetches (momentsAVX2 then reads no
// entry of it; TestRowPrimitives runs both bodies).
func TestMomentPrefetchTable(t *testing.T) {
	n := grid.Dims{NX: 6, NY: 12, NZ: 12}
	const rows = 3
	solid := geom.FromFunc(n, func(ix, iy, iz int) bool { return iz == 5 })
	for _, tc := range []struct {
		name      string
		cfg       Config
		odd, none bool // run AA's odd sub-step / set testNoAhead
		want      bool
		last      bool // read an x-plane's last owned rows, not its first
	}{
		{"D3Q19 sweep", Config{Model: lattice.D3Q19(), Opt: OptSIMD}, false, false, true, false},
		{"D3Q39 sweep", Config{Model: lattice.D3Q39(), Opt: OptSIMD}, false, false, true, false},
		{"AA even", Config{Model: lattice.D3Q19(), Opt: OptSIMD, Stream: StreamAA}, false, false, true, false},
		{"walled y, last rows", Config{Model: lattice.D3Q19(), Opt: OptSIMD, Boundary: CavitySpec(0.05)}, false, false, true, true},
		{"AA odd", Config{Model: lattice.D3Q19(), Opt: OptSIMD, Stream: StreamAA}, true, false, false, false},
		{"run index", Config{Model: lattice.D3Q19(), Opt: OptSIMD, Solid: solid, Sparse: true}, false, false, false, false},
		{"testNoAhead", Config{Model: lattice.D3Q19(), Opt: OptSIMD}, false, true, false, false},
		{"GC-C sweep", Config{Model: lattice.D3Q19(), Opt: OptGCC, Fused: true}, false, false, false, false},
		{"GC-C split", Config{Model: lattice.D3Q19(), Opt: OptGCC}, false, false, false, false},
	} {
		t.Run(tc.name, func(t *testing.T) {
			if tc.want {
				needSIMDRows(t)
			}
			cfg := tc.cfg
			cfg.N, cfg.Tau, cfg.Steps, cfg.Ranks, cfg.Threads, cfg.GhostDepth = n, 0.8, 1, 1, 1, 1
			cfg.Init = waveInit(n)
			cs := buildStepper(t, cfg)
			cs.initField()
			cs.refreshAxes([3]bool{true, true, true})
			cs.aaStar = tc.odd
			testNoAhead = tc.none
			defer func() { testNoAhead = false }()
			sc, m := cs.scratch[0], cs.model
			// Rows 0–2 of an x-plane read across the y wrap wherever y has
			// no ghosts; row 3, where the next span starts, does not, even
			// at D3Q39's reach of 3. On the walled y the plane's last three
			// owned rows are followed by a ghost row, and the next span
			// starts on the next plane's first owned row.
			ix, iy, zlo, zhi := cs.w[0]+1, cs.w[1], cs.w[2], cs.w[2]+cs.own[2]
			nix, niy := ix, iy+rows
			if tc.last {
				if cs.w[1] == 0 {
					t.Fatal("the walled case has no y ghosts")
				}
				iy = cs.w[1] + cs.own[1] - rows
				nix, niy = ix+1, cs.w[1]
			}
			sc.rb.ahead = sc.rb.ahead[:0]
			for range m.Q {
				sc.rb.ahead = append(sc.rb.ahead, 1) // a stale table the spans must replace
			}
			cs.gatherRows(0, box{lo: [3]int{ix, iy, zlo}, hi: [3]int{ix + 1, iy + rows, zhi}})
			got := sc.rb.ahead
			if !tc.want {
				if len(got) != 0 {
					t.Fatalf("prefetch table of %d entries, want none", len(got))
				}
				return
			}
			if len(got) != m.Q {
				t.Fatalf("prefetch table of %d entries, want %d", len(got), m.Q)
			}
			// The next span starts on row (nix, niy), whether the last one
			// held all three rows (no z ghosts) or the last row alone.
			next := spanRow{ix: nix, iy: niy, zlo: zlo, zn: zhi - zlo, base: cs.d.Index(nix, niy, zlo)}
			for v := range got {
				blk := uintptr(unsafe.Pointer(unsafe.SliceData(cs.f.V(v))))
				sy := next.iy - m.Cy[v]
				if cs.w[1] == 0 {
					sy = (sy + cs.d.NY) % cs.d.NY
				}
				src := cs.d.Index(next.ix-m.Cx[v], sy, zlo) - m.Cz[v]
				if want := blk + uintptr(src)*8; got[v] != want {
					t.Errorf("velocity %d: ahead %#x, want %#x (cell %d of f, the next span's upwind start)", v, got[v], want, src)
				}
				dst := make([]float64, zhi-zlo)
				if r := cs.upwindSpan(dst, v, []spanRow{next}); &r[0] != &dst[0] && got[v] != uintptr(unsafe.Pointer(&r[0])) {
					t.Errorf("velocity %d: ahead %#x, but the next span reads f from %p", v, got[v], &r[0])
				}
			}
		})
	}
}
