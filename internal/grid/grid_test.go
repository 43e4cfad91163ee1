package grid

import (
	"math"
	"testing"
	"testing/quick"
)

func TestIndexRoundTrip(t *testing.T) {
	d := Dims{NX: 4, NY: 3, NZ: 5}
	seen := make(map[int]bool)
	for ix := 0; ix < d.NX; ix++ {
		for iy := 0; iy < d.NY; iy++ {
			for iz := 0; iz < d.NZ; iz++ {
				idx := d.Index(ix, iy, iz)
				if idx < 0 || idx >= d.Cells() {
					t.Fatalf("index out of range: %d", idx)
				}
				if seen[idx] {
					t.Fatalf("duplicate index %d", idx)
				}
				seen[idx] = true
				x, y, z := d.Coords(idx)
				if x != ix || y != iy || z != iz {
					t.Fatalf("Coords(%d) = (%d,%d,%d), want (%d,%d,%d)", idx, x, y, z, ix, iy, iz)
				}
			}
		}
	}
	if len(seen) != d.Cells() {
		t.Fatalf("covered %d cells, want %d", len(seen), d.Cells())
	}
}

// TestIndexZFastest pins the memory order the kernels rely on: z is the
// fastest-varying coordinate (the paper's iz + iy·Lz + ix·Lz·Ly).
func TestIndexZFastest(t *testing.T) {
	d := Dims{NX: 3, NY: 4, NZ: 5}
	if d.Index(0, 0, 1)-d.Index(0, 0, 0) != 1 {
		t.Error("z stride != 1")
	}
	if d.Index(0, 1, 0)-d.Index(0, 0, 0) != d.NZ {
		t.Error("y stride != NZ")
	}
	if d.Index(1, 0, 0)-d.Index(0, 0, 0) != d.NY*d.NZ {
		t.Error("x stride != NY*NZ")
	}
	if d.PlaneCells() != d.NY*d.NZ {
		t.Error("PlaneCells != NY*NZ")
	}
}

func TestFieldAccessors(t *testing.T) {
	d := Dims{NX: 3, NY: 2, NZ: 4}
	f := NewField(5, d, SoA)
	want := func(v, ix, iy, iz int) float64 {
		return float64(v*1000 + d.Index(ix, iy, iz))
	}
	for v := 0; v < f.Q; v++ {
		for ix := 0; ix < d.NX; ix++ {
			for iy := 0; iy < d.NY; iy++ {
				for iz := 0; iz < d.NZ; iz++ {
					f.Set(v, ix, iy, iz, want(v, ix, iy, iz))
				}
			}
		}
	}
	for v := 0; v < f.Q; v++ {
		for ix := 0; ix < d.NX; ix++ {
			for iy := 0; iy < d.NY; iy++ {
				for iz := 0; iz < d.NZ; iz++ {
					if got := f.At(v, ix, iy, iz); got != want(v, ix, iy, iz) {
						t.Fatalf("At(%d,%d,%d,%d) = %g, want %g", v, ix, iy, iz, got, want(v, ix, iy, iz))
					}
				}
			}
		}
	}
}

func TestSoAVelocityBlocks(t *testing.T) {
	d := Dims{NX: 2, NY: 2, NZ: 2}
	f := NewField(3, d, SoA)
	blk := f.V(1)
	if len(blk) != d.Cells() {
		t.Fatalf("block length %d, want %d", len(blk), d.Cells())
	}
	blk[d.Index(1, 0, 1)] = 42
	if got := f.At(1, 1, 0, 1); got != 42 {
		t.Errorf("At = %g, want 42 (V must alias the field)", got)
	}
	// Appending to the returned block must not clobber the next velocity.
	_ = append(blk, 99)
	if got := f.At(2, 0, 0, 0); got != 0 {
		t.Errorf("append through V corrupted neighbor block: %g", got)
	}
}

func TestCellAccessors(t *testing.T) {
	d := Dims{NX: 2, NY: 2, NZ: 2}
	f := NewField(3, d, SoA)
	in := []float64{1.5, -2, 7}
	f.SetCell(1, 0, 1, in)
	out := make([]float64, 3)
	f.Cell(1, 0, 1, out)
	for v := range in {
		if in[v] != out[v] {
			t.Errorf("Cell[%d] = %g, want %g", v, out[v], in[v])
		}
	}
}

func TestFill(t *testing.T) {
	d := Dims{NX: 2, NY: 3, NZ: 2}
	f := NewField(2, d, SoA)
	f.Fill([]float64{3, 4})
	for c := 0; c < d.Cells(); c++ {
		if f.Data[f.Idx(0, c)] != 3 || f.Data[f.Idx(1, c)] != 4 {
			t.Fatalf("Fill wrong at cell %d", c)
		}
	}
}

func TestMaxAbsDiffProperty(t *testing.T) {
	d := Dims{NX: 2, NY: 2, NZ: 3}
	f := func(vals [12]float64, at uint8, delta float64) bool {
		a := NewField(1, d, SoA)
		for i, v := range vals {
			a.Data[i] = clamp(v)
		}
		b := a.Clone()
		if MaxAbsDiff(a, b) != 0 {
			return false
		}
		i := int(at) % len(b.Data)
		delta = clamp(delta)
		if delta < 0 {
			delta = -delta
		}
		delta += 0.25
		b.Data[i] += delta
		got := MaxAbsDiff(a, b)
		return got >= delta*0.999999 && got <= delta*1.000001
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

// clamp maps an arbitrary generated float (possibly huge, NaN or Inf) into a
// well-behaved range so floating-point arithmetic in properties stays exact
// enough to reason about.
func clamp(v float64) float64 {
	if math.IsNaN(v) || math.IsInf(v, 0) {
		return 0
	}
	return math.Mod(v, 1000)
}

// TestPackedField: a packed field's blocks each span the whole box, its
// live planes lie back to back in Data, in velocity order, without a gap
// or an overlap, from the first block's start, and the field holds
// exactly FieldLen values (mapped or not). Idx, At, Set and livePlanes agree
// with V; Fill writes each velocity's live planes and keeps the others';
// a range that does not overlap its predecessor's is refused.
func TestPackedField(t *testing.T) {
	d := Dims{NX: 7, NY: 3, NZ: 2}
	plane := d.PlaneCells()
	live := []Planes{{2, 4}, {3, 6}, {0, 4}, {3, 4}} // reach 3 around 1 owned plane: c_x = 1, −2, 3, 0
	for _, f := range []*Field{NewPackedField(len(live), d, live), NewPackedField(len(live), Dims{NX: 7, NY: 96, NZ: 96}, live)} {
		plane := f.D.PlaneCells()
		want := (4*1 + 1 + 2 + 3 + 2 + 3) * plane // owned + upwind ghosts + the first block's low and the last one's high dead planes
		if len(f.Data) != want || FieldLen(len(live), f.D, live) != want {
			t.Errorf("%v: %d values, FieldLen %d, want %d", f.D, len(f.Data), FieldLen(len(live), f.D, live), want)
		}
		next := 0
		for v, p := range live {
			blk := f.V(v)
			if len(blk) != f.D.Cells() {
				t.Fatalf("%v: block %d holds %d cells, want %d", f.D, v, len(blk), f.D.Cells())
			}
			start := f.Idx(v, p.Lo*plane)
			if v == 0 {
				next = start
			}
			if start != next || &f.Data[start] != &blk[p.Lo*plane] || f.livePlanes(v) != p {
				t.Errorf("%v: velocity %d's live planes start at %d, want %d right after its predecessor's", f.D, v, start, next)
			}
			next = f.Idx(v, p.Hi*plane)
		}
		if off := f.Idx(0, live[0].Lo*plane); off != live[0].Lo*plane {
			t.Errorf("%v: the first block starts at %d", f.D, f.Idx(0, 0))
		}
		f.Release()
	}

	f := NewPackedField(len(live), d, live)
	f.Fill([]float64{1, 2, 3, 4})
	for v, p := range live {
		for c := p.Lo * plane; c < p.Hi*plane; c++ {
			if got := f.V(v)[c]; got != float64(v+1) {
				t.Fatalf("after Fill velocity %d cell %d is %g, want %d", v, c, got, v+1)
			}
		}
	}
	f.Set(1, 4, 2, 1, -8)
	if f.At(1, 4, 2, 1) != -8 || f.V(1)[d.Index(4, 2, 1)] != -8 {
		t.Error("At/Set disagree with V on a packed field")
	}
	if NewField(2, d, SoA).livePlanes(1) != (Planes{0, d.NX}) {
		t.Error("a classic field's velocity does not live on every plane")
	}
	defer func() {
		if recover() == nil {
			t.Error("disjoint live ranges accepted")
		}
	}()
	NewPackedField(2, d, []Planes{{0, 2}, {3, 5}})
}
