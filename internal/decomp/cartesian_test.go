package decomp

import (
	"testing"
)

// cartShapes enumerates a representative set of global boxes and rank
// grids covering 1-D, 2-D and 3-D shapes with and without remainders.
var cartShapes = []struct {
	g, p [3]int
}{
	{[3]int{16, 8, 8}, [3]int{4, 1, 1}},
	{[3]int{16, 8, 8}, [3]int{1, 4, 1}},
	{[3]int{16, 8, 8}, [3]int{1, 1, 4}},
	{[3]int{16, 8, 8}, [3]int{2, 2, 1}},
	{[3]int{16, 16, 16}, [3]int{2, 2, 2}},
	{[3]int{17, 9, 11}, [3]int{3, 2, 4}},
	{[3]int{7, 7, 7}, [3]int{7, 7, 7}},
	{[3]int{32, 32, 32}, [3]int{4, 2, 1}},
}

// TestCartesianPartitionsExactly: on every axis the owned blocks tile the
// global extent with no gaps or overlaps, and block sizes are balanced to
// within one cell.
func TestCartesianPartitionsExactly(t *testing.T) {
	for _, c := range cartShapes {
		d, err := NewCartesian(c.g, c.p)
		if err != nil {
			t.Fatalf("NewCartesian(%v,%v): %v", c.g, c.p, err)
		}
		for axis := 0; axis < 3; axis++ {
			next := 0
			minSize, maxSize := c.g[axis], 0
			for i := 0; i < c.p[axis]; i++ {
				co := [3]int{}
				co[axis] = i
				start, size := d.Own(d.RankAt(co), axis)
				if start != next {
					t.Errorf("%v/%v axis %d block %d: start %d, want %d", c.g, c.p, axis, i, start, next)
				}
				if size < 1 {
					t.Errorf("%v/%v axis %d block %d: empty", c.g, c.p, axis, i)
				}
				if size < minSize {
					minSize = size
				}
				if size > maxSize {
					maxSize = size
				}
				next = start + size
			}
			if next != c.g[axis] {
				t.Errorf("%v/%v axis %d: blocks cover %d cells, want %d", c.g, c.p, axis, next, c.g[axis])
			}
			if maxSize-minSize > 1 {
				t.Errorf("%v/%v axis %d: imbalance %d (sizes %d..%d)", c.g, c.p, axis, maxSize-minSize, minSize, maxSize)
			}
			if d.MaxOwn(axis) != maxSize {
				t.Errorf("%v/%v axis %d: MaxOwn %d, want %d", c.g, c.p, axis, d.MaxOwn(axis), maxSize)
			}
		}
	}
}

// TestCartesianRankOfConsistent: RankOf agrees with Own on every cell of
// the global box.
func TestCartesianRankOfConsistent(t *testing.T) {
	for _, c := range cartShapes {
		d, _ := NewCartesian(c.g, c.p)
		for ix := 0; ix < c.g[0]; ix++ {
			for iy := 0; iy < c.g[1]; iy++ {
				for iz := 0; iz < c.g[2]; iz++ {
					r := d.RankOf(ix, iy, iz)
					for axis, gi := range [3]int{ix, iy, iz} {
						start, size := d.Own(r, axis)
						if gi < start || gi >= start+size {
							t.Fatalf("%v/%v: RankOf(%d,%d,%d)=%d but axis %d owns [%d,%d)",
								c.g, c.p, ix, iy, iz, r, axis, start, start+size)
						}
					}
				}
			}
		}
	}
}

// TestCartesianCoordsRoundTrip: Coords/RankAt are inverse bijections and
// neighbor shifts are periodic inverses.
func TestCartesianCoordsRoundTrip(t *testing.T) {
	for _, c := range cartShapes {
		d, _ := NewCartesian(c.g, c.p)
		seen := make(map[[3]int]bool)
		for r := 0; r < d.Ranks(); r++ {
			co := d.Coords(r)
			if seen[co] {
				t.Fatalf("%v/%v: duplicate coords %v", c.g, c.p, co)
			}
			seen[co] = true
			if back := d.RankAt(co); back != r {
				t.Fatalf("%v/%v: RankAt(Coords(%d)) = %d", c.g, c.p, r, back)
			}
			for axis := 0; axis < 3; axis++ {
				up := d.Neighbor(r, axis, +1)
				if d.Neighbor(up, axis, -1) != r {
					t.Fatalf("%v/%v: neighbor relations not inverse at rank %d axis %d", c.g, c.p, r, axis)
				}
			}
		}
	}
}

// TestBalance pins the remainder convention on concrete values: the
// first n mod P blocks of an axis get the extra cell.
func TestBalance(t *testing.T) {
	d, err := NewCartesian([3]int{10, 8, 8}, [3]int{3, 1, 1})
	if err != nil {
		t.Fatal(err)
	}
	var sizes [3]int
	for r := range sizes {
		_, sizes[r] = d.Own(r, AxisX)
	}
	if sizes != [3]int{4, 3, 3} {
		t.Errorf("sizes = %v, want [4 3 3]", sizes)
	}
	if d.MaxOwn(AxisX) != 4 || d.MinOwn(AxisX) != 3 {
		t.Errorf("MaxOwn/MinOwn = %d/%d, want 4/3", d.MaxOwn(AxisX), d.MinOwn(AxisX))
	}
	if !d.IsSlab() {
		t.Error("(3,1,1) is not a slab")
	}
}

// TestNeighborsPeriodic pins the slab's ring numbering on concrete values:
// ranks count along x and the ends wrap onto each other.
func TestNeighborsPeriodic(t *testing.T) {
	d, _ := NewCartesian([3]int{16, 8, 8}, [3]int{4, 1, 1})
	if d.Neighbor(0, AxisX, -1) != 3 || d.Neighbor(3, AxisX, +1) != 0 || d.Neighbor(1, AxisX, +1) != 2 {
		t.Error("periodic wrap broken")
	}
	if d.Neighbor(2, AxisY, +1) != 2 || d.Neighbor(2, AxisZ, -1) != 2 {
		t.Error("undecomposed axes must wrap a rank onto itself")
	}
}

func TestNewErrors(t *testing.T) {
	if _, err := NewCartesian([3]int{4, 4, 4}, [3]int{0, 1, 1}); err == nil {
		t.Error("rank count 0 accepted")
	}
	if _, err := NewCartesian([3]int{3, 4, 4}, [3]int{4, 1, 1}); err == nil {
		t.Error("fewer cells than ranks on an axis accepted")
	}
}

func TestFactor(t *testing.T) {
	cube := [3]int{64, 64, 64}
	cases := []struct {
		ranks, maxAxes int
		want           [3]int
	}{
		{8, 1, [3]int{8, 1, 1}},
		{8, 2, [3]int{4, 2, 1}},
		{8, 3, [3]int{2, 2, 2}},
		{64, 3, [3]int{4, 4, 4}},
		{12, 3, [3]int{3, 2, 2}},
		{1, 3, [3]int{1, 1, 1}},
	}
	for _, c := range cases {
		got, err := Factor(c.ranks, c.maxAxes, cube)
		if err != nil {
			t.Fatalf("Factor(%d,%d): %v", c.ranks, c.maxAxes, err)
		}
		if got != c.want {
			t.Errorf("Factor(%d,%d) = %v, want %v", c.ranks, c.maxAxes, got, c.want)
		}
	}
	// A flat domain steers the factorization away from the thin axis.
	got, err := Factor(8, 3, [3]int{64, 64, 8})
	if err != nil {
		t.Fatal(err)
	}
	if got[2] != 1 {
		t.Errorf("Factor(8,3,flat) = %v, want no z decomposition", got)
	}
	// Surface must not grow as axes are allowed.
	big := [3]int{512, 512, 512}
	for _, ranks := range []int{8, 16, 64, 512} {
		var prev float64
		for axes := 1; axes <= 3; axes++ {
			p, err := Factor(ranks, axes, big)
			if err != nil {
				t.Fatal(err)
			}
			s := surface(big, p)
			if axes > 1 && s > prev {
				t.Errorf("ranks %d: surface grew from %g to %g at %d axes (%v)", ranks, prev, s, axes, p)
			}
			prev = s
		}
		// At >= 8 ranks the 3-D block strictly beats the slab.
		p1, _ := Factor(ranks, 1, big)
		p3, _ := Factor(ranks, 3, big)
		if s1, s3 := surface(big, p1), surface(big, p3); s3 >= s1 {
			t.Errorf("ranks %d: 3-D surface %g not below slab surface %g", ranks, s3, s1)
		}
	}
	if _, err := Factor(5, 3, [3]int{4, 4, 4}); err == nil {
		t.Error("impossible factorization accepted")
	}
}

func TestParseShape(t *testing.T) {
	g := [3]int{32, 32, 32}
	for _, c := range []struct {
		spec string
		want [3]int
	}{
		{"1d", [3]int{8, 1, 1}},
		{"2d", [3]int{4, 2, 1}},
		{"3d", [3]int{2, 2, 2}},
		{"2x2x2", [3]int{2, 2, 2}},
		{"8x1x1", [3]int{8, 1, 1}},
		{"1X4x2", [3]int{1, 4, 2}},
	} {
		d, err := ParseShape(c.spec, 8, g)
		if err != nil {
			t.Fatalf("ParseShape(%q): %v", c.spec, err)
		}
		if d.P != c.want {
			t.Errorf("ParseShape(%q) = %v, want %v", c.spec, d.P, c.want)
		}
	}
	for _, bad := range []string{"4x4x4", "0x8x1", "2x2", "block9"} {
		if _, err := ParseShape(bad, 8, g); err == nil {
			t.Errorf("ParseShape(%q) accepted", bad)
		}
	}
}

// TestCartesianBoundedNeighbors: bounded axes end at the global edge
// (NoNeighbor) while periodic axes keep their ring; interior neighbor
// relations stay inverse.
func TestCartesianBoundedNeighbors(t *testing.T) {
	d, err := NewCartesianBounded([3]int{12, 9, 8}, [3]int{3, 2, 2}, [3]bool{true, false, true})
	if err != nil {
		t.Fatal(err)
	}
	for r := 0; r < d.Ranks(); r++ {
		co := d.Coords(r)
		for axis := 0; axis < 3; axis++ {
			lo, hi := d.Neighbor(r, axis, -1), d.Neighbor(r, axis, +1)
			if !d.Bounded[axis] {
				if d.Neighbor(hi, axis, -1) != r {
					t.Fatalf("periodic axis %d: neighbors not inverse at rank %d", axis, r)
				}
				continue
			}
			if co[axis] == 0 && lo != NoNeighbor {
				t.Errorf("rank %d axis %d: low edge neighbor = %d", r, axis, lo)
			}
			if co[axis] == d.P[axis]-1 && hi != NoNeighbor {
				t.Errorf("rank %d axis %d: high edge neighbor = %d", r, axis, hi)
			}
			if co[axis] > 0 && (lo == NoNeighbor || d.Neighbor(lo, axis, +1) != r) {
				t.Errorf("rank %d axis %d: interior low neighbor broken (%d)", r, axis, lo)
			}
		}
	}
}
