package comm

import "testing"

func TestCartTopologyRoundTrip(t *testing.T) {
	top, err := NewCartTopology(24, [3]int{2, 3, 4})
	if err != nil {
		t.Fatal(err)
	}
	seen := make(map[[3]int]bool)
	for r := 0; r < 24; r++ {
		c := top.Coords(r)
		if seen[c] {
			t.Fatalf("duplicate coords %v", c)
		}
		seen[c] = true
		if top.Rank(c) != r {
			t.Fatalf("Rank(Coords(%d)) = %d", r, top.Rank(c))
		}
		for a := 0; a < 3; a++ {
			if top.Shift(top.Shift(r, a, +1), a, -1) != r {
				t.Errorf("shift not inverse at rank %d axis %d", r, a)
			}
			if top.Shift(r, a, top.P[a]) != r {
				t.Errorf("full-ring shift not identity at rank %d axis %d", r, a)
			}
		}
	}
}

func TestCartTopologySlabMatchesLinear(t *testing.T) {
	top, err := NewCartTopology(5, [3]int{5, 1, 1})
	if err != nil {
		t.Fatal(err)
	}
	for r := 0; r < 5; r++ {
		if c := top.Coords(r); c[0] != r || c[1] != 0 || c[2] != 0 {
			t.Errorf("slab coords of %d = %v", r, c)
		}
		nb := top.Neighbors(r)
		if nb[0][0] != (r+4)%5 || nb[0][1] != (r+1)%5 {
			t.Errorf("slab x neighbors of %d = %v", r, nb[0])
		}
		if nb[1] != [2]int{r, r} || nb[2] != [2]int{r, r} {
			t.Errorf("undecomposed axes of %d should self-neighbor, got %v", r, nb)
		}
	}
}

func TestCartTopologyOnFabric(t *testing.T) {
	f := NewFabric(8)
	if _, err := NewCartTopology(f.N(), [3]int{2, 2, 2}); err != nil {
		t.Errorf("2x2x2 over 8 ranks rejected: %v", err)
	}
	if _, err := NewCartTopology(f.N(), [3]int{2, 2, 3}); err == nil {
		t.Error("mismatched topology accepted")
	}
	if _, err := NewCartTopology(f.N(), [3]int{8, 0, 1}); err == nil {
		t.Error("zero-extent topology accepted")
	}
}

// TestCartTopologyMessaging exercises a real neighbor exchange over the
// topology: every rank sends its ID around the +x ring and must receive
// its -x neighbor's ID.
func TestCartTopologyMessaging(t *testing.T) {
	f := NewFabric(8)
	top, _ := NewCartTopology(f.N(), [3]int{2, 2, 2})
	err := f.Run(func(r *Rank) error {
		up := top.Shift(r.ID, 0, +1)
		down := top.Shift(r.ID, 0, -1)
		r.Send(up, 7, []float64{float64(r.ID)})
		buf := make([]float64, 1)
		r.Recv(down, 7, buf)
		if int(buf[0]) != down {
			t.Errorf("rank %d: got %v from %d", r.ID, buf[0], down)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestCartTopologyBounded: on a bounded axis, shifts off either global
// edge resolve to NoNeighbor; interior shifts and periodic axes are
// unchanged.
func TestCartTopologyBounded(t *testing.T) {
	top, err := NewCartTopologyBounded(12, [3]int{3, 2, 2}, [3]bool{true, true, false})
	if err != nil {
		t.Fatal(err)
	}
	for r := 0; r < 12; r++ {
		c := top.Coords(r)
		nb := top.Neighbors(r)
		for a := 0; a < 3; a++ {
			wantLo, wantHi := top.Shift(r, a, -1), top.Shift(r, a, +1)
			if nb[a][0] != wantLo || nb[a][1] != wantHi {
				t.Fatalf("rank %d axis %d: Neighbors %v != Shift (%d,%d)", r, a, nb[a], wantLo, wantHi)
			}
			if !top.Bounded[a] {
				continue
			}
			if c[a] == 0 && nb[a][0] != NoNeighbor {
				t.Errorf("rank %d axis %d: low edge has neighbor %d", r, a, nb[a][0])
			}
			if c[a] == top.P[a]-1 && nb[a][1] != NoNeighbor {
				t.Errorf("rank %d axis %d: high edge has neighbor %d", r, a, nb[a][1])
			}
			if c[a] > 0 && nb[a][0] == NoNeighbor || c[a] < top.P[a]-1 && nb[a][1] == NoNeighbor {
				t.Errorf("rank %d axis %d: interior neighbor missing (%v)", r, a, nb[a])
			}
		}
		// Walking past the edge in one big stride is also NoNeighbor.
		if top.Shift(r, 0, 3) != NoNeighbor || top.Shift(r, 0, -3) != NoNeighbor {
			t.Errorf("rank %d: long shift across a bounded axis found a rank", r)
		}
		// The periodic z axis still wraps.
		if top.Shift(r, 2, 2) != r {
			t.Errorf("rank %d: periodic z full-ring shift not identity", r)
		}
	}
}
