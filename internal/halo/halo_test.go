package halo

import (
	"testing"

	"repro/internal/comm"
	"repro/internal/grid"
)

// fillDistinct gives every (v,cell) slot a unique value.
func fillDistinct(f *grid.Field) {
	for v := 0; v < f.Q; v++ {
		for c := 0; c < f.D.Cells(); c++ {
			f.Data[f.Idx(v, c)] = float64(v*100000 + c)
		}
	}
}

func TestPackUnpackRoundTrip(t *testing.T) {
	d := grid.Dims{NX: 6, NY: 3, NZ: 4}
	src := grid.NewField(5, d, grid.SoA)
	fillDistinct(src)
	buf := make([]float64, 5*2*d.PlaneCells())
	lo, hi := [3]int{1, 0, 0}, [3]int{3, d.NY, d.NZ}
	n := PackBox(src, lo, hi, buf)
	if n != len(buf) {
		t.Fatalf("packed %d, want %d", n, len(buf))
	}
	dst := grid.NewField(5, d, grid.SoA)
	if got := UnpackBox(dst, lo, hi, buf); got != n {
		t.Fatalf("unpacked %d, want %d", got, n)
	}
	for v := 0; v < 5; v++ {
		for ix := 1; ix < 3; ix++ {
			for iy := 0; iy < d.NY; iy++ {
				for iz := 0; iz < d.NZ; iz++ {
					if dst.At(v, ix, iy, iz) != src.At(v, ix, iy, iz) {
						t.Fatalf("mismatch at v=%d (%d,%d,%d)", v, ix, iy, iz)
					}
				}
			}
		}
	}
	// Planes outside [1,3) must be untouched.
	for v := 0; v < 5; v++ {
		for _, ix := range []int{0, 3, 4, 5} {
			if dst.At(v, ix, 0, 0) != 0 {
				t.Fatalf("plane %d touched", ix)
			}
		}
	}
}

func TestPackPlanesVelSubset(t *testing.T) {
	d := grid.Dims{NX: 4, NY: 2, NZ: 2}
	src := grid.NewField(6, d, grid.SoA)
	fillDistinct(src)
	vels := []int{1, 4, 5}
	buf := make([]float64, len(vels)*d.PlaneCells())
	n := PackPlanesVel(src, 1, 2, vels, buf)
	if n != len(buf) {
		t.Fatalf("packed %d, want %d", n, len(buf))
	}
	dst := grid.NewField(6, d, grid.SoA)
	UnpackPlanesVel(dst, 1, 2, vels, buf)
	for v := 0; v < 6; v++ {
		want := 0.0
		if v == 1 || v == 4 || v == 5 {
			want = src.At(v, 1, 1, 1)
		}
		if got := dst.At(v, 1, 1, 1); got != want {
			t.Fatalf("v=%d got %g want %g", v, got, want)
		}
	}
}

func TestNewExchangerValidation(t *testing.T) {
	d := grid.Dims{NX: 8, NY: 2, NZ: 2}
	if _, err := NewExchanger(3, d, 4, 2, 0, 0); err != nil {
		t.Errorf("valid exchanger rejected: %v", err)
	}
	if _, err := NewExchanger(3, d, 5, 2, 0, 0); err == nil {
		t.Error("NX mismatch accepted")
	}
	if _, err := NewExchanger(3, grid.Dims{NX: 5, NY: 2, NZ: 2}, 1, 2, 0, 0); err == nil {
		t.Error("own < width accepted")
	}
	if _, err := NewExchanger(3, grid.Dims{NX: 4, NY: 2, NZ: 2}, 4, 0, 0, 0); err == nil {
		t.Error("width 0 accepted: the x-only exchanger exists for its x faces")
	}
}

// ringTest builds one halo-extended field per rank over a global x extent,
// with globally unique values, runs exch on the x-only exchanger of each
// rank (ghosts on x, none on y and z) and verifies the x ghosts.
func ringTest(t *testing.T, ranks, own, width int, exch func(e *Exchanger, r *comm.Rank, f *grid.Field)) {
	t.Helper()
	d := grid.Dims{NX: own + 2*width, NY: 2, NZ: 2}
	q := 3
	globalVal := func(v, gx, iy, iz int) float64 {
		return float64(v*1000000 + gx*1000 + iy*10 + iz)
	}
	fab := comm.NewFabric(ranks)
	err := fab.Run(func(r *comm.Rank) error {
		f := grid.NewField(q, d, grid.SoA)
		start := r.ID * own
		for v := 0; v < q; v++ {
			for ix := 0; ix < own; ix++ {
				for iy := 0; iy < d.NY; iy++ {
					for iz := 0; iz < d.NZ; iz++ {
						f.Set(v, width+ix, iy, iz, globalVal(v, start+ix, iy, iz))
					}
				}
			}
		}
		left := (r.ID - 1 + ranks) % ranks
		right := (r.ID + 1) % ranks
		e, err := NewExchanger(q, d, own, width, left, right)
		if err != nil {
			return err
		}
		exch(e, r, f)
		// Verify ghosts now hold the periodic neighbors' border data.
		globalNX := ranks * own
		for v := 0; v < q; v++ {
			for w := 0; w < width; w++ {
				for iy := 0; iy < d.NY; iy++ {
					for iz := 0; iz < d.NZ; iz++ {
						gxL := ((start-width+w)%globalNX + globalNX) % globalNX
						if got := f.At(v, w, iy, iz); got != globalVal(v, gxL, iy, iz) {
							t.Errorf("rank %d: left ghost v=%d w=%d got %g want %g", r.ID, v, w, got, globalVal(v, gxL, iy, iz))
							return nil
						}
						gxR := (start + own + w) % globalNX
						if got := f.At(v, width+own+w, iy, iz); got != globalVal(v, gxR, iy, iz) {
							t.Errorf("rank %d: right ghost v=%d w=%d got %g want %g", r.ID, v, w, got, globalVal(v, gxR, iy, iz))
							return nil
						}
					}
				}
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestExchangeBlockingRing(t *testing.T) {
	ringTest(t, 4, 3, 2, func(e *Exchanger, r *comm.Rank, f *grid.Field) {
		e.ExchangeAxis(r, f, 0, false)
	})
}

func TestExchangeNonBlockingRing(t *testing.T) {
	ringTest(t, 3, 4, 1, func(e *Exchanger, r *comm.Rank, f *grid.Field) {
		e.ExchangeNonBlocking(r, f)
	})
}

func TestExchangeSplitPhases(t *testing.T) {
	// PostRecvsAxis / SendBordersAxis / WaitUnpackAxis in the overlapped order.
	ringTest(t, 4, 4, 3, func(e *Exchanger, r *comm.Rank, f *grid.Field) {
		e.PostRecvsAxis(r, 0)
		e.SendBordersAxis(r, f, 0)
		e.WaitUnpackAxis(r, f, 0)
	})
}

func TestExchangeTwoRanks(t *testing.T) {
	// With 2 ranks, each rank's left and right neighbor is the same rank;
	// tag direction must disambiguate the two messages.
	ringTest(t, 2, 5, 2, func(e *Exchanger, r *comm.Rank, f *grid.Field) {
		e.ExchangeNonBlocking(r, f)
	})
}

func TestExchangeLocalSingleRank(t *testing.T) {
	ringTest(t, 1, 6, 2, func(e *Exchanger, r *comm.Rank, f *grid.Field) {
		e.ExchangeLocal(f)
	})
}

func TestWaitUnpackWithoutPostPanics(t *testing.T) {
	d := grid.Dims{NX: 6, NY: 2, NZ: 2}
	e, _ := NewExchanger(2, d, 4, 1, 0, 0)
	fab := comm.NewFabric(1)
	err := fab.Run(func(r *comm.Rank) error {
		e.WaitUnpackAxis(r, grid.NewField(2, d, grid.SoA), 0)
		return nil
	})
	if err == nil {
		t.Fatal("expected panic error from WaitUnpackAxis without PostRecvsAxis")
	}
}

// TestBytesPerExchange: an x-only exchanger's wire bytes are the two full
// x faces, 2·8·Q·w·NY·NZ — what the 1-D exchanger it
// replaced reported — and zero on the axes that carry no ghosts.
func TestBytesPerExchange(t *testing.T) {
	d := grid.Dims{NX: 8, NY: 3, NZ: 5}
	e, err := NewExchanger(19, d, 4, 2, 1, 1)
	if err != nil {
		t.Fatal(err)
	}
	want := int64(2 * 8 * 19 * 2 * 15)
	if got := e.BytesPerExchange(0); got != want {
		t.Errorf("BytesPerExchange(x) = %d, want %d", got, want)
	}
	f := grid.NewField(19, d, grid.SoA)
	var sent int
	for side := 0; side < 2; side++ {
		sent += 8 * len(e.packFace(f, 0, side))
	}
	if int64(sent) != want {
		t.Errorf("packed %d B over the two x faces, want %d", sent, want)
	}
	if y, z := e.BytesPerExchange(1), e.BytesPerExchange(2); y != 0 || z != 0 {
		t.Errorf("ghostless axes report %d / %d B, want 0", y, z)
	}
}
