package halo

import (
	"fmt"
	"math"
	"strings"
	"testing"

	"repro/internal/comm"
	"repro/internal/decomp"
	"repro/internal/grid"
	"repro/internal/lattice"
)

func TestPackBoxRoundTrip(t *testing.T) {
	d := grid.Dims{NX: 5, NY: 4, NZ: 3}
	boxes := [][2][3]int{
		{{1, 0, 0}, {3, 4, 3}}, // full cross-section: fast path
		{{0, 1, 0}, {5, 2, 3}}, // y face
		{{0, 0, 2}, {5, 4, 3}}, // z face
		{{1, 1, 1}, {3, 3, 2}}, // interior box
	}
	src := grid.NewField(2, d, grid.SoA)
	for i := range src.Data {
		src.Data[i] = float64(i) + 0.25
	}
	for _, b := range boxes {
		lo, hi := b[0], b[1]
		cells := (hi[0] - lo[0]) * (hi[1] - lo[1]) * (hi[2] - lo[2])
		buf := make([]float64, 2*cells)
		if n := PackBox(src, lo, hi, buf); n != 2*cells {
			t.Fatalf("box %v-%v: packed %d, want %d", lo, hi, n, 2*cells)
		}
		dst := grid.NewField(2, d, grid.SoA)
		if n := UnpackBox(dst, lo, hi, buf); n != 2*cells {
			t.Fatalf("box %v-%v: unpacked %d", lo, hi, n)
		}
		for v := 0; v < 2; v++ {
			for ix := lo[0]; ix < hi[0]; ix++ {
				for iy := lo[1]; iy < hi[1]; iy++ {
					for iz := lo[2]; iz < hi[2]; iz++ {
						if got, want := dst.At(v, ix, iy, iz), src.At(v, ix, iy, iz); got != want {
							t.Fatalf("box %v-%v: (%d,%d,%d,%d) = %g, want %g", lo, hi, v, ix, iy, iz, got, want)
						}
					}
				}
			}
		}
	}
}

// encode gives every global cell a unique value so ghost provenance is
// checkable: v*1e6 + gx*1e4 + gy*1e2 + gz.
func encode(v, gx, gy, gz int) float64 {
	return float64(v)*1e6 + float64(gx)*1e4 + float64(gy)*1e2 + float64(gz)
}

// fillOwned stores the encoded global value in every owned cell of a
// rank's local field (ghost widths w, owned box starting at start).
func fillOwned(f *grid.Field, start, own, w [3]int) {
	for v := 0; v < f.Q; v++ {
		for ix := 0; ix < own[0]; ix++ {
			for iy := 0; iy < own[1]; iy++ {
				for iz := 0; iz < own[2]; iz++ {
					f.Set(v, w[0]+ix, w[1]+iy, w[2]+iz,
						encode(v, start[0]+ix, start[1]+iy, start[2]+iz))
				}
			}
		}
	}
}

// firstUnwrapped returns a description of the first cell of the local
// field — owned or ghost — that does not hold its periodically wrapped
// global value, or "" when every cell does.
func firstUnwrapped(f *grid.Field, start, w, global [3]int) string {
	wrap := func(g, n int) int { return ((g % n) + n) % n }
	d := f.D
	for v := 0; v < f.Q; v++ {
		for ix := 0; ix < d.NX; ix++ {
			for iy := 0; iy < d.NY; iy++ {
				for iz := 0; iz < d.NZ; iz++ {
					want := encode(v, wrap(start[0]+ix-w[0], global[0]), wrap(start[1]+iy-w[1], global[1]), wrap(start[2]+iz-w[2], global[2]))
					if got := f.At(v, ix, iy, iz); got != want {
						return fmt.Sprintf("cell (%d,%d,%d,%d) = %v, want %v", v, ix, iy, iz, got, want)
					}
				}
			}
		}
	}
	return ""
}

// TestCartExchangeFillsAllGhosts runs a full exchange over several rank
// grids and asserts every ghost cell — faces, edges AND corners — holds
// the periodically wrapped global value after the sequential-axis pass.
func TestCartExchangeFillsAllGhosts(t *testing.T) {
	global := [3]int{8, 6, 6}
	const q = 2
	for _, p := range [][3]int{{4, 1, 1}, {1, 2, 2}, {2, 2, 1}, {2, 2, 2}} {
		for _, nonblocking := range []bool{false, true} {
			dec, err := decomp.NewCartesian(global, p)
			if err != nil {
				t.Fatal(err)
			}
			w := [3]int{1, 1, 1}
			fab := comm.NewFabric(dec.Ranks())
			top, err := comm.NewCartTopology(fab.N(), p)
			if err != nil {
				t.Fatal(err)
			}
			runErr := fab.Run(func(r *comm.Rank) error {
				var start, own [3]int
				for a := 0; a < 3; a++ {
					start[a], own[a] = dec.Own(r.ID, a)
				}
				d := grid.Dims{NX: own[0] + 2*w[0], NY: own[1] + 2*w[1], NZ: own[2] + 2*w[2]}
				f := grid.NewField(q, d, grid.SoA)
				for i := range f.Data {
					f.Data[i] = -1 // poison: ghosts must all be overwritten
				}
				for v := 0; v < q; v++ {
					for ix := 0; ix < own[0]; ix++ {
						for iy := 0; iy < own[1]; iy++ {
							for iz := 0; iz < own[2]; iz++ {
								f.Set(v, w[0]+ix, w[1]+iy, w[2]+iz,
									encode(v, start[0]+ix, start[1]+iy, start[2]+iz))
							}
						}
					}
				}
				ex, err := NewCartExchanger(q, d, own, w, r.ID, top.Neighbors(r.ID))
				if err != nil {
					return err
				}
				ex.ExchangeAll(r, f, nonblocking)
				wrap := func(g, n int) int { return ((g % n) + n) % n }
				for v := 0; v < q; v++ {
					for ix := 0; ix < d.NX; ix++ {
						for iy := 0; iy < d.NY; iy++ {
							for iz := 0; iz < d.NZ; iz++ {
								gx := wrap(start[0]+ix-w[0], global[0])
								gy := wrap(start[1]+iy-w[1], global[1])
								gz := wrap(start[2]+iz-w[2], global[2])
								if got, want := f.At(v, ix, iy, iz), encode(v, gx, gy, gz); got != want {
									t.Errorf("p=%v nb=%v rank %d: cell (%d,%d,%d,%d) = %v, want %v",
										p, nonblocking, r.ID, v, ix, iy, iz, got, want)
									return nil
								}
							}
						}
					}
				}
				return nil
			})
			if runErr != nil {
				t.Fatalf("p=%v: %v", p, runErr)
			}
		}
	}
}

// TestCartExchangePerAxisWidths: the exchanger's W [3]int is genuinely
// per-axis — every ghost cell is filled with the right global value when
// each axis carries a different halo width (the per-axis ghost-depth
// feature of the box stepper).
func TestCartExchangePerAxisWidths(t *testing.T) {
	global := [3]int{8, 8, 12}
	p := [3]int{2, 2, 2}
	const q = 2
	for _, w := range [][3]int{{2, 1, 1}, {1, 2, 3}} {
		dec, err := decomp.NewCartesian(global, p)
		if err != nil {
			t.Fatal(err)
		}
		fab := comm.NewFabric(dec.Ranks())
		top, err := comm.NewCartTopology(fab.N(), p)
		if err != nil {
			t.Fatal(err)
		}
		runErr := fab.Run(func(r *comm.Rank) error {
			var start, own [3]int
			for a := 0; a < 3; a++ {
				start[a], own[a] = dec.Own(r.ID, a)
			}
			d := grid.Dims{NX: own[0] + 2*w[0], NY: own[1] + 2*w[1], NZ: own[2] + 2*w[2]}
			f := grid.NewField(q, d, grid.SoA)
			for i := range f.Data {
				f.Data[i] = -1 // poison: ghosts must all be overwritten
			}
			fillOwned(f, start, own, w)
			ex, err := NewCartExchanger(q, d, own, w, r.ID, top.Neighbors(r.ID))
			if err != nil {
				return err
			}
			for a := 0; a < 3; a++ {
				if !ex.Messaging(a) {
					t.Errorf("w=%v rank %d: axis %d not messaging on a 2x2x2 grid", w, r.ID, a)
				}
			}
			ex.ExchangeAll(r, f, true)
			if bad := firstUnwrapped(f, start, w, global); bad != "" {
				t.Errorf("w=%v rank %d: %s", w, r.ID, bad)
			}
			return nil
		})
		if runErr != nil {
			t.Fatalf("w=%v: %v", w, runErr)
		}
	}
}

// TestZeroWidthAxisHasNoFaces: an axis of ghost width 0 is "no faces on
// this axis" — the geometry of the paper's slab, whose kernels wrap y and z
// themselves. Every cell starts as NaN poison except the owned box; after a
// full exchange every cell of the local field must hold its wrapped global
// value (ghosted axes filled, nothing else written), the zero-width axes
// must not message, report no bytes, and move nothing through the fabric
// even when driven phase by phase, and the fabric's byte count must equal
// the ghosted axes' accounting — for x-only ghosts 2·8·Q·w·NY·NZ, what the
// 1-D exchanger used to report.
func TestZeroWidthAxisHasNoFaces(t *testing.T) {
	global := [3]int{8, 6, 6}
	const q = 3
	cases := []struct {
		p, w [3]int
	}{
		{[3]int{2, 1, 1}, [3]int{2, 0, 0}}, // the slab: messages on x
		{[3]int{4, 1, 1}, [3]int{1, 0, 0}},
		{[3]int{1, 1, 1}, [3]int{1, 0, 0}}, // one rank: local x wrap
		{[3]int{2, 2, 1}, [3]int{1, 2, 0}}, // a pencil that wraps z only
		{[3]int{1, 1, 1}, [3]int{0, 0, 0}}, // no faces at all
	}
	for _, c := range cases {
		for _, nonblocking := range []bool{false, true} {
			name := fmt.Sprintf("p=%v w=%v nonblocking=%v", c.p, c.w, nonblocking)
			dec, err := decomp.NewCartesian(global, c.p)
			if err != nil {
				t.Fatal(err)
			}
			fab := comm.NewFabric(dec.Ranks())
			top, err := comm.NewCartTopology(fab.N(), c.p)
			if err != nil {
				t.Fatal(err)
			}
			runErr := fab.Run(func(r *comm.Rank) error {
				var start, own [3]int
				for a := 0; a < 3; a++ {
					start[a], own[a] = dec.Own(r.ID, a)
				}
				w := c.w
				d := grid.Dims{NX: own[0] + 2*w[0], NY: own[1] + 2*w[1], NZ: own[2] + 2*w[2]}
				f := grid.NewField(q, d, grid.SoA)
				for i := range f.Data {
					f.Data[i] = math.NaN()
				}
				fillOwned(f, start, own, w)
				ex, err := NewCartExchanger(q, d, own, w, r.ID, top.Neighbors(r.ID))
				if err != nil {
					return err
				}
				ex.ExchangeAll(r, f, nonblocking)
				var accounted int64
				for a := 0; a < 3; a++ {
					accounted += ex.BytesPerExchange(a)
				}
				if got := r.BytesSent(); got != accounted {
					t.Errorf("%s rank %d: fabric carried %d B, exchanger accounts for %d", name, r.ID, got, accounted)
				}
				if c.w[1] == 0 && c.w[2] == 0 && c.p[0] > 1 {
					if want := int64(2 * 8 * q * w[0] * d.NY * d.NZ); accounted != want {
						t.Errorf("%s rank %d: x-only wire bytes %d, want 2·8·Q·w·NY·NZ = %d", name, r.ID, accounted, want)
					}
				}
				bytes, msgs := r.BytesSent(), r.MessagesSent()
				for a := 0; a < 3; a++ {
					if w[a] != 0 {
						continue
					}
					if ex.Messaging(a) || ex.BytesPerExchange(a) != 0 {
						t.Errorf("%s rank %d: zero-width axis %d: Messaging %v, %d B per exchange", name, r.ID, a, ex.Messaging(a), ex.BytesPerExchange(a))
					}
					ex.PostRecvsAxis(r, a)
					ex.SendBordersAxis(r, f, a)
					ex.WaitUnpackAxis(r, f, a)
					ex.ExchangeAxis(r, f, a, nonblocking)
				}
				if r.BytesSent() != bytes || r.MessagesSent() != msgs {
					t.Errorf("%s rank %d: driving the zero-width axes sent %d B in %d messages", name, r.ID, r.BytesSent()-bytes, r.MessagesSent()-msgs)
				}
				if bad := firstUnwrapped(f, start, w, global); bad != "" {
					t.Errorf("%s rank %d: %s", name, r.ID, bad)
				}
				return nil
			})
			if runErr != nil {
				t.Fatalf("%s: %v", name, runErr)
			}
		}
	}
}

// TestMessaging pins the axis classification the overlapped schedule
// dispatches on: self-neighbor axes wrap locally, NoNeighbor-only axes
// are boundary fills, anything with a real neighbor messages.
func TestMessaging(t *testing.T) {
	d := grid.Dims{NX: 6, NY: 6, NZ: 6}
	own, w := [3]int{4, 4, 4}, [3]int{1, 1, 1}
	ex, err := NewCartExchanger(2, d, own, w, 0, [3][2]int{
		{1, 1},                   // real neighbor both sides
		{0, 0},                   // self: local wrap
		{NoNeighbor, NoNeighbor}, // bounded, undecomposed
	})
	if err != nil {
		t.Fatal(err)
	}
	for a, want := range []bool{true, false, false} {
		if got := ex.Messaging(a); got != want {
			t.Errorf("Messaging(%d) = %v, want %v", a, got, want)
		}
	}
	ex.Neighbors[2] = [2]int{NoNeighbor, 1} // bounded edge with one neighbor
	if !ex.Messaging(2) {
		t.Error("bounded edge with a real neighbor must message")
	}
}

// TestCartExchangeDeepHalo repeats the ghost check with width-2 halos
// (ghost depth 2 on a k=1 lattice).
func TestCartExchangeDeepHalo(t *testing.T) {
	global := [3]int{8, 8, 8}
	p := [3]int{2, 2, 1}
	dec, _ := decomp.NewCartesian(global, p)
	w := [3]int{2, 2, 2}
	fab := comm.NewFabric(dec.Ranks())
	top, _ := comm.NewCartTopology(fab.N(), p)
	runErr := fab.Run(func(r *comm.Rank) error {
		var start, own [3]int
		for a := 0; a < 3; a++ {
			start[a], own[a] = dec.Own(r.ID, a)
		}
		d := grid.Dims{NX: own[0] + 2*w[0], NY: own[1] + 2*w[1], NZ: own[2] + 2*w[2]}
		f := grid.NewField(1, d, grid.SoA)
		for ix := 0; ix < own[0]; ix++ {
			for iy := 0; iy < own[1]; iy++ {
				for iz := 0; iz < own[2]; iz++ {
					f.Set(0, w[0]+ix, w[1]+iy, w[2]+iz,
						encode(0, start[0]+ix, start[1]+iy, start[2]+iz))
				}
			}
		}
		ex, err := NewCartExchanger(1, d, own, w, r.ID, top.Neighbors(r.ID))
		if err != nil {
			return err
		}
		ex.ExchangeAll(r, f, true)
		wrap := func(g, n int) int { return ((g % n) + n) % n }
		for ix := 0; ix < d.NX; ix++ {
			for iy := 0; iy < d.NY; iy++ {
				for iz := 0; iz < d.NZ; iz++ {
					gx := wrap(start[0]+ix-w[0], global[0])
					gy := wrap(start[1]+iy-w[1], global[1])
					gz := wrap(start[2]+iz-w[2], global[2])
					if got, want := f.At(0, ix, iy, iz), encode(0, gx, gy, gz); got != want {
						t.Errorf("rank %d: cell (%d,%d,%d) = %v, want %v", r.ID, ix, iy, iz, got, want)
						return nil
					}
				}
			}
		}
		// Per-axis byte accounting: x and y decomposed, z local.
		ab := ex.AxisBytes()
		if ab[0] == 0 || ab[1] == 0 || ab[2] != 0 {
			t.Errorf("rank %d: axis bytes %v, want x,y > 0 and z == 0", r.ID, ab)
		}
		if ab[0] != ex.BytesPerExchange(0) {
			t.Errorf("rank %d: axis 0 bytes %d != BytesPerExchange %d", r.ID, ab[0], ex.BytesPerExchange(0))
		}
		return nil
	})
	if runErr != nil {
		t.Fatal(runErr)
	}
}

// TestCartExchangeBoundedAxes is the mixed periodic/bounded table: for
// every combination of rank grid and per-axis boundedness, a full
// exchange must (a) leave every ghost cell whose global coordinate falls
// outside the domain on a bounded axis untouched — no wraparound data
// ever lands in a boundary ghost face — and (b) still deliver the correct
// wrapped value to every in-domain ghost cell, edges and corners
// included.
func TestCartExchangeBoundedAxes(t *testing.T) {
	const poison = -1.0
	global := [3]int{8, 6, 6}
	const q = 2
	cases := []struct {
		name    string
		p       [3]int
		bounded [3]bool
	}{
		{"slab, x bounded", [3]int{4, 1, 1}, [3]bool{true, false, false}},
		{"slab, y bounded undecomposed", [3]int{4, 1, 1}, [3]bool{false, true, false}},
		{"slab, all bounded", [3]int{4, 1, 1}, [3]bool{true, true, true}},
		{"pencil, x bounded", [3]int{2, 2, 1}, [3]bool{true, false, false}},
		{"pencil, xy bounded", [3]int{2, 2, 1}, [3]bool{true, true, false}},
		{"block, x bounded", [3]int{2, 2, 2}, [3]bool{true, false, false}},
		{"block, xy bounded", [3]int{2, 2, 2}, [3]bool{true, true, false}},
		{"block, all bounded", [3]int{2, 2, 2}, [3]bool{true, true, true}},
		{"single rank, xy bounded", [3]int{1, 1, 1}, [3]bool{true, true, false}},
	}
	for _, tc := range cases {
		for _, nonblocking := range []bool{false, true} {
			dec, err := decomp.NewCartesianBounded(global, tc.p, tc.bounded)
			if err != nil {
				t.Fatal(err)
			}
			w := [3]int{1, 1, 1}
			fab := comm.NewFabric(dec.Ranks())
			top, err := comm.NewCartTopologyBounded(fab.N(), tc.p, tc.bounded)
			if err != nil {
				t.Fatal(err)
			}
			runErr := fab.Run(func(r *comm.Rank) error {
				var start, own [3]int
				for a := 0; a < 3; a++ {
					start[a], own[a] = dec.Own(r.ID, a)
				}
				d := grid.Dims{NX: own[0] + 2*w[0], NY: own[1] + 2*w[1], NZ: own[2] + 2*w[2]}
				f := grid.NewField(q, d, grid.SoA)
				for i := range f.Data {
					f.Data[i] = poison
				}
				for v := 0; v < q; v++ {
					for ix := 0; ix < own[0]; ix++ {
						for iy := 0; iy < own[1]; iy++ {
							for iz := 0; iz < own[2]; iz++ {
								f.Set(v, w[0]+ix, w[1]+iy, w[2]+iz,
									encode(v, start[0]+ix, start[1]+iy, start[2]+iz))
							}
						}
					}
				}
				ex, err := NewCartExchanger(q, d, own, w, r.ID, top.Neighbors(r.ID))
				if err != nil {
					return err
				}
				ex.ExchangeAll(r, f, nonblocking)
				wrap := func(g, n int) int { return ((g % n) + n) % n }
				for v := 0; v < q; v++ {
					for ix := 0; ix < d.NX; ix++ {
						for iy := 0; iy < d.NY; iy++ {
							for iz := 0; iz < d.NZ; iz++ {
								g := [3]int{start[0] + ix - w[0], start[1] + iy - w[1], start[2] + iz - w[2]}
								outside := false
								for a := 0; a < 3; a++ {
									if tc.bounded[a] && (g[a] < 0 || g[a] >= global[a]) {
										outside = true
									}
								}
								got := f.At(v, ix, iy, iz)
								if outside {
									// A boundary ghost cell: nothing may have
									// been exchanged or wrapped into it.
									if got != poison {
										t.Errorf("%s nb=%v rank %d: boundary ghost (%d,%d,%d,%d) overwritten with %v",
											tc.name, nonblocking, r.ID, v, ix, iy, iz, got)
										return nil
									}
									continue
								}
								want := encode(v, wrap(g[0], global[0]), wrap(g[1], global[1]), wrap(g[2], global[2]))
								if got != want {
									t.Errorf("%s nb=%v rank %d: cell (%d,%d,%d,%d) = %v, want %v",
										tc.name, nonblocking, r.ID, v, ix, iy, iz, got, want)
									return nil
								}
							}
						}
					}
				}
				// Per-axis byte accounting must reflect the skipped faces:
				// an edge rank of a bounded decomposed axis sends one face,
				// an interior rank two.
				for a := 0; a < 3; a++ {
					faces := 0
					for s := 0; s < 2; s++ {
						if n := ex.Neighbors[a][s]; n != NoNeighbor && n != r.ID {
							faces++
						}
					}
					per := int64(8 * q * w[a] * (d.Cells() / [3]int{d.NX, d.NY, d.NZ}[a]))
					if want := int64(faces) * per; ex.BytesPerExchange(a) != want {
						t.Errorf("%s rank %d axis %d: BytesPerExchange = %d, want %d (%d faces)",
							tc.name, r.ID, a, ex.BytesPerExchange(a), want, faces)
					}
				}
				return nil
			})
			if runErr != nil {
				t.Fatalf("%s: %v", tc.name, runErr)
			}
		}
	}
}

func TestNewCartExchangerValidation(t *testing.T) {
	d := grid.Dims{NX: 6, NY: 6, NZ: 6}
	nb := [3][2]int{{0, 0}, {0, 0}, {0, 0}}
	if _, err := NewCartExchanger(1, d, [3]int{4, 4, 4}, [3]int{1, 1, 1}, 0, nb); err != nil {
		t.Errorf("valid shape rejected: %v", err)
	}
	if _, err := NewCartExchanger(1, d, [3]int{4, 4, 3}, [3]int{1, 1, 1}, 0, nb); err == nil {
		t.Error("mismatched extent accepted")
	}
	d2 := grid.Dims{NX: 7, NY: 6, NZ: 6}
	if _, err := NewCartExchanger(1, d2, [3]int{1, 4, 4}, [3]int{3, 1, 1}, 0, nb); err == nil {
		t.Error("own < width accepted")
	}
	if _, err := NewCartExchanger(1, grid.Dims{NX: 2, NY: 6, NZ: 6}, [3]int{4, 4, 4}, [3]int{-1, 1, 1}, 0, nb); err == nil {
		t.Error("negative width accepted")
	}
}

// testMask is a deterministic pseudo-random global mask, about 60% solid,
// with whole solid rows and whole fluid rows mixed in so span merging and
// empty rows are both exercised.
func testMask(gx, gy, gz int) bool {
	switch (gx*7 + gy*3) % 5 {
	case 0:
		return true
	case 1:
		return false
	}
	h := uint32(gx*73856093) ^ uint32(gy*19349663) ^ uint32(gz*83492791)
	return h%10 < 7
}

// TestMaskedExchangeFluidOnly runs full exchanges with exchangers built
// over a random mask: every fluid ghost cell — faces, edges and corners —
// must hold the wrapped global value, every solid cell must keep its NaN
// poison bit for bit, no NaN may reach a send or receive buffer, and the
// byte accounting must equal what the fabric carried.
func TestMaskedExchangeFluidOnly(t *testing.T) {
	global := [3]int{8, 6, 6}
	const q = 2
	poison := math.Float64frombits(0x7ff8_dead_beef_0001)
	wrap := func(g, n int) int { return ((g % n) + n) % n }
	for _, p := range [][3]int{{1, 1, 1}, {2, 1, 1}, {2, 2, 1}, {2, 2, 2}} {
		for _, w := range [][3]int{{1, 1, 1}, {2, 1, 2}} {
			for _, nonblocking := range []bool{false, true} {
				dec, err := decomp.NewCartesian(global, p)
				if err != nil {
					t.Fatal(err)
				}
				fab := comm.NewFabric(dec.Ranks())
				top, err := comm.NewCartTopology(fab.N(), p)
				if err != nil {
					t.Fatal(err)
				}
				runErr := fab.Run(func(r *comm.Rank) error {
					var start, own [3]int
					for a := 0; a < 3; a++ {
						start[a], own[a] = dec.Own(r.ID, a)
					}
					d := grid.Dims{NX: own[0] + 2*w[0], NY: own[1] + 2*w[1], NZ: own[2] + 2*w[2]}
					globalOf := func(ix, iy, iz int) (int, int, int) {
						return wrap(start[0]+ix-w[0], global[0]), wrap(start[1]+iy-w[1], global[1]), wrap(start[2]+iz-w[2], global[2])
					}
					owned := func(ix, iy, iz int) bool {
						return ix >= w[0] && ix < w[0]+own[0] && iy >= w[1] && iy < w[1]+own[1] && iz >= w[2] && iz < w[2]+own[2]
					}
					solid := make([]bool, d.Cells())
					f := grid.NewField(q, d, grid.SoA)
					for ix := 0; ix < d.NX; ix++ {
						for iy := 0; iy < d.NY; iy++ {
							for iz := 0; iz < d.NZ; iz++ {
								gx, gy, gz := globalOf(ix, iy, iz)
								solid[d.Index(ix, iy, iz)] = testMask(gx, gy, gz)
								for v := 0; v < q; v++ {
									val := -1.0 // fluid ghosts: must all be overwritten
									if testMask(gx, gy, gz) {
										val = poison
									} else if owned(ix, iy, iz) {
										val = encode(v, gx, gy, gz)
									}
									f.Set(v, ix, iy, iz, val)
								}
							}
						}
					}
					ex, err := NewCartExchangerClipped(q, d, own, w, r.ID, top.Neighbors(r.ID), maskClip(d, solid), [3][2][][]int{})
					if err != nil {
						return err
					}
					ex.ExchangeAll(r, f, nonblocking)
					for v := 0; v < q; v++ {
						for ix := 0; ix < d.NX; ix++ {
							for iy := 0; iy < d.NY; iy++ {
								for iz := 0; iz < d.NZ; iz++ {
									got := f.At(v, ix, iy, iz)
									if solid[d.Index(ix, iy, iz)] {
										if math.Float64bits(got) != math.Float64bits(poison) {
											t.Errorf("p=%v w=%v nb=%v rank %d: solid cell (%d,%d,%d,%d) overwritten with %v",
												p, w, nonblocking, r.ID, v, ix, iy, iz, got)
											return nil
										}
										continue
									}
									gx, gy, gz := globalOf(ix, iy, iz)
									if want := encode(v, gx, gy, gz); got != want {
										t.Errorf("p=%v w=%v nb=%v rank %d: fluid cell (%d,%d,%d,%d) = %v, want %v",
											p, w, nonblocking, r.ID, v, ix, iy, iz, got, want)
										return nil
									}
								}
							}
						}
					}
					var sent int64
					for a := 0; a < 3; a++ {
						sent += ex.BytesPerExchange(a)
						if ex.AxisBytes()[a] != ex.BytesPerExchange(a) {
							t.Errorf("p=%v rank %d axis %d: accumulated %d B, BytesPerExchange %d", p, r.ID, a, ex.AxisBytes()[a], ex.BytesPerExchange(a))
						}
						for s := 0; s < 2; s++ {
							// What a border packs is what a send carries; what a
							// receive carried is in the fluid ghosts checked above.
							for _, x := range ex.packFace(f, a, s) {
								if math.IsNaN(x) {
									t.Errorf("p=%v w=%v rank %d axis %d side %d: a poisoned solid cell reached the wire", p, w, r.ID, a, s)
									return nil
								}
							}
						}
					}
					if sent != r.BytesSent() {
						t.Errorf("p=%v w=%v rank %d: BytesPerExchange sums to %d B, fabric carried %d", p, w, r.ID, sent, r.BytesSent())
					}
					return nil
				})
				if runErr != nil {
					t.Fatalf("p=%v w=%v: %v", p, w, runErr)
				}
			}
		}
	}
}

// TestAllFluidSpansArePackBox: a dense face is the degenerate span list.
// With no mask, and with a mask that marks nothing, every border face
// packs byte for byte what PackBox packs for the same box — x-, y- and
// z-normal — in far fewer copies than rows.
func TestAllFluidSpansArePackBox(t *testing.T) {
	d := grid.Dims{NX: 8, NY: 7, NZ: 6}
	own, w := [3]int{4, 5, 4}, [3]int{2, 1, 1}
	self := [3][2]int{{0, 0}, {0, 0}, {0, 0}}
	const q = 3
	for _, solid := range [][]bool{nil, make([]bool, d.Cells())} {
		ex, err := NewCartExchangerClipped(q, d, own, w, 0, self, maskClip(d, solid), [3][2][][]int{})
		if err != nil {
			t.Fatal(err)
		}
		for axis, wantSpans := range []int{1, d.NX, d.NX * d.NY} {
			for region, parts := range ex.faces[axis] {
				if got := len(parts[0].spans); len(parts) != 1 || got != wantSpans {
					t.Errorf("axis %d region %d: %d spans, want %d after merging", axis, region, got, wantSpans)
				}
			}
		}
		f := grid.NewField(q, d, grid.SoA)
		for i := range f.Data {
			f.Data[i] = float64(i) + 0.5
		}
		for axis := 0; axis < 3; axis++ {
			for side := 0; side < 2; side++ {
				lo, hi := ex.face(axis, borderRegion(side))
				want := make([]float64, q*d.Cells())
				want = want[:PackBox(f, lo, hi, want)]
				got := ex.packFace(f, axis, side)
				if len(got) != len(want) {
					t.Fatalf("axis %d side %d: packed %d values, PackBox %d", axis, side, len(got), len(want))
				}
				for i := range want {
					if got[i] != want[i] {
						t.Fatalf("axis %d side %d: value %d = %v, PackBox has %v", axis, side, i, got[i], want[i])
					}
				}
			}
		}
	}
}

// TestLocalWrapAllocatesNothing: the steady-state exchange of a single
// periodic rank touches only the buffers built at construction.
func TestLocalWrapAllocatesNothing(t *testing.T) {
	d := grid.Dims{NX: 8, NY: 8, NZ: 8}
	solid := make([]bool, d.Cells())
	for i := range solid {
		solid[i] = i%3 == 0
	}
	for _, mask := range [][]bool{nil, solid} {
		ex, err := NewCartExchangerClipped(2, d, [3]int{6, 6, 6}, [3]int{1, 1, 1}, 0, [3][2]int{{0, 0}, {0, 0}, {0, 0}}, maskClip(d, mask), [3][2][][]int{})
		if err != nil {
			t.Fatal(err)
		}
		f := grid.NewField(2, d, grid.SoA)
		if n := testing.AllocsPerRun(10, func() { ex.ExchangeAll(nil, f, false) }); n != 0 {
			t.Errorf("masked=%v: %v allocations per local-wrap exchange, want 0", mask != nil, n)
		}
	}
}

// TestExchangeAllocatesNothing: once the fabric's pair pools are stocked, a
// full exchange between two ranks — messages on x, local wraps on y and z —
// allocates nothing: faces are packed into and unpacked out of recycled
// slots. One rank can run at most one exchange ahead of the other, so the
// warm-up puts two exchanges' borders in flight at once and the pools then
// hold every slot the pair can ever need.
func TestExchangeAllocatesNothing(t *testing.T) {
	d := grid.Dims{NX: 8, NY: 8, NZ: 8}
	solid := make([]bool, d.Cells())
	for i := range solid {
		solid[i] = i%3 == 0
	}
	for _, mask := range [][]bool{nil, solid} {
		for _, nonblocking := range []bool{false, true} {
			fab := comm.NewFabric(2)
			top, err := comm.NewCartTopology(fab.N(), [3]int{2, 1, 1})
			if err != nil {
				t.Fatal(err)
			}
			err = fab.Run(func(r *comm.Rank) error {
				ex, err := NewCartExchangerClipped(2, d, [3]int{6, 6, 6}, [3]int{1, 1, 1}, r.ID, top.Neighbors(r.ID), maskClip(d, mask), [3][2][][]int{})
				if err != nil {
					return err
				}
				f := grid.NewField(2, d, grid.SoA)
				ex.SendBordersAxis(r, f, 0)
				ex.SendBordersAxis(r, f, 0)
				r.Barrier() // no slot comes back before all four are out
				for i := 0; i < 2; i++ {
					ex.PostRecvsAxis(r, 0)
					ex.WaitUnpackAxis(r, f, 0)
				}
				exchange := func() { ex.ExchangeAll(r, f, nonblocking) }
				// AllocsPerRun counts the whole process, so rank 0's reading
				// covers rank 1's half of its 1 + 10 exchanges too.
				if r.ID == 1 {
					for i := 0; i < 11; i++ {
						exchange()
					}
				} else if n := testing.AllocsPerRun(10, exchange); n != 0 {
					t.Errorf("masked=%v nonblocking=%v: %v allocations per exchange, want 0", mask != nil, nonblocking, n)
				}
				return nil
			})
			if err != nil {
				t.Fatal(err)
			}
		}
	}
}

// TestWireMismatchFailsWell: payloads are headerless, so two ranks whose
// masks disagree over a shared face would silently leave stale data in
// the ghost cells. The receiver must notice the short payload and say
// which rank, axis and side, and how many values it got and wanted.
func TestWireMismatchFailsWell(t *testing.T) {
	d := grid.Dims{NX: 6, NY: 6, NZ: 6}
	own, w := [3]int{4, 4, 4}, [3]int{1, 1, 1}
	const q = 2
	for _, nonblocking := range []bool{false, true} {
		fab := comm.NewFabric(2)
		top, err := comm.NewCartTopology(fab.N(), [3]int{2, 1, 1})
		if err != nil {
			t.Fatal(err)
		}
		err = fab.Run(func(r *comm.Rank) error {
			solid := make([]bool, d.Cells())
			if r.ID == 1 {
				// Rank 1 believes one x-face row is solid; rank 0 does not.
				for ix := 0; ix < d.NX; ix++ {
					for iz := 0; iz < d.NZ; iz++ {
						solid[d.Index(ix, 2, iz)] = true
					}
				}
			}
			ex, err := NewCartExchangerClipped(q, d, own, w, r.ID, top.Neighbors(r.ID), maskClip(d, solid), [3][2][][]int{})
			if err != nil {
				return err
			}
			f := grid.NewField(q, d, grid.SoA)
			for i := range f.Data {
				f.Data[i] = -7
			}
			defer func() {
				// The length check comes before the first ghost write.
				if p := recover(); p != nil {
					for i, x := range f.Data {
						if x != -7 {
							t.Errorf("nonblocking=%v rank %d: value %d written before the mismatch was noticed", nonblocking, r.ID, i)
							break
						}
					}
					panic(p)
				}
			}()
			ex.ExchangeAxis(r, f, 0, nonblocking)
			return nil
		})
		// Rank 0 expects full 6×6 faces and receives rank 1's 5×6, on
		// whichever side it unpacks first.
		want := fmt.Sprintf(": received %d values, own ghost spans hold %d", q*5*6, q*6*6)
		if err == nil || !strings.Contains(err.Error(), "halo: rank 0 axis 0 side ") || !strings.Contains(err.Error(), want) {
			t.Errorf("nonblocking=%v: Fabric.Run returned %v, want rank 0's axis-0 mismatch%s", nonblocking, err, want)
		}
	}
}

// TestFaceVelocityLists is the wire format of an exchanger whose ghost
// planes carry velocity lists: a message, a local wrap and a clipped
// (masked) face move exactly the listed blocks of exactly each plane's
// stored cells. Every slot a list covers — on each axis its cell is a
// ghost of, at the plane its distance picks, which is what the ride-along
// corners deliver — holds the wrapped global value; every other ghost slot
// keeps its sentinel bit for bit, solid cells keep their poison, and the
// byte count is the lists'. The reach-3 case is D3Q39's directed rule on x
// and y: 11, 6 and 1 populations on the planes one, two and three cells
// out, 18 velocity-planes per face where three whole-face lists would move
// 33.
func TestFaceVelocityLists(t *testing.T) {
	d3q39 := lattice.D3Q39()
	directed := func(comp []int) [2][][]int {
		var lists [2][][]int
		for side := range lists {
			lists[side] = make([][]int, 3)
		}
		for v, c := range comp {
			for dist := 1; dist <= c; dist++ {
				lists[0][dist-1] = append(lists[0][dist-1], v)
			}
			for dist := 1; dist <= -c; dist++ {
				lists[1][dist-1] = append(lists[1][dist-1], v)
			}
		}
		return lists
	}
	q39 := [3][2][][]int{directed(d3q39.Cx), directed(d3q39.Cy)}
	for _, tc := range []struct {
		name string
		q, w int
		// vels[axis][side][d-1] lists the velocities of the ghost plane d
		// cells out; nil carries all.
		vels   [3][2][][]int
		global [3]int
	}{
		{"reach1", 5, 1, [3][2][][]int{{{{1, 3}}, {{2, 4}}}, {{{3}}, {{4, 0}}}}, [3]int{8, 6, 6}},
		// y carries all; z's low ghost plane lists nothing and carries nothing.
		{"reach1-empty-plane", 5, 1, [3][2][][]int{{{{1, 3}}, {{2, 4}}}, {}, {{nil}, {{0, 2}}}}, [3]int{8, 6, 6}},
		{"reach3", d3q39.Q, 3, q39, [3]int{8, 6, 6}},
	} {
		for a := 0; a < 2 && tc.w == 3; a++ {
			for side, planes := range tc.vels[a] {
				if n := len(planes[0]) + len(planes[1]) + len(planes[2]); n != 18 {
					t.Fatalf("D3Q39 axis %d side %d lists %d velocity-planes, want 11 + 6 + 1", a, side, n)
				}
			}
		}
		testFaceVelocityLists(t, tc.name, tc.q, [3]int{tc.w, tc.w, tc.w}, tc.vels, tc.global)
	}
}

func testFaceVelocityLists(t *testing.T, name string, q int, w [3]int, vels [3][2][][]int, global [3]int) {
	t.Helper()
	// listed reports whether the ghost plane dist cells out on side of axis
	// carries v.
	listed := func(axis, side, dist, v int) bool {
		if vels[axis][side] == nil {
			return true
		}
		for _, u := range vels[axis][side][dist-1] {
			if u == v {
				return true
			}
		}
		return false
	}
	poison := math.Float64frombits(0x7ff8_dead_beef_0001)
	wrap := func(g, n int) int { return ((g % n) + n) % n }
	for _, p := range [][3]int{{1, 1, 1}, {2, 1, 1}, {2, 2, 1}} {
		for _, masked := range []bool{false, true} {
			for _, nonblocking := range []bool{false, true} {
				dec, err := decomp.NewCartesian(global, p)
				if err != nil {
					t.Fatal(err)
				}
				fab := comm.NewFabric(dec.Ranks())
				top, err := comm.NewCartTopology(fab.N(), p)
				if err != nil {
					t.Fatal(err)
				}
				runErr := fab.Run(func(r *comm.Rank) error {
					var start, own [3]int
					for a := 0; a < 3; a++ {
						start[a], own[a] = dec.Own(r.ID, a)
					}
					d := grid.Dims{NX: own[0] + 2*w[0], NY: own[1] + 2*w[1], NZ: own[2] + 2*w[2]}
					dims := [3]int{d.NX, d.NY, d.NZ}
					solid := make([]bool, d.Cells())
					f := grid.NewField(q, d, grid.SoA)
					want := grid.NewField(q, d, grid.SoA)
					for ix := 0; ix < d.NX; ix++ {
						for iy := 0; iy < d.NY; iy++ {
							for iz := 0; iz < d.NZ; iz++ {
								c := [3]int{ix, iy, iz}
								var g [3]int
								ghost := false
								for a := range g {
									g[a] = wrap(start[a]+c[a]-w[a], global[a])
									ghost = ghost || c[a] < w[a] || c[a] >= dims[a]-w[a]
								}
								isSolid := masked && testMask(g[0], g[1], g[2])
								solid[d.Index(ix, iy, iz)] = isSolid
								for v := 0; v < q; v++ {
									val, end := encode(v, g[0], g[1], g[2]), encode(v, g[0], g[1], g[2])
									if isSolid {
										val, end = poison, poison
									} else if ghost {
										val = -1
										for a := range c {
											if (c[a] < w[a] && !listed(a, 0, w[a]-c[a], v)) || (c[a] >= dims[a]-w[a] && !listed(a, 1, c[a]-(dims[a]-w[a])+1, v)) {
												end = -1 // some plane that would deliver this slot does not carry v
											}
										}
									}
									f.Set(v, ix, iy, iz, val)
									want.Set(v, ix, iy, iz, end)
								}
							}
						}
					}
					var stored Clip
					if masked {
						stored = maskClip(d, solid)
					}
					ex, err := NewCartExchangerClipped(q, d, own, w, r.ID, top.Neighbors(r.ID), stored, vels)
					if err != nil {
						return err
					}
					ex.ExchangeAll(r, f, nonblocking)
					for i, x := range f.Data {
						if math.Float64bits(x) != math.Float64bits(want.Data[i]) {
							t.Errorf("%s shape %v masked=%v nonblocking=%v rank %d: value %d (velocity %d) = %v, want %v",
								name, p, masked, nonblocking, r.ID, i, i/d.Cells(), x, want.Data[i])
							break
						}
					}
					// Per messaging axis: both border faces, each plane as
					// long as the list of the ghost plane it fills.
					for a := 0; a < 3; a++ {
						var bytes int64
						if ex.Messaging(a) {
							lists := 2 * q * w[a]
							if vels[a][0] != nil {
								lists = 0
								for _, planes := range vels[a] {
									for _, list := range planes {
										lists += len(list)
									}
								}
							}
							bytes = int64(8 * lists * d.Cells() / dims[a]) // a dense plane is one cross-section
						}
						if got := ex.BytesPerExchange(a); !masked && got != bytes {
							t.Errorf("%s shape %v rank %d axis %d: BytesPerExchange %d, want %d", name, p, r.ID, a, got, bytes)
						}
						if got := ex.AxisBytes()[a]; got != ex.BytesPerExchange(a) {
							t.Errorf("%s shape %v masked=%v rank %d axis %d: sent %d B, BytesPerExchange says %d", name, p, masked, r.ID, a, got, ex.BytesPerExchange(a))
						}
					}
					if got, carried := r.BytesSent(), ex.AxisBytes(); got != carried[0]+carried[1]+carried[2] {
						t.Errorf("%s shape %v masked=%v rank %d: fabric carried %d B, exchanger counted %v", name, p, masked, r.ID, got, carried)
					}
					return nil
				})
				if runErr != nil {
					t.Fatal(runErr)
				}
			}
		}
	}
}

// TestFaceVelocityListsFailWell: the headerless payload's length check
// works in list units, and the constructor rejects lists that do not fit.
func TestFaceVelocityListsFailWell(t *testing.T) {
	const q = 5
	w := [3]int{1, 1, 1}
	vels := [3][2][][]int{{{{1, 3}}, {{2, 4}}}, {{{3}}, {{4, 0}}}}
	// The headerless payload's length check works in list units: a mask
	// disagreement under velocity lists is still caught before the first
	// write, and so is a list disagreement.
	d := grid.Dims{NX: 6, NY: 6, NZ: 6}
	for _, tc := range []struct {
		name      string
		rank1Mask bool
		rank1Vels [3][2][][]int
		got, want int
	}{
		{"mask", true, vels, 2 * 5 * 6, 2 * 6 * 6},
		{"list", false, [3][2][][]int{{{{1}}, {{2}}}}, 1 * 6 * 6, 2 * 6 * 6},
	} {
		fab := comm.NewFabric(2)
		top, err := comm.NewCartTopology(fab.N(), [3]int{2, 1, 1})
		if err != nil {
			t.Fatal(err)
		}
		err = fab.Run(func(r *comm.Rank) error {
			solid := make([]bool, d.Cells())
			lists := vels
			if r.ID == 1 {
				lists = tc.rank1Vels
				for ix := 0; tc.rank1Mask && ix < d.NX; ix++ {
					for iz := 0; iz < d.NZ; iz++ {
						solid[d.Index(ix, 2, iz)] = true
					}
				}
			}
			ex, err := NewCartExchangerClipped(q, d, [3]int{4, 4, 4}, w, r.ID, top.Neighbors(r.ID), maskClip(d, solid), lists)
			if err != nil {
				return err
			}
			ex.ExchangeAxis(r, grid.NewField(q, d, grid.SoA), 0, true)
			return nil
		})
		want := fmt.Sprintf(": received %d values, own ghost spans hold %d", tc.got, tc.want)
		if err == nil || !strings.Contains(err.Error(), "halo: rank 0 axis 0 side ") || !strings.Contains(err.Error(), want) {
			t.Errorf("%s disagreement: Fabric.Run returned %v, want rank 0's axis-0 mismatch%s", tc.name, err, want)
		}
	}

	if _, err := NewCartExchangerClipped(q, d, [3]int{4, 4, 4}, w, 0, [3][2]int{}, nil, [3][2][][]int{{{{q}}}}); err == nil {
		t.Error("a face velocity outside [0, Q) was accepted")
	}
	if _, err := NewCartExchangerClipped(q, d, [3]int{4, 4, 4}, w, 0, [3][2]int{}, nil, [3][2][][]int{{{{1}, {1}}}}); err == nil {
		t.Error("two plane lists for a one-plane ghost face were accepted")
	}
}

// maskClip is the address map of a dense field over d whose halo carries
// only the cells solid does not mark; nil solid is the dense field.
func maskClip(d grid.Dims, solid []bool) Clip {
	if solid == nil {
		return nil
	}
	return func(ix, iy, zlo, zhi int, seg func(off, z, n int)) {
		row := d.Index(ix, iy, 0)
		for z := zlo; z < zhi; z++ {
			if !solid[row+z] {
				seg(row+z, z, 1)
			}
		}
	}
}
