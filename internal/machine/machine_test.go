package machine

import (
	"math"
	"testing"
)

// TestTableII pins the paper's Table II values: attainable MFlup/s per node
// for each machine × lattice, and the limiting factor.
func TestTableII(t *testing.T) {
	cases := []struct {
		m          Machine
		k          KernelSpec
		pbm, ppeak float64 // paper's printed values
		tolPbm     float64
		tolPpeak   float64
	}{
		// BG/P D3Q19: 29 / 76.4 (the paper rounds 29.8 down to 29).
		{BGP(), SpecD3Q19(), 29, 76.4, 1.0, 0.1},
		// BG/Q D3Q19: 94 / 1150.
		{BGQ(), SpecD3Q19(), 94, 1150, 1.0, 1.0},
		// BG/P D3Q39: 14.5 / 71.5.
		{BGP(), SpecD3Q39(), 14.5, 71.5, 0.1, 0.2},
		// BG/Q D3Q39: 45 / 1077.
		{BGQ(), SpecD3Q39(), 45, 1077, 1.0, 1.0},
	}
	for _, c := range cases {
		b := MaxMFlups(c.m, c.k)
		if math.Abs(b.PBm-c.pbm) > c.tolPbm {
			t.Errorf("%s %s: P(Bm) = %.1f MFlup/s, paper %.1f", c.m.Name, c.k.Name, b.PBm, c.pbm)
		}
		if math.Abs(b.PPeak-c.ppeak) > c.tolPpeak {
			t.Errorf("%s %s: P(Ppeak) = %.1f MFlup/s, paper %.1f", c.m.Name, c.k.Name, b.PPeak, c.ppeak)
		}
		if !b.BandwidthLimited {
			t.Errorf("%s %s: not bandwidth limited; the paper finds all cases are", c.m.Name, c.k.Name)
		}
		if b.Attainable != b.PBm {
			t.Errorf("%s %s: attainable %g != PBm %g under bandwidth limit", c.m.Name, c.k.Name, b.Attainable, b.PBm)
		}
	}
}

// TestSectionIIICBounds pins the torus lower bounds: 11.1 & 70 MFlup/s for
// D3Q19 and 5.4 & 34 for D3Q39 on BG/P & BG/Q.
func TestSectionIIICBounds(t *testing.T) {
	cases := []struct {
		m    Machine
		k    KernelSpec
		want float64
		tol  float64
	}{
		{BGP(), SpecD3Q19(), 11.1, 0.2},
		{BGQ(), SpecD3Q19(), 70, 1.5},
		{BGP(), SpecD3Q39(), 5.4, 0.1},
		{BGQ(), SpecD3Q39(), 34, 1.0},
	}
	for _, c := range cases {
		if got := TorusBoundMFlups(c.m, c.k); math.Abs(got-c.want) > c.tol {
			t.Errorf("%s %s: torus bound = %.2f MFlup/s, paper %.1f", c.m.Name, c.k.Name, got, c.want)
		}
	}
}

// TestHWEfficiencyCaps pins §III.C: "the models have the potential of
// achieving 38% (D3Q19) and 20% (D3Q39) hardware efficiency" on BG/P.
func TestHWEfficiencyCaps(t *testing.T) {
	if got := MaxMFlups(BGP(), SpecD3Q19()).HWEfficiencyCap; math.Abs(got-0.38) > 0.015 {
		t.Errorf("BG/P D3Q19 efficiency cap = %.3f, paper 0.38", got)
	}
	if got := MaxMFlups(BGP(), SpecD3Q39()).HWEfficiencyCap; math.Abs(got-0.20) > 0.015 {
		t.Errorf("BG/P D3Q39 efficiency cap = %.3f, paper 0.20", got)
	}
}

func TestBytesPerCell(t *testing.T) {
	// §III.B: "two load operations and one store operation for every
	// velocity mode": (19+19+19)·8 = 456 and (39+39+39)·8 = 936.
	if got := SpecD3Q19().BytesPerCell; got != 456 {
		t.Errorf("D3Q19 bytes/cell = %g, want 456", got)
	}
	if got := SpecD3Q39().BytesPerCell; got != 936 {
		t.Errorf("D3Q39 bytes/cell = %g, want 936", got)
	}
}

func TestSpecForQ(t *testing.T) {
	if s := SpecForQ(19); s.FlopsPerCell != 178 {
		t.Errorf("SpecForQ(19) flops = %g", s.FlopsPerCell)
	}
	if s := SpecForQ(39); s.FlopsPerCell != 190 {
		t.Errorf("SpecForQ(39) flops = %g", s.FlopsPerCell)
	}
	if s := SpecForQ(27); s.BytesPerCell != 648 {
		t.Errorf("SpecForQ(27) bytes = %g, want 648", s.BytesPerCell)
	}
}

func TestByName(t *testing.T) {
	for _, n := range []string{"bgp", "BG/P", "BGQ"} {
		if _, err := ByName(n); err != nil {
			t.Errorf("ByName(%q): %v", n, err)
		}
	}
	if _, err := ByName("cray"); err == nil {
		t.Error("unknown machine accepted")
	}
}

func TestMachineShapes(t *testing.T) {
	p, q := BGP(), BGQ()
	if p.CoresPerNode*p.ThreadsPerCore != 4 {
		t.Errorf("BG/P supports %d hardware threads, want 4", p.CoresPerNode*p.ThreadsPerCore)
	}
	if q.CoresPerNode*q.ThreadsPerCore != 64 {
		t.Errorf("BG/Q supports %d hardware threads, want 64", q.CoresPerNode*q.ThreadsPerCore)
	}
	// The paper's central observation: BG/Q grew flops ~15× but bandwidth
	// only ~3× over BG/P, widening the bandwidth/flop gap.
	flopRatio := q.PeakFlops / p.PeakFlops
	bwRatio := q.MemBWBytes / p.MemBWBytes
	if flopRatio < 10 || bwRatio > 5 {
		t.Errorf("flop ratio %.1f, bw ratio %.1f: expected growing disparity", flopRatio, bwRatio)
	}
}
