package metrics

import (
	"math"
	"testing"
	"testing/quick"
	"time"
)

func TestMFlups(t *testing.T) {
	// 100 steps of 1e6 cells in 1 s = 100 MFlup/s.
	if got := MFlups(100, 1_000_000, time.Second); math.Abs(got-100) > 1e-9 {
		t.Errorf("MFlups = %g, want 100", got)
	}
	if got := MFlups(1, 1, 0); got != 0 {
		t.Errorf("MFlups with zero time = %g, want 0", got)
	}
	if got := MFlupsFromSeconds(300, 64000, 2.0); math.Abs(got-9.6) > 1e-9 {
		t.Errorf("MFlupsFromSeconds = %g, want 9.6", got)
	}
}

func TestSummarize(t *testing.T) {
	s := Summarize([]float64{4.8, 40, 12})
	if s.Min != 4.8 || s.Max != 40 || s.Median != 12 || s.N != 3 {
		t.Errorf("Summary = %+v", s)
	}
	even := Summarize([]float64{1, 2, 3, 4})
	if even.Median != 2.5 {
		t.Errorf("even median = %g, want 2.5", even.Median)
	}
	if z := Summarize(nil); z.N != 0 || z.Max != 0 {
		t.Errorf("empty summary = %+v", z)
	}
}

func TestSummarizeDoesNotMutate(t *testing.T) {
	in := []float64{3, 1, 2}
	Summarize(in)
	if in[0] != 3 || in[1] != 1 || in[2] != 2 {
		t.Errorf("Summarize mutated input: %v", in)
	}
}

func TestSummarizeDurations(t *testing.T) {
	s := SummarizeDurations([]time.Duration{time.Second, 3 * time.Second})
	if s.Min != 1 || s.Max != 3 || s.Median != 2 {
		t.Errorf("Summary = %+v", s)
	}
}

func TestSummaryOrderingProperty(t *testing.T) {
	prop := func(xs []float64) bool {
		clean := xs[:0:0]
		for _, x := range xs {
			if !math.IsNaN(x) && !math.IsInf(x, 0) {
				clean = append(clean, math.Mod(x, 1e6))
			}
		}
		s := Summarize(clean)
		if len(clean) == 0 {
			return s.N == 0
		}
		return s.Min <= s.Median && s.Median <= s.Max && s.Min <= s.Mean && s.Mean <= s.Max
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func TestRNGDeterminism(t *testing.T) {
	a, b := NewRNG(7), NewRNG(7)
	for i := 0; i < 100; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatal("same seed diverged")
		}
	}
	c := NewRNG(8)
	same := true
	a2 := NewRNG(7)
	for i := 0; i < 10; i++ {
		if a2.Uint64() != c.Uint64() {
			same = false
		}
	}
	if same {
		t.Error("different seeds produced identical streams")
	}
}

func TestRNGRanges(t *testing.T) {
	r := NewRNG(42)
	for i := 0; i < 1000; i++ {
		if f := r.Float64(); f < 0 || f >= 1 {
			t.Fatalf("Float64 out of range: %g", f)
		}
		if f := r.Range(2, 5); f < 2 || f >= 5 {
			t.Fatalf("Range out of range: %g", f)
		}
	}
}

func TestRNGNormMoments(t *testing.T) {
	r := NewRNG(1)
	n := 20000
	var sum, sumsq float64
	for i := 0; i < n; i++ {
		x := r.Norm()
		sum += x
		sumsq += x * x
	}
	mean := sum / float64(n)
	variance := sumsq/float64(n) - mean*mean
	if math.Abs(mean) > 0.05 {
		t.Errorf("Norm mean = %g, want ~0", mean)
	}
	if math.Abs(variance-1) > 0.08 {
		t.Errorf("Norm variance = %g, want ~1", variance)
	}
}

func TestMAPE(t *testing.T) {
	// (|1.1-1|/1 + |1.8-2|/2) / 2 = (0.1 + 0.1) / 2
	if got := MAPE([]float64{1, 2}, []float64{1.1, 1.8}); math.Abs(got-0.1) > 1e-12 {
		t.Errorf("MAPE = %g, want 0.1", got)
	}
	// Zero-observation pairs are skipped, not division-by-zero poison.
	if got := MAPE([]float64{0, 2}, []float64{5, 3}); math.Abs(got-0.5) > 1e-12 {
		t.Errorf("MAPE with zero obs = %g, want 0.5", got)
	}
	if !math.IsNaN(MAPE(nil, nil)) {
		t.Error("MAPE(nil) must be NaN")
	}
	if !math.IsNaN(MAPE([]float64{0}, []float64{1})) {
		t.Error("MAPE with only zero observations must be NaN")
	}
	if !math.IsNaN(MAPE([]float64{1}, []float64{1, 2})) {
		t.Error("MAPE with mismatched lengths must be NaN")
	}
}

func TestPearson(t *testing.T) {
	up := []float64{1, 2, 3, 4}
	if got := Pearson(up, []float64{2, 4, 6, 8}); math.Abs(got-1) > 1e-12 {
		t.Errorf("Pearson on a perfect line = %g, want 1", got)
	}
	if got := Pearson(up, []float64{8, 6, 4, 2}); math.Abs(got+1) > 1e-12 {
		t.Errorf("Pearson on a descending line = %g, want -1", got)
	}
	if !math.IsNaN(Pearson(up, []float64{3, 3, 3, 3})) {
		t.Error("Pearson with zero variance must be NaN")
	}
	if !math.IsNaN(Pearson([]float64{1}, []float64{2})) {
		t.Error("Pearson on a single point must be NaN")
	}
}
