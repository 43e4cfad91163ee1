// Package metrics provides the paper's performance quantities (MFlup/s,
// hardware efficiency), simple order statistics for communication-balance
// reporting (min/median/max, Fig. 9), and a deterministic random number
// generator for reproducible load-imbalance injection.
package metrics

import (
	"math"
	"sort"
	"time"
)

// MFlups returns million fluid lattice-point updates per second for a run
// that updated nFluidCells interior cells over steps time steps in elapsed
// wall time (the paper's Eq. 4: P = s·N_fl / (T(s)·10⁶)). Ghost-cell
// updates are deliberately excluded, matching the paper's metric.
func MFlups(steps, nFluidCells int, elapsed time.Duration) float64 {
	if elapsed <= 0 {
		return 0
	}
	return float64(steps) * float64(nFluidCells) / elapsed.Seconds() / 1e6
}

// MFlupsFromSeconds is MFlups with an explicit time in seconds, for
// simulated (virtual-clock) results.
func MFlupsFromSeconds(steps, nFluidCells int, seconds float64) float64 {
	if seconds <= 0 {
		return 0
	}
	return float64(steps) * float64(nFluidCells) / seconds / 1e6
}

// Summary holds order statistics of a sample, used for the paper's
// min/median/max communication-time plots.
type Summary struct {
	Min, Median, Max, Mean float64
	N                      int
}

// Summarize computes min/median/max/mean of xs. It returns a zero Summary
// for an empty sample. The median of an even sample is the mean of the two
// central values.
func Summarize(xs []float64) Summary {
	if len(xs) == 0 {
		return Summary{}
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	var sum float64
	for _, x := range s {
		sum += x
	}
	med := s[len(s)/2]
	if len(s)%2 == 0 {
		med = (s[len(s)/2-1] + s[len(s)/2]) / 2
	}
	return Summary{Min: s[0], Median: med, Max: s[len(s)-1], Mean: sum / float64(len(s)), N: len(s)}
}

// SummarizeDurations is Summarize over time.Durations, in seconds.
func SummarizeDurations(ds []time.Duration) Summary {
	xs := make([]float64, len(ds))
	for i, d := range ds {
		xs[i] = d.Seconds()
	}
	return Summarize(xs)
}

// RNG is a SplitMix64 pseudo-random generator: tiny, fast and fully
// deterministic across platforms, used to inject reproducible load
// imbalance into the performance simulator.
type RNG struct{ state uint64 }

// NewRNG returns a generator seeded with seed.
func NewRNG(seed uint64) *RNG { return &RNG{state: seed} }

// Uint64 returns the next pseudo-random 64-bit value.
func (r *RNG) Uint64() uint64 {
	r.state += 0x9e3779b97f4a7c15
	z := r.state
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// Float64 returns a uniform value in [0,1).
func (r *RNG) Float64() float64 {
	return float64(r.Uint64()>>11) / float64(1<<53)
}

// Range returns a uniform value in [lo,hi).
func (r *RNG) Range(lo, hi float64) float64 { return lo + (hi-lo)*r.Float64() }

// Norm returns an approximately standard normal value (sum of 12 uniforms,
// Irwin-Hall); adequate for jitter injection and fully deterministic.
func (r *RNG) Norm() float64 {
	var s float64
	for i := 0; i < 12; i++ {
		s += r.Float64()
	}
	return s - 6
}

// MAPE returns the mean absolute percentage error of predictions pred
// against observations obs, as a fraction (0.12 = 12%). Pairs whose
// observation is zero are skipped (percentage error is undefined there);
// if every pair is skipped, or the slices are empty or mismatched, MAPE
// returns NaN. This is the fitness measure of the observe-predict bridge
// (calibration error of perfsim against the real solver).
func MAPE(obs, pred []float64) float64 {
	if len(obs) == 0 || len(obs) != len(pred) {
		return math.NaN()
	}
	var sum float64
	n := 0
	for i, o := range obs {
		if o == 0 {
			continue
		}
		sum += math.Abs(pred[i]-o) / math.Abs(o)
		n++
	}
	if n == 0 {
		return math.NaN()
	}
	return sum / float64(n)
}

// Pearson returns the Pearson correlation coefficient of a and b, or NaN
// for mismatched/short samples or zero variance. Paired with MAPE it
// reports whether predictions track the observed trend even when their
// absolute scale is off.
func Pearson(a, b []float64) float64 {
	if len(a) < 2 || len(a) != len(b) {
		return math.NaN()
	}
	n := float64(len(a))
	var ma, mb float64
	for i := range a {
		ma += a[i]
		mb += b[i]
	}
	ma /= n
	mb /= n
	var cov, va, vb float64
	for i := range a {
		da, db := a[i]-ma, b[i]-mb
		cov += da * db
		va += da * da
		vb += db * db
	}
	if va == 0 || vb == 0 {
		return math.NaN()
	}
	return cov / math.Sqrt(va*vb)
}
