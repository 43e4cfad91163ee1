package collision

import (
	"math"
	"testing"
)

// FuzzParseRates: whatever the -mrt-rates parser and Spec.Validate both
// accept is a list of finite ghost rates inside the stable interval
// (0, 2) — NaN, ±Inf and the interval's ends never reach an operator.
// The committed corpus (testdata/fuzz) holds the spellings strconv turns
// into non-finite values.
func FuzzParseRates(f *testing.F) {
	f.Fuzz(func(t *testing.T, s string) {
		rates, err := ParseRates(s)
		if err != nil {
			return
		}
		if err := (Spec{Kind: MRT, GhostRates: rates}).Validate(); err != nil {
			return
		}
		for i, r := range rates {
			if math.IsNaN(r) || math.IsInf(r, 0) || r <= 0 || r >= 2 {
				t.Fatalf("ParseRates(%q)[%d] = %g validated", s, i, r)
			}
		}
	})
}
