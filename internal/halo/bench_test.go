package halo

import (
	"fmt"
	"testing"

	"repro/internal/grid"
)

// BenchmarkCopySpans packs and unpacks one border face per axis of the two
// fields the ledger's halo workloads exchange: an x face is one span, a y
// face one span per x plane, a z face one w-cell span per row — a whole
// cache line moved per 8·w useful bytes, which is what its GB/s reads.
func BenchmarkCopySpans(b *testing.B) {
	for _, c := range []struct {
		name string
		q, w int
		own  [3]int
	}{
		{"q19-66^3-w1", 19, 1, [3]int{64, 64, 64}},
		{"q39-24x96x96-w3", 39, 3, [3]int{24, 96, 96}},
	} {
		w := [3]int{c.w, c.w, c.w}
		d := grid.Dims{NX: c.own[0] + 2*c.w, NY: c.own[1] + 2*c.w, NZ: c.own[2] + 2*c.w}
		f := grid.NewField(c.q, d, grid.SoA)
		fillDistinct(f) // untouched pages all alias the kernel's zero page
		e, err := NewCartExchanger(c.q, d, c.own, w, 0, [3][2]int{})
		if err != nil {
			b.Fatal(err)
		}
		for axis, name := range [3]string{"x", "y", "z"} {
			face := e.faces[axis][lowBorder][0] // no velocity lists: one part
			spans := face.spans
			buf := make([]float64, c.q*face.cells)
			for _, unpack := range []bool{false, true} {
				b.Run(fmt.Sprintf("%s/%s/unpack=%v", c.name, name, unpack), func(b *testing.B) {
					b.SetBytes(int64(8 * len(buf)))
					for i := 0; i < b.N; i++ {
						copySpans(f, nil, spans, buf, unpack)
					}
				})
			}
		}
	}
}
