package decomp

import (
	"fmt"
	"strconv"
	"strings"
	"testing"
)

// FuzzParseShape: the -decomp parser never panics, every error quotes the
// argument it rejected, and an accepted argument is the decomposition its
// explicit PxxPyxPz spelling names: P covers the ranks and fits the domain.
// The seed corpus is testdata/fuzz.
func FuzzParseShape(f *testing.F) {
	f.Fuzz(func(t *testing.T, spec string, ranks, nx, ny, nz uint8) {
		global := [3]int{int(nx), int(ny), int(nz)}
		c, err := ParseShape(spec, int(ranks), global)
		if err != nil {
			if !strings.Contains(err.Error(), strconv.Quote(spec)) {
				t.Fatalf("ParseShape(%q, %d, %v): error %q does not name the argument", spec, ranks, global, err)
			}
			return
		}
		p := c.Shape()
		if c.Ranks() != int(ranks) || p[0] < 1 || p[1] < 1 || p[2] < 1 {
			t.Fatalf("ParseShape(%q, %d, %v) accepted shape %v", spec, ranks, global, p)
		}
		for a := 0; a < 3; a++ {
			if p[a] > global[a] {
				t.Fatalf("ParseShape(%q, %d, %v): shape %v overcommits axis %d", spec, ranks, global, p, a)
			}
		}
		again, err := ParseShape(fmt.Sprintf("%dx%dx%d", p[0], p[1], p[2]), int(ranks), global)
		if err != nil || again.Shape() != p || again.Global != c.Global {
			t.Fatalf("ParseShape(%q, %d, %v) = %v, but its spelling parses to %v, %v", spec, ranks, global, p, again.Shape(), err)
		}
	})
}
