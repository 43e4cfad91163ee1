package core

import (
	"fmt"
	"strconv"
	"strings"
	"testing"
)

// FuzzParseGhostDepth: the -depth parser never panics, every error quotes
// the argument it rejected, and an accepted argument means what its
// canonical spelling means. The seed corpus is testdata/fuzz.
func FuzzParseGhostDepth(f *testing.F) {
	f.Fuzz(func(t *testing.T, s string) {
		uniform, axes, err := ParseGhostDepth(s)
		if err != nil {
			if !strings.Contains(err.Error(), strconv.Quote(s)) {
				t.Fatalf("ParseGhostDepth(%q): error %q does not name the argument", s, err)
			}
			return
		}
		canon := strconv.Itoa(uniform)
		if axes != ([3]int{}) {
			canon = fmt.Sprintf("%d,%d,%d", axes[0], axes[1], axes[2])
		}
		u2, a2, err := ParseGhostDepth(canon)
		if err != nil || u2 != uniform || a2 != axes {
			t.Fatalf("ParseGhostDepth(%q) = (%d, %v), but its spelling %q parses to (%d, %v, %v)", s, uniform, axes, canon, u2, a2, err)
		}
		if uniform < 1 || (axes != [3]int{} && (axes[0] < 1 || axes[1] < 1 || axes[2] < 1)) {
			t.Fatalf("ParseGhostDepth(%q) accepted a depth < 1: (%d, %v)", s, uniform, axes)
		}
	})
}
