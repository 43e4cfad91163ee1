//go:build linux && !race

package grid

import (
	"bufio"
	"os"
	"strconv"
	"strings"
	"testing"
)

// TestMappedFieldHugePages checks that the huge-page advice takes effect
// rather than assuming it: allocating a mapped field of four whole 2 MiB
// blocks and an almost-whole tail grows the process's AnonHugePages by at least
// the whole blocks — and, in the kernel's madvise mode, by less than one
// more, so the tail stays on 4 KiB pages. It skips where transparent huge
// pages are off, and where the kernel had no free huge page to give
// (thp_fault_fallback grew): the advice is best effort.
func TestMappedFieldHugePages(t *testing.T) {
	mode, err := os.ReadFile("/sys/kernel/mm/transparent_hugepage/enabled")
	if err != nil || strings.Contains(string(mode), "[never]") {
		t.Skip("transparent huge pages are not available")
	}
	before, fallbacks := anonHugePages(t), vmstat(t, "thp_fault_fallback")
	mappedBefore := MappedBytes()
	// 19 × 8 B × 68 985 cells: 4 × 2 MiB and a tail 40 B short of a fifth
	// block, so wherever the mapping starts, advice on more than the whole
	// blocks would reach a full aligned 2 MiB of the tail.
	d := Dims{NX: 5, NY: 73, NZ: 189}
	f := NewMappedField(19, d)
	defer f.Release()
	if MappedBytes() == mappedBefore {
		t.Fatal("NewMappedField fell back to the heap")
	}
	whole := int64(8*len(f.Data)) &^ (hugePage - 1)
	if whole != 4*hugePage {
		t.Fatalf("test field spans %d whole huge pages, want 4", whole/hugePage)
	}
	grew := anonHugePages(t) - before
	if n := vmstat(t, "thp_fault_fallback") - fallbacks; n > 0 {
		t.Skipf("the kernel fell back to 4 KiB pages %d times during the allocation: no free 2 MiB pages", n)
	}
	if grew < whole {
		t.Errorf("AnonHugePages grew by %d B, want at least the %d B of whole 2 MiB blocks", grew, whole)
	}
	// Where only advised ranges get huge pages, the tail must not be one.
	if strings.Contains(string(mode), "[madvise]") && grew >= whole+hugePage {
		t.Errorf("AnonHugePages grew by %d B: the tail past the %d B of whole blocks is on a huge page too", grew, whole)
	}
}

// vmstat reads one counter of /proc/vmstat.
func vmstat(t *testing.T, name string) int64 {
	t.Helper()
	b, err := os.ReadFile("/proc/vmstat")
	if err != nil {
		t.Skipf("no vmstat: %v", err)
	}
	for _, line := range strings.Split(string(b), "\n") {
		if v, ok := strings.CutPrefix(line, name+" "); ok {
			n, err := strconv.ParseInt(v, 10, 64)
			if err != nil {
				t.Fatalf("vmstat %s: %v", name, err)
			}
			return n
		}
	}
	t.Skipf("vmstat has no %s counter", name)
	return 0
}

// anonHugePages reads the process's AnonHugePages in bytes from
// /proc/self/smaps_rollup.
func anonHugePages(t *testing.T) int64 {
	t.Helper()
	fh, err := os.Open("/proc/self/smaps_rollup")
	if err != nil {
		t.Skipf("no smaps_rollup: %v", err)
	}
	defer fh.Close()
	sc := bufio.NewScanner(fh)
	for sc.Scan() {
		fields := strings.Fields(sc.Text())
		if len(fields) == 3 && fields[0] == "AnonHugePages:" {
			kb, err := strconv.ParseInt(fields[1], 10, 64)
			if err != nil {
				t.Fatalf("AnonHugePages: %v", err)
			}
			return kb << 10
		}
	}
	t.Fatalf("smaps_rollup has no AnonHugePages line (scan error: %v)", sc.Err())
	return 0
}
