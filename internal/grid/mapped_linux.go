//go:build linux && !race

package grid

// Fields in anonymous mappings. A heap field costs its allocation twice:
// Go clears it, and the clear takes one 4 KiB page fault after another. A
// fresh private anonymous mapping is zero by the kernel's contract, and
// MADV_POPULATE_WRITE faults all of it in one call — on 2 MiB pages
// where the whole-2 MiB part is advised onto them — so the stepping loop
// meets no fault and nobody clears anything. Race builds keep heap fields
// (mapped_other.go says why).

import (
	"syscall"
	"unsafe"
)

// madvPopulateWrite is MADV_POPULATE_WRITE (Linux 5.14), which syscall
// does not name.
const madvPopulateWrite = 23

// mapFloats maps a zeroed, prefaulted region of n float64s and returns it
// with the mapping that backs it, or nil, nil when the kernel refuses.
// A region of at least one huge page is over-mapped by one so that it can
// start on a 2 MiB boundary; only its whole 2 MiB blocks are advised onto
// huge pages, so the tail stays on 4 KiB pages and the resident size never
// exceeds what a heap field would hold.
func mapFloats(n int) ([]float64, []byte) {
	size := 8 * n
	if size == 0 {
		return nil, nil
	}
	slack := 0
	if size >= hugePage {
		slack = hugePage
	}
	mem, err := syscall.Mmap(-1, 0, size+slack, syscall.PROT_READ|syscall.PROT_WRITE, syscall.MAP_PRIVATE|syscall.MAP_ANONYMOUS)
	if err != nil {
		return nil, nil
	}
	off := 0
	if slack > 0 {
		off = (hugePage - int(uintptr(unsafe.Pointer(&mem[0]))%hugePage)) % hugePage
	}
	b := mem[off : off+size]
	if whole := size &^ (hugePage - 1); whole > 0 {
		// Advice only: without transparent huge pages the block keeps 4 KiB
		// pages and is still prefaulted below.
		_ = syscall.Madvise(b[:whole], syscall.MADV_HUGEPAGE)
	}
	// A kernel older than 5.14 answers EINVAL: the field goes to the heap,
	// as on any other refusal.
	if err := syscall.Madvise(b, madvPopulateWrite); err != nil {
		_ = syscall.Munmap(mem) // the mapping Mmap just returned: cannot fail
		return nil, nil
	}
	mapped.Add(int64(len(mem)))
	return unsafe.Slice((*float64)(unsafe.Pointer(&b[0])), n), mem
}

// unmap releases a mapping mapFloats returned. Only a bug — a mapping it
// did not return, or one unmapped twice — makes munmap fail.
func unmap(mem []byte) {
	if err := syscall.Munmap(mem); err != nil {
		panic("grid: munmap: " + err.Error())
	}
	mapped.Add(-int64(len(mem)))
}
