package grid

import (
	"sync"
	"testing"
	"unsafe"
)

// TestMappedField: a NewMappedField field is a zeroed field of the right
// length, starts on a 2 MiB boundary when it is mapped and at least 2 MiB
// long, and Release nils Data, is idempotent and returns MappedBytes to
// where it was — also with 8 goroutines allocating and releasing at once.
func TestMappedField(t *testing.T) {
	start := MappedBytes()
	for _, d := range []Dims{{NX: 3, NY: 4, NZ: 5}, {NX: 40, NY: 40, NZ: 17}} {
		f := NewMappedField(19, d, SoA)
		if len(f.Data) != 19*d.Cells() {
			t.Fatalf("%v: %d values, want %d", d, len(f.Data), 19*d.Cells())
		}
		for i, x := range f.Data {
			if x != 0 {
				t.Fatalf("%v: value %d is %g, want 0", d, i, x)
			}
		}
		f.Set(18, d.NX-1, d.NY-1, d.NZ-1, 1)
		if size := 8 * len(f.Data); f.mem != nil && size >= hugePage {
			if addr := uintptr(unsafe.Pointer(&f.Data[0])); addr%hugePage != 0 {
				t.Errorf("%v: %d B field at %#x, not 2 MiB-aligned", d, size, addr)
			}
		}
		f.Release()
		f.Release()
		if f.Data != nil {
			t.Errorf("%v: Data survives Release", d)
		}
	}
	var nilField *Field
	nilField.Release()

	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			d := Dims{NX: 20 + g, NY: 32, NZ: 32}
			for range 10 {
				f := NewMappedField(19, d, SoA)
				if f.Data[0] != 0 || f.Data[len(f.Data)-1] != 0 {
					t.Errorf("goroutine %d: a fresh field is not zeroed", g)
				}
				f.Data[0], f.Data[len(f.Data)-1] = 1, 1
				f.Release()
			}
		}()
	}
	wg.Wait()
	if got := MappedBytes(); got != start {
		t.Errorf("MappedBytes %d after every field was released, %d before", got, start)
	}
}
