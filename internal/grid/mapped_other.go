//go:build !linux || race

package grid

// Heap fields everywhere but non-race Linux builds. Under -race this is on
// purpose: the race runtime instruments only memory Go allocated, so a
// mapped field would drop every field access from `go test -race`.

// mapFloats maps nothing: NewMappedField falls back to the heap.
func mapFloats(int) ([]float64, []byte) { return nil, nil }

// unmap is never reached: no field here carries a mapping.
func unmap([]byte) {}
