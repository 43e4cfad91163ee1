package geom

import (
	"bytes"
	"testing"
)

// FuzzReadMask: neither mask reader panics on any input — a hostile
// header in particular, whose dims would overflow int or ask for more
// than MaxMaskCells, is an error before anything is allocated — and
// whatever loads is within the bound and survives a write/read round trip
// unchanged. raw picks ReadRaw, else ReadCSV. The committed corpus
// (testdata/fuzz) holds the overflowing headers of both formats.
func FuzzReadMask(f *testing.F) {
	f.Fuzz(func(t *testing.T, raw bool, data []byte) {
		read, write := ReadCSV, WriteCSV
		if raw {
			read, write = ReadRaw, WriteRaw
		}
		m, err := read(bytes.NewReader(data))
		if err != nil {
			return
		}
		if c := m.D.Cells(); c < 1 || c > MaxMaskCells {
			t.Fatalf("loaded a mask of %v (%d cells)", m.D, c)
		}
		if m.D.Cells() > 1<<16 {
			return // a short CSV can declare a large empty box; its round trip proves nothing more
		}
		var buf bytes.Buffer
		if err := write(&buf, m); err != nil {
			t.Fatal(err)
		}
		back, err := read(&buf)
		if err != nil || !back.Equal(m) {
			t.Fatalf("round trip of a loaded %v mask: %v", m.D, err)
		}
	})
}
