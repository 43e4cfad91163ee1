package geom

import (
	"bytes"
	"testing"

	"repro/internal/grid"
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

// FuzzRowRuns: on a mask whose dims and solid points come from the input,
// the word-level row reader returns, for every row, exactly the fluid runs
// At reads point by point.
func FuzzRowRuns(f *testing.F) {
	f.Add(uint8(2), uint8(3), uint8(65), []byte{0xff, 0x00, 0x0f, 0xf0, 0xaa})
	f.Add(uint8(1), uint8(1), uint8(130), []byte{0x01, 0x80})
	f.Fuzz(func(t *testing.T, nx, ny, nz uint8, solid []byte) {
		d := grid.Dims{NX: 1 + int(nx%4), NY: 1 + int(ny%4), NZ: 1 + int(nz)}
		m := NewMask(d)
		for i := range d.Cells() {
			if len(solid) > 0 && solid[i/8%len(solid)]&(1<<(i%8)) != 0 {
				x, y, z := d.Coords(i)
				m.Set(x, y, z, true)
			}
		}
		checkRowRuns(t, m)
	})
}
