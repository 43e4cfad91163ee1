package geom

import (
	"bytes"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/grid"
)

func testMask(t *testing.T) *Mask {
	t.Helper()
	d := grid.Dims{NX: 13, NY: 7, NZ: 5}
	m := FromFunc(d, func(ix, iy, iz int) bool {
		return (ix*31+iy*17+iz*7)%5 == 0
	})
	if m.Solids() == 0 || m.Solids() == d.Cells() {
		t.Fatalf("degenerate test mask: %d solids of %d", m.Solids(), d.Cells())
	}
	return m
}

func TestMaskSetAtCount(t *testing.T) {
	d := grid.Dims{NX: 4, NY: 3, NZ: 66} // spans multiple uint64 words
	m := NewMask(d)
	if !m.Empty() || m.Solids() != 0 || m.Fluids() != d.Cells() {
		t.Fatal("new mask not all-fluid")
	}
	m.Set(1, 2, 65, true)
	m.Set(0, 0, 0, true)
	m.Set(3, 2, 64, true)
	if m.Solids() != 3 || m.Fluids() != d.Cells()-3 {
		t.Fatalf("got %d solids, want 3", m.Solids())
	}
	if !m.At(1, 2, 65) || !m.At(0, 0, 0) || !m.At(3, 2, 64) || m.At(1, 2, 64) {
		t.Fatal("At disagrees with Set")
	}
	m.Set(1, 2, 65, false)
	if m.At(1, 2, 65) || m.Solids() != 2 {
		t.Fatal("clearing a bit failed")
	}
}

func TestMaskRoundTripCSV(t *testing.T) {
	m := testMask(t)
	var buf bytes.Buffer
	if err := WriteCSV(&buf, m); err != nil {
		t.Fatal(err)
	}
	got, err := ReadCSV(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if !got.Equal(m) {
		t.Fatal("csv round trip changed the mask")
	}
}

func TestMaskRoundTripRaw(t *testing.T) {
	m := testMask(t)
	var buf bytes.Buffer
	if err := WriteRaw(&buf, m); err != nil {
		t.Fatal(err)
	}
	got, err := ReadRaw(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if !got.Equal(m) {
		t.Fatal("raw round trip changed the mask")
	}
}

func TestMaskSaveLoad(t *testing.T) {
	m := testMask(t)
	dir := t.TempDir()
	for _, ext := range []string{".csv", ".raw"} {
		path := filepath.Join(dir, "mask"+ext)
		if err := Save(path, m); err != nil {
			t.Fatalf("%s: %v", ext, err)
		}
		got, err := Load(path)
		if err != nil {
			t.Fatalf("%s: %v", ext, err)
		}
		if !got.Equal(m) {
			t.Fatalf("%s: save/load round trip changed the mask", ext)
		}
	}
	if err := Save(filepath.Join(dir, "mask.png"), m); err == nil {
		t.Fatal("unknown extension accepted")
	}
	if _, err := Load(filepath.Join(dir, "mask.png")); err == nil {
		t.Fatal("unknown extension accepted on load")
	}
}

func TestReadCSVErrors(t *testing.T) {
	for _, bad := range []string{
		"",                          // no dims
		"# only a comment\n",        // no dims
		"4,4\n",                     // malformed dims
		"4,4,4\n9,0,0\n",            // out of range
		"4,4,4\n1,1\n",              // malformed voxel
		"0,4,4\n",                   // zero dim
		"4,4,4\n-1,0,0\n",           // negative
		"4,4,4\n1,1,one\n",          // non-numeric
		"2097152,2097152,2097152\n", // 2⁶³ cells: overflows int
		"1024,1024,1025\n",          // one plane past MaxMaskCells
		"9223372036854775807,9223372036854775807,2\n", // overflows on the first product
	} {
		if _, err := ReadCSV(strings.NewReader(bad)); err == nil {
			t.Errorf("ReadCSV accepted %q", bad)
		}
	}
}

func TestReadRawErrors(t *testing.T) {
	for _, bad := range []string{
		"wrongmagic 2 2 2\n" + strings.Repeat("\x00", 8),
		"lbmvox 2 2\n",
		"lbmvox 2 2 2\n\x00\x00\x00", // truncated payload
		"lbmvox 2 2 2\n" + "\x00\x00\x00\x00\x00\x00\x00\x02", // bad byte
		"lbmvox 0 2 2\n",
		"lbmvox 2097152 2097152 2097152\n", // 2⁶³ cells: overflows int
		"lbmvox 1025 1024 1024\n",          // one plane past MaxMaskCells
	} {
		if _, err := ReadRaw(strings.NewReader(bad)); err == nil {
			t.Errorf("ReadRaw accepted %q", bad)
		}
	}
}

func TestCylinderZ(t *testing.T) {
	d := grid.Dims{NX: 20, NY: 10, NZ: 3}
	m := CylinderZ(d, 8, 5.5, 2.5)
	if m.Empty() {
		t.Fatal("cylinder mask empty")
	}
	// Every z column is identical, and the center voxel is solid.
	for ix := 0; ix < d.NX; ix++ {
		for iy := 0; iy < d.NY; iy++ {
			for iz := 1; iz < d.NZ; iz++ {
				if m.At(ix, iy, iz) != m.At(ix, iy, 0) {
					t.Fatalf("cylinder not z-invariant at (%d,%d,%d)", ix, iy, iz)
				}
			}
		}
	}
	if !m.At(8, 5, 0) || !m.At(8, 6, 0) {
		t.Fatal("cylinder center not solid")
	}
	if m.At(8, 9, 0) || m.At(0, 5, 0) {
		t.Fatal("cylinder too large")
	}
	// Union composes.
	u := NewMask(d)
	u.Union(m)
	if !u.Equal(m) {
		t.Fatal("union with empty changed the mask")
	}
}

func TestSphereAt(t *testing.T) {
	d := grid.Dims{NX: 9, NY: 9, NZ: 9}
	m := SphereAt(d, 4, 4, 4, 2)
	if !m.At(4, 4, 4) || !m.At(6, 4, 4) || m.At(7, 4, 4) || m.At(6, 6, 6) {
		t.Fatal("sphere shape wrong")
	}
}
