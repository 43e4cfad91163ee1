package geom

// Voxel-file import/export: the arterial-mask pathway of the paper's §I.
// Two formats are supported, dispatched on file extension:
//
//   - .csv — textual sparse form: the first record is the global dims
//     "nx,ny,nz", every following record one solid voxel "ix,iy,iz".
//     Lines starting with '#' are comments. Compact for typical masks
//     (solids are a small fraction of the box) and diffable.
//
//   - .raw — dense binary form: a one-line header "lbmvox nx ny nz"
//     followed by exactly nx·ny·nz bytes, one per lattice point in
//     z-fastest order, 0 = fluid, 1 = solid. The shape a voxelizer or a
//     segmented medical image exports with a one-line header slapped on.
//
// Save and Load round-trip exactly in both formats (the test suite pins
// this), so either works as the interchange format for -geom.

import (
	"bufio"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"

	"repro/internal/grid"
)

const rawMagic = "lbmvox"

// MaxMaskCells bounds the cell count a mask file may declare: 2³⁰, a
// 1024³ box. A loaded mask is a whole global domain for one process (ranks
// are goroutines), and set-up keeps per-cell solid flags over every rank's
// box even under sparse storage, so a larger one would cost gigabytes
// before the first field exists. The bound is checked before anything is
// allocated, so a one-line file cannot make a loader ask for more.
const MaxMaskCells = 1 << 30

// checkDims reports whether mask dims read from a file are positive and
// declare at most MaxMaskCells cells, computed without overflowing int.
func checkDims(nx, ny, nz int) error {
	if nx < 1 || ny < 1 || nz < 1 {
		return fmt.Errorf("dims %d,%d,%d are not all positive", nx, ny, nz)
	}
	if nx > MaxMaskCells/ny || nx*ny > MaxMaskCells/nz {
		return fmt.Errorf("dims %d,%d,%d exceed the %d-cell bound", nx, ny, nz, MaxMaskCells)
	}
	return nil
}

// Save writes the mask to path in the format implied by the extension
// (.csv or .raw).
func Save(path string, m *Mask) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer f.Close()
	w := bufio.NewWriter(f)
	switch filepath.Ext(path) {
	case ".csv":
		err = WriteCSV(w, m)
	case ".raw":
		err = WriteRaw(w, m)
	default:
		return fmt.Errorf("geom: unknown mask format %q (want .csv or .raw)", path)
	}
	if err != nil {
		return err
	}
	return w.Flush()
}

// Load reads a mask from path in the format implied by the extension.
func Load(path string) (*Mask, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	r := bufio.NewReader(f)
	switch filepath.Ext(path) {
	case ".csv":
		return ReadCSV(r)
	case ".raw":
		return ReadRaw(r)
	}
	return nil, fmt.Errorf("geom: unknown mask format %q (want .csv or .raw)", path)
}

// WriteCSV writes the sparse textual form.
func WriteCSV(w io.Writer, m *Mask) error {
	if _, err := fmt.Fprintf(w, "# voxel mask: dims record, then one ix,iy,iz record per solid point\n%d,%d,%d\n", m.D.NX, m.D.NY, m.D.NZ); err != nil {
		return err
	}
	for ix := 0; ix < m.D.NX; ix++ {
		for iy := 0; iy < m.D.NY; iy++ {
			for iz := 0; iz < m.D.NZ; iz++ {
				if m.At(ix, iy, iz) {
					if _, err := fmt.Fprintf(w, "%d,%d,%d\n", ix, iy, iz); err != nil {
						return err
					}
				}
			}
		}
	}
	return nil
}

// ReadCSV reads the sparse textual form.
func ReadCSV(r io.Reader) (*Mask, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1<<16), 1<<22)
	var m *Mask
	line := 0
	for sc.Scan() {
		line++
		s := strings.TrimSpace(sc.Text())
		if s == "" || strings.HasPrefix(s, "#") {
			continue
		}
		var a, b, c int
		if _, err := fmt.Sscanf(strings.ReplaceAll(s, ",", " "), "%d %d %d", &a, &b, &c); err != nil {
			return nil, fmt.Errorf("geom: csv line %d: %q: %v", line, s, err)
		}
		if m == nil {
			if err := checkDims(a, b, c); err != nil {
				return nil, fmt.Errorf("geom: csv line %d: %v", line, err)
			}
			m = NewMask(grid.Dims{NX: a, NY: b, NZ: c})
			continue
		}
		if a < 0 || a >= m.D.NX || b < 0 || b >= m.D.NY || c < 0 || c >= m.D.NZ {
			return nil, fmt.Errorf("geom: csv line %d: voxel %d,%d,%d outside %v", line, a, b, c, m.D)
		}
		m.Set(a, b, c, true)
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	if m == nil {
		return nil, fmt.Errorf("geom: csv mask has no dims record")
	}
	return m, nil
}

// WriteRaw writes the dense binary form.
func WriteRaw(w io.Writer, m *Mask) error {
	if _, err := fmt.Fprintf(w, "%s %d %d %d\n", rawMagic, m.D.NX, m.D.NY, m.D.NZ); err != nil {
		return err
	}
	buf := make([]byte, m.D.NZ)
	for ix := 0; ix < m.D.NX; ix++ {
		for iy := 0; iy < m.D.NY; iy++ {
			for iz := 0; iz < m.D.NZ; iz++ {
				if m.At(ix, iy, iz) {
					buf[iz] = 1
				} else {
					buf[iz] = 0
				}
			}
			if _, err := w.Write(buf); err != nil {
				return err
			}
		}
	}
	return nil
}

// ReadRaw reads the dense binary form.
func ReadRaw(r io.Reader) (*Mask, error) {
	br := bufio.NewReader(r)
	header, err := br.ReadString('\n')
	if err != nil {
		return nil, fmt.Errorf("geom: raw header: %v", err)
	}
	var magic string
	var nx, ny, nz int
	if _, err := fmt.Sscanf(header, "%s %d %d %d", &magic, &nx, &ny, &nz); err != nil || magic != rawMagic {
		return nil, fmt.Errorf("geom: bad raw header %q (want %q nx ny nz)", strings.TrimSpace(header), rawMagic)
	}
	if err := checkDims(nx, ny, nz); err != nil {
		return nil, fmt.Errorf("geom: raw header: %v", err)
	}
	m := NewMask(grid.Dims{NX: nx, NY: ny, NZ: nz})
	buf := make([]byte, nz)
	for ix := 0; ix < nx; ix++ {
		for iy := 0; iy < ny; iy++ {
			if _, err := io.ReadFull(br, buf); err != nil {
				return nil, fmt.Errorf("geom: raw payload at x=%d y=%d: %v", ix, iy, err)
			}
			for iz, b := range buf {
				switch b {
				case 0:
				case 1:
					m.Set(ix, iy, iz, true)
				default:
					return nil, fmt.Errorf("geom: raw byte %d at (%d,%d,%d) (want 0 or 1)", b, ix, iy, iz)
				}
			}
		}
	}
	return m, nil
}
