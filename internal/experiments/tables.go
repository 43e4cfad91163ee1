package experiments

import (
	"fmt"
	"slices"

	"repro/internal/lattice"
	"repro/internal/machine"
)

// Table1 renders the paper's Table I, D3Q19 then D3Q39: each lattice's
// velocity shells with weights, neighbor order and distance.
func Table1() []*Table { return []*Table{table1For(lattice.D3Q19()), table1For(lattice.D3Q39())} }

func table1For(m *lattice.Model) *Table {
	t := &Table{
		Title:  fmt.Sprintf("Table I — %s lattice (c_s² = %.4f)", m.Name, m.CsSq),
		Header: []string{"shell", "example ξ_i", "count", "w_i", "distance"},
	}
	type shell struct {
		example string
		count   int
		w       float64
		dist    float64
	}
	var shells []shell
	for i := 0; i < m.Q; i++ {
		d, w := m.NeighborOrderDistance(i), m.W[i]
		if si := slices.IndexFunc(shells, func(s shell) bool { return s.w == w && s.dist == d }); si >= 0 {
			shells[si].count++
			continue
		}
		shells = append(shells, shell{
			example: fmt.Sprintf("(%d,%d,%d)", m.Cx[i], m.Cy[i], m.Cz[i]),
			count:   1, w: w, dist: d,
		})
	}
	for si, s := range shells {
		t.Rows = append(t.Rows, []string{
			fmt.Sprintf("%d", si),
			s.example,
			fmt.Sprintf("%d", s.count),
			fmt.Sprintf("%.6g", s.w),
			fmt.Sprintf("%.4g", s.dist),
		})
	}
	if m.Name == "D3Q39" {
		t.Notes = append(t.Notes,
			"the paper's printed 1/142 for the (2,2,0) shell is a transcription error; 1/432 normalizes the weights (see lattice tests)")
	}
	return t
}

// Table2 evaluates the attainable-MFlup/s model (paper Table II) for both
// machines and lattices.
func Table2() *Table {
	t := &Table{
		Title:  "Table II — maximum attainable MFlup/s (Eq. 5)",
		Header: []string{"system", "lattice", "B_m", "P(Bm) MFlup/s", "P_peak", "P(Ppeak) MFlup/s", "limit", "paper P(Bm)"},
	}
	paper := map[string]string{
		"BG/P D3Q19": "29", "BG/Q D3Q19": "94",
		"BG/P D3Q39": "14.5", "BG/Q D3Q39": "45",
	}
	for _, m := range []machine.Machine{machine.BGP(), machine.BGQ()} {
		for _, spec := range []machine.KernelSpec{machine.SpecD3Q19(), machine.SpecD3Q39()} {
			b := machine.MaxMFlups(m, spec)
			limit := "flops"
			if b.BandwidthLimited {
				limit = "bandwidth"
			}
			t.Rows = append(t.Rows, []string{
				m.Name, spec.Name,
				fmt.Sprintf("%.1f GB/s", m.MemBWBytes/1e9),
				fmt.Sprintf("%.1f", b.PBm),
				fmt.Sprintf("%.1f GF/s", m.PeakFlops/1e9),
				fmt.Sprintf("%.1f", b.PPeak),
				limit,
				paper[m.Name+" "+spec.Name],
			})
		}
	}
	t.Notes = append(t.Notes, "in all cases the code is bandwidth limited, as in the paper")
	return t
}

// SectionIIICBounds renders the torus-bandwidth lower bounds of §III.C.
func SectionIIICBounds() *Table {
	t := &Table{
		Title:  "§III.C — torus-bandwidth lower bounds (all loads/stores at torus speed)",
		Header: []string{"system", "lattice", "bound MFlup/s", "paper"},
	}
	paper := map[string]string{
		"BG/P D3Q19": "11.1", "BG/Q D3Q19": "70",
		"BG/P D3Q39": "5.4", "BG/Q D3Q39": "34",
	}
	for _, m := range []machine.Machine{machine.BGP(), machine.BGQ()} {
		for _, spec := range []machine.KernelSpec{machine.SpecD3Q19(), machine.SpecD3Q39()} {
			t.Rows = append(t.Rows, []string{
				m.Name, spec.Name,
				fmt.Sprintf("%.1f", machine.TorusBoundMFlups(m, spec)),
				paper[m.Name+" "+spec.Name],
			})
		}
	}
	return t
}
