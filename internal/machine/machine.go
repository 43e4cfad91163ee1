// Package machine models the target hardware of the paper's performance
// study — the IBM Blue Gene/P and Blue Gene/Q nodes — and implements the
// analytic performance bounds of §III: Wellein et al.'s attainable-MFlup/s
// model (Table II) and the torus-bandwidth lower bounds (§III.C).
//
// The hardware constants come from the paper and its references [15]-[17];
// see DESIGN.md for the substitution rationale (we simulate these machines
// rather than run on them).
package machine

import "fmt"

// Machine describes one compute platform.
type Machine struct {
	Name string
	// MemBWBytes is the main-store bandwidth per node, bytes/s (B_m).
	MemBWBytes float64
	// PeakFlops is the peak floating-point rate per node, flop/s.
	PeakFlops float64
	// TorusLinkBytes is the usable bandwidth of one unidirectional torus
	// link, bytes/s.
	TorusLinkBytes float64
	// TorusLinks is the number of unidirectional links per node.
	TorusLinks int
	// LinkLatency is the per-message latency of the interconnect, seconds.
	LinkLatency float64
	// CoresPerNode and ThreadsPerCore bound the tasks×threads products of
	// the hybrid study.
	CoresPerNode   int
	ThreadsPerCore int
	// MemPerNodeBytes bounds the problem size per node (the paper's
	// out-of-memory cases in Fig. 10).
	MemPerNodeBytes float64
}

// BGP returns the IBM Blue Gene/P node model: 4-core 850 MHz PowerPC 450,
// 13.6 GFlop/s and 13.6 GB/s per node, 2 GB memory, 3-D torus with 6
// bidirectional neighbor links at 425 MB/s per direction [15].
func BGP() Machine {
	return Machine{
		Name:            "BG/P",
		MemBWBytes:      13.6e9,
		PeakFlops:       13.6e9,
		TorusLinkBytes:  425e6,
		TorusLinks:      12, // 6 neighbors × 2 directions
		LinkLatency:     3e-6,
		CoresPerNode:    4,
		ThreadsPerCore:  1,
		MemPerNodeBytes: 2 << 30,
	}
}

// BGQ returns the IBM Blue Gene/Q node model: 16-core (+1 service) 1.6 GHz
// A2, 204.8 GFlop/s and 43 GB/s per node, 16 GB memory, 5-D torus with 10
// bidirectional links at an effective 1.6 GB/s per direction [16], [17].
func BGQ() Machine {
	return Machine{
		Name:            "BG/Q",
		MemBWBytes:      43e9,
		PeakFlops:       204.8e9,
		TorusLinkBytes:  1.6e9,
		TorusLinks:      20, // 10 neighbors × 2 directions
		LinkLatency:     1.5e-6,
		CoresPerNode:    16,
		ThreadsPerCore:  4,
		MemPerNodeBytes: 16 << 30,
	}
}

// ByName returns the machine with the given name.
func ByName(name string) (Machine, error) {
	switch name {
	case "BG/P", "bgp", "BGP":
		return BGP(), nil
	case "BG/Q", "bgq", "BGQ":
		return BGQ(), nil
	}
	return Machine{}, fmt.Errorf("machine: unknown machine %q (want bgp or bgq)", name)
}

// KernelSpec carries the per-lattice-point costs of the paper's
// implementation (§III.B): two loads and one store per velocity (B = 3·Q·8
// bytes) and the counted core floating-point operations.
type KernelSpec struct {
	Name         string
	Q            int
	BytesPerCell float64
	FlopsPerCell float64
}

// SpecD3Q19 is the paper's D3Q19 kernel: 456 bytes and 178 flops per cell.
func SpecD3Q19() KernelSpec {
	return KernelSpec{Name: "D3Q19", Q: 19, BytesPerCell: 456, FlopsPerCell: 178}
}

// SpecD3Q39 is the paper's D3Q39 kernel: 936 bytes and 190 flops per cell.
func SpecD3Q39() KernelSpec {
	return KernelSpec{Name: "D3Q39", Q: 39, BytesPerCell: 936, FlopsPerCell: 190}
}

// SpecForQ returns the paper's kernel spec for a lattice with q velocities,
// deriving bytes as 3·q·8 for other lattices.
func SpecForQ(q int) KernelSpec {
	switch q {
	case 19:
		return SpecD3Q19()
	case 39:
		return SpecD3Q39()
	default:
		return KernelSpec{Name: fmt.Sprintf("Q%d", q), Q: q, BytesPerCell: float64(3 * 8 * q), FlopsPerCell: 180}
	}
}

// Bound is the roofline evaluation of Eq. (5): P = min(B_m/B, P_peak/F),
// in MFlup/s, with the limiting factor identified.
type Bound struct {
	// PBm is the bandwidth-bound MFlup/s: B_m / B.
	PBm float64
	// PPeak is the compute-bound MFlup/s: P_peak / F.
	PPeak float64
	// Attainable is min(PBm, PPeak).
	Attainable float64
	// BandwidthLimited reports whether PBm < PPeak (true for every
	// machine/lattice pair in the paper — "in all cases, the code is
	// extremely bandwidth limited").
	BandwidthLimited bool
	// HWEfficiencyCap is PBm/PPeak: the highest fraction of peak flop/s the
	// kernel can reach when bandwidth-bound (38% for D3Q19 and 20% for
	// D3Q39 on BG/P, §III.C).
	HWEfficiencyCap float64
}

// MaxMFlups evaluates the attainable-performance model (paper Eq. 5 /
// Table II) for one node.
func MaxMFlups(m Machine, k KernelSpec) Bound {
	b := Bound{
		PBm:   m.MemBWBytes / k.BytesPerCell / 1e6,
		PPeak: m.PeakFlops / k.FlopsPerCell / 1e6,
	}
	b.Attainable = b.PBm
	b.BandwidthLimited = true
	if b.PPeak < b.PBm {
		b.Attainable = b.PPeak
		b.BandwidthLimited = false
	}
	b.HWEfficiencyCap = b.PBm / b.PPeak
	return b
}

// TorusBoundMFlups is the §III.C lower bound: the MFlup/s attained if every
// load and store went over the torus, i.e. all links' aggregate bandwidth
// divided by the bytes per cell.
func TorusBoundMFlups(m Machine, k KernelSpec) float64 {
	agg := float64(m.TorusLinks) * m.TorusLinkBytes
	return agg / k.BytesPerCell / 1e6
}
