package perfsim

import (
	"fmt"
	"math"

	"repro/internal/core"
)

// Coeffs is a fitted machine-coefficient set: the output of the
// calibration loop (internal/tune) and the override perfsim runs with
// once a fit exists. A nil Job.Coeffs keeps the named-machine calibration
// path of calibration.go.
//
// The named calibrations describe the paper's Blue Gene nodes from
// published statements (per-optimization-level memory efficiencies, SMT
// yield, saturation core counts). Coeffs instead describes whatever host
// the observations came from, with a deliberately smaller model: one
// effective kernel-stream bandwidth (the per-level memEff ladder collapses
// — on the local Go kernels the NB-C/GC-C/SIMD rungs share the same
// compute kernels and differ in protocol, which the schedule simulation
// already models), one copy bandwidth for pack/unpack/wrap traffic, a
// two-parameter wire model, a per-message software cost, and the Amdahl
// thread-team coefficient. Every value is recovered from instrumented
// real runs by tune.Fit, so the coefficients carry no hand-picked anchors.
type Coeffs struct {
	// MemBW is the node's effective streamed bandwidth for the solver's
	// compute kernels at full saturation, bytes/s. It absorbs the kernel
	// efficiency factor (the calibration path's memEff), so it is below
	// the hardware's peak store bandwidth.
	MemBW float64 `json:"mem_bw"`
	// BWSaturation is the number of busy workers (tasks × threads on the
	// node) needed to stream at MemBW; a lone worker reaches
	// MemBW/BWSaturation. Fractional values are meaningful (a single
	// worker may come close to saturating a laptop-class memory system).
	BWSaturation float64 `json:"bw_saturation"`
	// CopyBW is the plain-copy bandwidth for pack/unpack, boundary ghost
	// fills and intra-node halo hops, bytes/s at saturation.
	CopyBW float64 `json:"copy_bw"`
	// LinkBW is the wire bandwidth per link, bytes/s, and Latency the
	// per-message wire latency, seconds. On a sweep with an injected
	// delay model these recover the injected constants; on a bare
	// in-process fabric they measure the channel transport itself.
	LinkBW  float64 `json:"link_bw"`
	Latency float64 `json:"latency"`
	// MsgSW is the per-message software cost on the critical path,
	// seconds (the calibration path's msgSWOverhead).
	MsgSW float64 `json:"msg_sw"`
	// ThreadSerialFrac is the Amdahl serial fraction each extra worker
	// thread adds to a task's compute windows; the team efficiency is
	// 1/(1 + c·(t−1)). See calibration.parallelEff.
	ThreadSerialFrac float64 `json:"thread_serial_frac"`
	// KernelCost multiplies the per-cell cost for non-BGK collision
	// kernels, keyed by collision.Kind strings ("trt", "mrt"); absent
	// keys cost 1 (the BGK baseline the bytes/flops specs describe).
	KernelCost map[string]float64 `json:"kernel_cost,omitempty"`
	// FusedAdjust and AAAdjust correct the built-in traffic models of the
	// fused kernel and the AA storage scheme (both nominally 2/3 of the
	// three-access baseline) toward the observed cost; zero means 1.
	FusedAdjust float64 `json:"fused_adjust,omitempty"`
	AAAdjust    float64 `json:"aa_adjust,omitempty"`
}

// Validate rejects non-physical coefficient sets, naming the offending
// key. Every bound is written so that NaN fails it (a NaN compares false
// with everything, so `v <= 0` would let it through to price NaN seconds).
func (c *Coeffs) Validate() error {
	type bound struct {
		name string
		v    float64
		ok   bool
		want string
	}
	bounds := []bound{
		{"mem_bw", c.MemBW, c.MemBW > 0, "> 0"},
		{"copy_bw", c.CopyBW, c.CopyBW > 0, "> 0"},
		{"link_bw", c.LinkBW, c.LinkBW > 0, "> 0"},
		{"bw_saturation", c.BWSaturation, c.BWSaturation >= 1, ">= 1"},
		{"latency", c.Latency, c.Latency >= 0, ">= 0"},
		{"msg_sw", c.MsgSW, c.MsgSW >= 0, ">= 0"},
		{"thread_serial_frac", c.ThreadSerialFrac, c.ThreadSerialFrac >= 0, ">= 0"},
		{"fused_adjust", c.FusedAdjust, c.FusedAdjust >= 0, ">= 0"},
		{"aa_adjust", c.AAAdjust, c.AAAdjust >= 0, ">= 0"},
	}
	for k, v := range c.KernelCost {
		bounds = append(bounds, bound{"kernel_cost[" + k + "]", v, v >= 0, ">= 0"})
	}
	for _, b := range bounds {
		if !b.ok || math.IsInf(b.v, 0) {
			return fmt.Errorf("perfsim: coeffs %s = %g, want finite and %s", b.name, b.v, b.want)
		}
	}
	return nil
}

// parallelEff is the thread-team efficiency at t worker threads (the same
// Amdahl form as the calibration path).
func (c *Coeffs) parallelEff(threads int) float64 {
	return 1 / (1 + c.ThreadSerialFrac*float64(threads-1))
}

// CellCost returns the per-cell cost multiplier of a candidate kernel
// configuration relative to the BGK split-kernel baseline: the fitted
// collision-kernel cost times the fitted correction for the fused or AA
// traffic model. Callers place it in Job.CellCost.
func (c *Coeffs) CellCost(kernel string, fused bool, stream core.StreamScheme) float64 {
	cost := 1.0
	if c.KernelCost != nil {
		if v, ok := c.KernelCost[kernel]; ok && v > 0 {
			cost = v
		}
	}
	if fused && c.FusedAdjust > 0 {
		cost *= c.FusedAdjust
	}
	if stream == core.StreamAA && c.AAAdjust > 0 {
		cost *= c.AAAdjust
	}
	return cost
}
