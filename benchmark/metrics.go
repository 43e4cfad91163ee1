package main

// metricDef names one metric. BENCHMARK.json lists the same names, units,
// directions and bounds; bench_test.go keeps the two in step.
type metricDef struct {
	Name   string
	Unit   string
	Better string  // "higher" or "lower"
	Bound  float64 // end-to-end only: relative worsening that is a regression
}

// endToEnd are the metrics of the untraced run, the same three on every
// workload. The two timings are scaled to the nominal host speed (ref.go).
var endToEnd = []metricDef{
	{"mflups", "MFlup/s", "higher", boundMflups},
	{"setup_s", "s", "lower", boundSetup},
	{"peak_rss_mb", "MB", "lower", boundRSS},
}

// Bounds: the relative worsening of a median that counts as a regression.
// A bound has to be wider than the spread of the metric between runs of
// one commit, or every comparison ends unresolved. On the shared host this
// benchmark was defined on, the scaled timings still move by 7-12% between
// 20 s runs with nothing changed (unscaled: 15-40%); memory does not move.
const (
	boundMflups = 0.25
	boundSetup  = 0.25
	boundRSS    = 0.10
)

// perLayer are the metrics of the traced run, grouped by the module they
// measure. Every workload reports every one; a layer the workload's step
// does not use is measured at the workload's sizes all the same, and a
// share or ratio that does not apply reads 0 (README.md says which).
var perLayer = []metricDef{
	{"host.triad_gbs", "GB/s", "higher", 0},
	{"host.copy_gbs", "GB/s", "higher", 0},
	{"host.spin_ns", "ns", "lower", 0},
	{"host.ref_mflups", "MFlup/s", "higher", 0},

	{"core.op_s.p50", "s", "lower", 0},
	{"core.op_s.p75", "s", "lower", 0},
	{"core.phase.interior_frac", "frac", "higher", 0},
	{"core.phase.rim_frac", "frac", "lower", 0},
	{"core.phase.pack_frac", "frac", "lower", 0},
	{"core.phase.wire_frac", "frac", "lower", 0},
	{"core.phase.unpack_frac", "frac", "lower", 0},
	{"core.phase.fixup_frac", "frac", "lower", 0},
	{"core.phase.face_frac", "frac", "lower", 0},
	{"core.phase.sponge_frac", "frac", "lower", 0},
	{"core.phase.force_frac", "frac", "lower", 0},
	{"core.phase.sum_frac", "frac", "higher", 0},
	{"core.ghost_frac", "frac", "lower", 0},
	{"core.alloc_mb_per_op", "MB", "lower", 0},
	{"core.mallocs_per_step", "count", "lower", 0},
	{"core.scale_eff", "ratio", "higher", 0},
	{"core.fluid_balance", "ratio", "lower", 0},
	{"core.worker_balance", "ratio", "lower", 0},
	{"core.bytes_per_flup", "B", "lower", 0},
	{"core.roofline_frac", "frac", "higher", 0},
	{"core.variant.orig_rel", "ratio", "higher", 0},
	{"core.variant.fused_rel", "ratio", "higher", 0},
	{"core.variant.aa_rel", "ratio", "higher", 0},
	{"core.variant.trt_rel", "ratio", "higher", 0},
	{"core.variant.mrt_rel", "ratio", "higher", 0},
	{"core.variant.q39_rel", "ratio", "higher", 0},

	{"halo.pack_gbs", "GB/s", "higher", 0},
	{"halo.unpack_gbs", "GB/s", "higher", 0},
	{"halo.exchange_ms", "ms", "lower", 0},
	{"halo.bytes_per_step", "B", "lower", 0},
	{"halo.msgs_per_step", "count", "lower", 0},
	{"halo.payload_fluid_frac", "frac", "higher", 0},

	{"comm.pingpong_us", "us", "lower", 0},
	{"comm.msg_gbs", "GB/s", "higher", 0},
	{"comm.barrier_us", "us", "lower", 0},
	{"comm.wait_frac", "frac", "lower", 0},

	{"parallel.dispatch_us", "us", "lower", 0},
	{"collision.relax_ns", "ns", "lower", 0},
	{"collision.rows_ns", "ns", "lower", 0},
	{"lattice.equilibrium_ns", "ns", "lower", 0},
	{"lattice.moments_ns", "ns", "lower", 0},
	{"grid.alloc_gbs", "GB/s", "higher", 0},
	{"geom.build_s", "s", "lower", 0},
	{"geom.hash_ms", "ms", "lower", 0},
	{"decomp.cut_ms", "ms", "lower", 0},
	{"macro.compute_mcells", "Mcell/s", "higher", 0},
	{"output.vtk_mbs", "MB/s", "higher", 0},
	{"obs.overhead_frac", "frac", "lower", 0},
	{"obs.span_ns", "ns", "lower", 0},
	{"perfsim.run_ms", "ms", "lower", 0},
	{"tune.price_us", "us", "lower", 0},
	{"tune.candidates", "count", "higher", 0},
}
