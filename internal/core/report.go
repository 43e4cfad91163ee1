package core

import (
	"repro/internal/grid"
	"repro/internal/obs"
)

// ReportConfig mirrors a solver Config into the report's plain-value echo
// form (obs cannot import core, so the glue lives here). Depth is what the
// run steps with, per axis: under AA the configured depths rounded up to
// even.
func ReportConfig(cfg *Config) obs.RunConfig {
	layout := "soa"
	if cfg.Layout == grid.AoS {
		layout = "aos"
	}
	rc := obs.RunConfig{
		Model:     cfg.Model.Name,
		NX:        cfg.N.NX,
		NY:        cfg.N.NY,
		NZ:        cfg.N.NZ,
		Steps:     cfg.Steps,
		Opt:       cfg.Opt.String(),
		Collision: cfg.Collision.String(),
		Stream:    cfg.Stream.String(),
		Layout:    layout,
		Fused:     cfg.GatherSweep(),
		Ranks:     cfg.Ranks,
		Decomp:    cfg.Decomp,
		Threads:   cfg.Threads,
		Depth:     cfg.runDepths(),
		Sparse:    cfg.Sparse,
	}
	if cfg.Balance != BalanceVolume {
		rc.Balance = cfg.Balance.String()
	}
	return rc
}

// NewReport builds the structured run report of a completed run: machine
// info, the config echo, MFlup/s, the Fig. 9 comm-time spread and the
// per-phase breakdown aggregated across ranks. The per-rank observations
// require Config.Observe; without it the report still carries config,
// wall time and comm statistics.
func NewReport(cfg *Config, res *Result) *obs.Report {
	commSecs := make([]float64, len(res.PerRank))
	for i, s := range res.PerRank {
		commSecs[i] = s.CommTime.Seconds()
	}
	st := obs.RunStats{
		WallSeconds:     res.WallTime.Seconds(),
		MFlups:          res.MFlups,
		InteriorUpdates: res.InteriorUpdates,
		GhostUpdates:    res.GhostUpdates,
		CommSeconds:     commSecs,
		AxisBytes:       res.HaloAxisBytes,
	}
	ranks := res.Observations
	if ranks == nil {
		// Fall back to fabric-level stats so uninstrumented runs still
		// report their traffic.
		ranks = make([]obs.RankObservation, len(res.PerRank))
		for i, s := range res.PerRank {
			ranks[i] = obs.RankObservation{
				Rank:        i,
				CommSeconds: s.CommTime.Seconds(),
				BytesSent:   s.BytesSent,
				Messages:    s.Messages,
				SlotBytes:   s.SlotBytes,
				FieldBytes:  s.FieldBytes,
			}
		}
	}
	return obs.BuildReport(ReportConfig(cfg), st, ranks)
}
