package tune

import (
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sort"

	"repro/internal/collision"
	"repro/internal/core"
	"repro/internal/decomp"
	"repro/internal/geom"
	"repro/internal/grid"
	"repro/internal/lattice"
	"repro/internal/machine"
	"repro/internal/obs"
	"repro/internal/perfsim"
)

// TunedSchema identifies the tuned-config JSON shape.
const TunedSchema = "lbm-tuned/v1"

// Scenario is the problem a tuned config is valid for: the physics and
// geometry stay fixed, the execution knobs are searched.
type Scenario struct {
	Name  string
	Model *lattice.Model
	N     grid.Dims
	Tau   float64
	// Collision is the run's operator. The default space searches its
	// kind only, and a candidate of that kind runs it with its own
	// parameters (TRT's Λ, MRT's ghost rates).
	Collision collision.Spec
	Boundary  *core.BoundarySpec
	Solid     *geom.Mask
	Accel     [3]float64
	Init      core.InitFunc
}

// NewScenario takes the problem of a solver config: its physics and
// geometry, not its execution knobs.
func NewScenario(name string, cfg *core.Config) *Scenario {
	return &Scenario{
		Name: name, Model: cfg.Model, N: cfg.N, Tau: cfg.Tau,
		Collision: cfg.Collision, Boundary: cfg.Boundary, Solid: cfg.Solid,
		Accel: cfg.Accel, Init: cfg.Init,
	}
}

// Candidate is one point of the execution-config space, in the runnable
// JSON vocabulary of the CLIs (string-valued enums, per-axis depths).
type Candidate struct {
	Ranks   int    `json:"ranks"`
	Decomp  [3]int `json:"decomp"`
	Threads int    `json:"threads"`
	Opt     string `json:"opt"`
	Depth   [3]int `json:"depth"`
	Stream  string `json:"stream"`
	Kernel  string `json:"kernel"`
	Balance string `json:"balance,omitempty"`
	Sparse  bool   `json:"sparse,omitempty"`
}

// key is the candidate's deterministic sort tiebreaker.
func (c Candidate) key() string {
	b, _ := json.Marshal(c)
	return string(b)
}

// Apply overlays the candidate's execution knobs onto an existing solver
// config, leaving the physics (model, domain, tau, boundaries, geometry)
// untouched — how `lbmrun -auto` adopts a tuned choice. The config keeps
// its collision spec when the spec's kind is the candidate's kernel; a
// different kernel brings its operator's default parameters.
func (c Candidate) Apply(cfg *core.Config) error {
	opt, err := core.ParseOptLevel(c.Opt)
	if err != nil {
		return err
	}
	stream, err := core.ParseStreamScheme(c.Stream)
	if err != nil {
		return err
	}
	kind, err := collision.ParseKind(c.Kernel)
	if err != nil {
		return err
	}
	bal, err := core.ParseBalance(c.Balance)
	if err != nil {
		return err
	}
	cfg.Opt, cfg.Ranks, cfg.Decomp, cfg.Threads = opt, c.Ranks, c.Decomp, c.Threads
	if cfg.Collision.Kind != kind {
		cfg.Collision = collision.Spec{Kind: kind}
	}
	cfg.Stream = stream
	cfg.Balance, cfg.Sparse = bal, c.Sparse
	if c.Depth[0] == c.Depth[1] && c.Depth[1] == c.Depth[2] {
		cfg.GhostDepth, cfg.GhostDepthAxes = c.Depth[0], [3]int{}
	} else {
		cfg.GhostDepth, cfg.GhostDepthAxes = 0, c.Depth
	}
	return nil
}

// Config materializes the candidate into a runnable solver config for the
// scenario.
func (c Candidate) Config(s *Scenario, steps int) (core.Config, error) {
	cfg := core.Config{
		Model: s.Model, N: s.N, Tau: s.Tau, Steps: steps,
		Collision: s.Collision, Boundary: s.Boundary, Solid: s.Solid,
		Accel: s.Accel, Init: s.Init,
	}
	if err := c.Apply(&cfg); err != nil {
		return core.Config{}, err
	}
	return cfg, nil
}

// DefaultCandidate is the stock configuration a plain `lbmrun` executes:
// one rank, one thread, the full single-rank optimization ladder, unit
// ghost depth, two-grid streaming, dense volume decomposition, BGK. The
// tuned config's win is measured against it, run with the scenario's own
// operator.
func DefaultCandidate() Candidate {
	return Candidate{
		Ranks: 1, Decomp: [3]int{1, 1, 1}, Threads: 1,
		Opt: core.OptSIMD.String(), Depth: [3]int{1, 1, 1},
		Stream: core.StreamTwoGrid.String(), Kernel: "bgk",
	}
}

// Space bounds the candidate enumeration.
type Space struct {
	// MaxWorkers caps ranks × threads — the machine's usable parallelism.
	MaxWorkers int `json:"max_workers"`
	// Ranks and Threads are the per-dimension value sets; pairs whose
	// product exceeds MaxWorkers are skipped.
	Ranks   []int `json:"ranks"`
	Threads []int `json:"threads"`
	// Depths are the ghost-depth values tried (uniformly and per-axis on
	// decomposed axes).
	Depths []int `json:"depths"`
	// Opts, Streams and Kernels span the protocol/kernel choices.
	Opts    []string `json:"opts"`
	Streams []string `json:"streams"`
	Kernels []string `json:"kernels"`
}

// DefaultSpace returns the standard search space for a machine with the
// given worker budget: power-of-two rank and thread counts, ghost depths
// 1-2, the overlap-capable protocol rungs, both storage schemes, and one
// kernel, bgk: swapping collision operators changes the physics, so Tune
// replaces it with the scenario's own operator and callers that price a
// scenario set Kernels to its operator themselves.
func DefaultSpace(maxWorkers int) Space {
	if maxWorkers < 1 {
		maxWorkers = 1
	}
	var counts []int
	for v := 1; v <= maxWorkers && v <= 8; v *= 2 {
		counts = append(counts, v)
	}
	return Space{
		MaxWorkers: maxWorkers,
		Ranks:      counts,
		Threads:    counts,
		Depths:     []int{1, 2},
		Opts:       []string{core.OptNBC.String(), core.OptGCC.String(), core.OptSIMD.String()},
		Streams:    []string{core.StreamTwoGrid.String(), core.StreamAA.String()},
		Kernels:    []string{"bgk"},
	}
}

// shapes returns every rank-grid orientation of every factorization of
// ranks into up to three axes — the tuner's "decomposition shape × axis
// order" dimension (a 4×1×1 slab, a 1×4×1 slab and a 2×2×1 pencil are
// distinct candidates with distinct surfaces).
func shapes(ranks int) [][3]int {
	var out [][3]int
	for px := 1; px <= ranks; px++ {
		if ranks%px != 0 {
			continue
		}
		rest := ranks / px
		for py := 1; py <= rest; py++ {
			if rest%py != 0 {
				continue
			}
			out = append(out, [3]int{px, py, rest / py})
		}
	}
	return out
}

// depthTriples returns the ghost-depth assignments tried for a shape:
// every uniform depth, plus per-axis combinations that spend depth only
// on decomposed axes (depth on an undecomposed axis buys nothing and
// costs ghost updates).
func depthTriples(shape [3]int, depths []int) [][3]int {
	var out [][3]int
	seen := map[[3]int]bool{}
	add := func(t [3]int) {
		if !seen[t] {
			seen[t] = true
			out = append(out, t)
		}
	}
	for _, d := range depths {
		add([3]int{d, d, d})
	}
	// Per-axis: each decomposed axis independently picks from depths,
	// undecomposed axes stay at 1.
	var rec func(axis int, t [3]int)
	rec = func(axis int, t [3]int) {
		if axis == 3 {
			add(t)
			return
		}
		if shape[axis] == 1 {
			t[axis] = 1
			rec(axis+1, t)
			return
		}
		for _, d := range depths {
			t[axis] = d
			rec(axis+1, t)
		}
	}
	rec(0, [3]int{})
	return out
}

// Enumerate builds the candidate list for a scenario: the cross product
// of the space's dimensions, minus the points that only duplicate another
// (odd AA depths, sparse or fluid-balanced without a mask), filtered
// through the solver's own rulebook — a candidate is legal exactly when
// core.Config.Validate accepts the config it materializes into.
func Enumerate(s *Scenario, sp Space) []Candidate {
	var out []Candidate
	balances := []string{""}
	sparses := []bool{false}
	if s.Solid != nil {
		balances = append(balances, core.BalanceFluid.String())
		sparses = append(sparses, true)
	}
	for _, ranks := range sp.Ranks {
		for _, threads := range sp.Threads {
			if ranks*threads > sp.MaxWorkers {
				continue
			}
			for _, shape := range shapes(ranks) {
				for _, depth := range depthTriples(shape, sp.Depths) {
					for _, opt := range sp.Opts {
						for _, stream := range sp.Streams {
							if stream == core.StreamAA.String() && !evenDepths(depth) {
								// AA exchanges at step-pair boundaries only:
								// odd depths round up anyway, so enumerating
								// them just duplicates the even candidate.
								continue
							}
							for _, kernel := range sp.Kernels {
								for _, bal := range balances {
									for _, sparse := range sparses {
										c := Candidate{
											Ranks: ranks, Decomp: shape, Threads: threads,
											Opt: opt, Depth: depth, Stream: stream,
											Kernel: kernel, Balance: bal, Sparse: sparse,
										}
										if cfg, err := c.Config(s, 1); err == nil && cfg.Validate() == nil {
											out = append(out, c)
										}
									}
								}
							}
						}
					}
				}
			}
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].key() < out[j].key() })
	return out
}

func evenDepths(d [3]int) bool {
	return d[0]%2 == 0 && d[1]%2 == 0 && d[2]%2 == 0
}

// envelope is the hardware envelope priced jobs run against: core counts
// generous enough to never reject a candidate, a flop roofline high
// enough to never bind (the kernels are bandwidth-limited, paper §III.C),
// and — for the unfitted model, which has no coefficients to take them
// from — a nominal memory bandwidth and the sweep's wire constants.
func envelope() machine.Machine {
	return machine.Machine{
		Name:            "local",
		MemBWBytes:      8e9,
		PeakFlops:       1e15,
		TorusLinkBytes:  WireLinkBW,
		TorusLinks:      12,
		LinkLatency:     WireLatency,
		CoresPerNode:    256,
		ThreadsPerCore:  1,
		MemPerNodeBytes: 1 << 40,
	}
}

// job is the one translation from an execution config to the perfsim.Job
// that prices it; nil coeffs means the unfitted generic calibration.
// Ranks are either nodes (the sweep: every pair crosses the injected
// wire) or tasks of one node (the tuner's in-process fabric: halo hops
// are shared-memory copies at CopyBW, never the torus). A masked
// scenario's fluid weights and sparse rank profile are threaded through.
// The solver's per-axis depth is priced as the deepest decomposed axis's
// uniform depth — the known mis-pricing of ROADMAP 4(d), which lives here
// and nowhere else.
func (c Candidate) job(s *Scenario, coeffs *perfsim.Coeffs, steps int, ranksAreNodes bool) (perfsim.Job, error) {
	opt, err := core.ParseOptLevel(c.Opt)
	if err != nil {
		return perfsim.Job{}, err
	}
	stream, err := core.ParseStreamScheme(c.Stream)
	if err != nil {
		return perfsim.Job{}, err
	}
	maxDepth := 1
	for a := 0; a < 3; a++ {
		if c.Decomp[a] > 1 && c.Depth[a] > maxDepth {
			maxDepth = c.Depth[a]
		}
	}
	nodes, tasks := 1, c.Ranks
	if ranksAreNodes {
		nodes, tasks = c.Ranks, 1
	}
	fused := fusedSweep(opt, stream)
	bounded := s.Boundary.BoundedAxes()
	j := perfsim.Job{
		Machine: envelope(),
		Spec:    machine.SpecForQ(s.Model.Q),
		K:       s.Model.MaxSpeed,
		Nodes:   nodes, TasksPerNode: tasks, ThreadsPerTask: c.Threads,
		NX: s.N.NX, NY: s.N.NY, NZ: s.N.NZ,
		Decomp:  c.Decomp,
		Bounded: bounded,
		Steps:   steps,
		Depth:   maxDepth,
		Opt:     opt,
		Fused:   fused,
		Stream:  stream,
		Seed:    1,
		Coeffs:  coeffs,
	}
	if coeffs != nil {
		j.CellCost = coeffs.CellCost(c.Kernel, fused, stream)
	}
	if s.Solid != nil {
		if c.Balance == core.BalanceFluid.String() {
			for a := 0; a < 3; a++ {
				if c.Decomp[a] > 1 {
					j.Weights[a] = s.Solid.PlaneFluids(a)
				}
			}
		}
		if c.Sparse {
			dec, err := decomp.NewCartesianWeighted(
				[3]int{s.N.NX, s.N.NY, s.N.NZ}, c.Decomp, bounded, j.Weights)
			if err != nil {
				return perfsim.Job{}, err
			}
			j.RankFluids = perfsim.FluidCounts(dec, s.Solid)
		}
	}
	return j, nil
}

// fusedSweep reports whether a step is the two-field gather sweep, priced
// as perfsim's Job.Fused; AA's sweep is priced by its stream's own model.
func fusedSweep(opt core.OptLevel, stream core.StreamScheme) bool {
	return stream != core.StreamAA && (&core.Config{Opt: opt, Stream: stream}).GatherSweep()
}

// Price predicts a candidate's wall seconds on this host: ranks are
// tasks of one node, priced with the fitted coefficients, or with the
// unfitted generic calibration when coeffs is nil — the model a user
// without a fit file gets, and the bar a fit has to beat.
func Price(s *Scenario, c Candidate, coeffs *perfsim.Coeffs, steps, maxWorkers int) (float64, error) {
	j, err := c.job(s, coeffs, steps, false)
	if err != nil {
		return 0, err
	}
	if maxWorkers > j.Machine.CoresPerNode {
		j.Machine.CoresPerNode = maxWorkers
	}
	res, err := perfsim.Run(j)
	if err != nil {
		return 0, err
	}
	return res.Seconds, nil
}

// Measure runs a candidate for real and reports wall seconds and MFlup/s.
// Injectable so the tuner's confirm stage is deterministic under test.
type Measure func(cfg core.Config) (seconds, mflups float64, err error)

// RealMeasure executes the candidate with the real solver.
func RealMeasure(cfg core.Config) (float64, float64, error) {
	res, err := core.Run(cfg)
	if err != nil {
		return 0, 0, err
	}
	return res.WallTime.Seconds(), res.MFlups, nil
}

// Ranked is one candidate with its predicted (and, for the confirmed
// top-k, measured) performance.
type Ranked struct {
	Candidate        Candidate `json:"candidate"`
	PredictedSeconds float64   `json:"predicted_seconds"`
	MeasuredSeconds  float64   `json:"measured_seconds,omitempty"`
	MeasuredMFlups   float64   `json:"measured_mflups,omitempty"`
}

// Tuned is the runnable output of the auto-tuner: the winning candidate
// plus the provenance needed to trust (and cache-invalidate) it.
type Tuned struct {
	Schema  string          `json:"schema"`
	Key     string          `json:"key"`
	Machine obs.MachineInfo `json:"machine"`

	Scenario   string `json:"scenario"`
	Model      string `json:"model"`
	N          [3]int `json:"n"`
	MaskHash   string `json:"mask_hash,omitempty"`
	MaxWorkers int    `json:"max_workers"`

	Choice           Candidate `json:"choice"`
	PredictedSeconds float64   `json:"predicted_seconds"`
	MeasuredSeconds  float64   `json:"measured_seconds"`
	MeasuredMFlups   float64   `json:"measured_mflups"`
	BaselineSeconds  float64   `json:"baseline_seconds"`
	BaselineMFlups   float64   `json:"baseline_mflups"`

	// Candidates is the filtered space size the prediction ranked; TopK
	// the confirmed short-list in predicted order.
	Candidates int      `json:"candidates"`
	TopK       []Ranked `json:"top_k"`
}

// CacheKey derives the tuned config's identity: machine + scenario +
// collision operator + size + geometry + worker budget. A config is
// reused only on an exact match, so a changed operator, a changed mask or
// a different host forces a re-tune.
func CacheKey(s *Scenario, maxWorkers int) string {
	mi := obs.HostInfo()
	mask := ""
	if s.Solid != nil {
		mask = s.Solid.Hash()
	}
	id := fmt.Sprintf("%s|%s|%s|%dx%dx%d|%s|%d|%s/%s/%d",
		s.Name, s.Model.Name, s.Collision, s.N.NX, s.N.NY, s.N.NZ, mask, maxWorkers,
		mi.OS, mi.Arch, mi.CPUs)
	return fmt.Sprintf("%x", sha256.Sum256([]byte(id)))[:16]
}

// Options bounds one tuning run.
type Options struct {
	// Space is the candidate space; zero value takes DefaultSpace(MaxWorkers)
	// with the scenario's operator as its only kernel.
	Space Space
	// MaxWorkers is the worker budget (required if Space is zero).
	MaxWorkers int
	// TopK is how many predicted-best candidates get real confirmation
	// runs (default 3).
	TopK int
	// ConfirmSteps is the length of each confirmation run (default 16).
	ConfirmSteps int
	// Measure confirms candidates; nil means RealMeasure.
	Measure Measure
}

// Tune searches the candidate space for a scenario: price everything
// with the fitted model, confirm the predicted top-k (plus the default
// config, the baseline) with short real measurements, and return the
// measured winner as a runnable tuned config.
func Tune(s *Scenario, coeffs *perfsim.Coeffs, opt Options) (*Tuned, error) {
	if opt.TopK == 0 {
		opt.TopK = 3
	}
	if opt.ConfirmSteps == 0 {
		opt.ConfirmSteps = 16
	}
	if opt.Measure == nil {
		opt.Measure = RealMeasure
	}
	kernel := s.Collision.Kind.String()
	sp := opt.Space
	if sp.MaxWorkers == 0 {
		sp = DefaultSpace(opt.MaxWorkers)
		sp.Kernels = []string{kernel}
	}
	cands := Enumerate(s, sp)
	if len(cands) == 0 {
		return nil, fmt.Errorf("tune: empty candidate space for scenario %s", s.Name)
	}
	ranked := make([]Ranked, 0, len(cands))
	for _, c := range cands {
		secs, err := Price(s, c, coeffs, opt.ConfirmSteps, sp.MaxWorkers)
		if err != nil {
			// A candidate the pricing model rejects (e.g. fluid-balanced
			// cuts too thin for the halo) is simply not a candidate.
			continue
		}
		ranked = append(ranked, Ranked{Candidate: c, PredictedSeconds: secs})
	}
	if len(ranked) == 0 {
		return nil, fmt.Errorf("tune: no priceable candidates for scenario %s", s.Name)
	}
	sort.SliceStable(ranked, func(i, j int) bool {
		if ranked[i].PredictedSeconds != ranked[j].PredictedSeconds {
			return ranked[i].PredictedSeconds < ranked[j].PredictedSeconds
		}
		return ranked[i].Candidate.key() < ranked[j].Candidate.key()
	})
	k := opt.TopK
	if k > len(ranked) {
		k = len(ranked)
	}
	top := ranked[:k]

	// Confirm: short real runs of the short-list pick the winner, so a
	// model miss can cost at most the gap inside the top-k.
	for i := range top {
		cfg, err := top[i].Candidate.Config(s, opt.ConfirmSteps)
		if err != nil {
			return nil, err
		}
		secs, mflups, err := opt.Measure(cfg)
		if err != nil {
			return nil, fmt.Errorf("tune: confirm %s: %w", top[i].Candidate.key(), err)
		}
		top[i].MeasuredSeconds = secs
		top[i].MeasuredMFlups = mflups
	}
	win := 0
	for i := 1; i < len(top); i++ {
		if top[i].MeasuredSeconds < top[win].MeasuredSeconds {
			win = i
		}
	}
	base := DefaultCandidate()
	base.Kernel = kernel
	baseCfg, err := base.Config(s, opt.ConfirmSteps)
	if err != nil {
		return nil, err
	}
	baseSecs, baseMflups, err := opt.Measure(baseCfg)
	if err != nil {
		return nil, fmt.Errorf("tune: baseline: %w", err)
	}

	t := &Tuned{
		Schema:           TunedSchema,
		Key:              CacheKey(s, sp.MaxWorkers),
		Machine:          obs.HostInfo(),
		Scenario:         s.Name,
		Model:            s.Model.Name,
		N:                [3]int{s.N.NX, s.N.NY, s.N.NZ},
		MaxWorkers:       sp.MaxWorkers,
		Choice:           top[win].Candidate,
		PredictedSeconds: top[win].PredictedSeconds,
		MeasuredSeconds:  top[win].MeasuredSeconds,
		MeasuredMFlups:   top[win].MeasuredMFlups,
		BaselineSeconds:  baseSecs,
		BaselineMFlups:   baseMflups,
		Candidates:       len(ranked),
		TopK:             top,
	}
	if s.Solid != nil {
		t.MaskHash = s.Solid.Hash()
	}
	return t, nil
}

// WriteTuned serializes a tuned config as indented JSON.
func WriteTuned(w io.Writer, t *Tuned) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(t)
}

// SaveTuned writes a tuned config to a file.
func SaveTuned(path string, t *Tuned) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := WriteTuned(f, t); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// LoadTuned reads a tuned config from a file, checking the schema and
// that the choice is spelled in the vocabulary Apply understands.
func LoadTuned(path string) (*Tuned, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var t Tuned
	if err := json.Unmarshal(b, &t); err != nil {
		return nil, fmt.Errorf("tune: %s: %w", path, err)
	}
	if t.Schema != TunedSchema {
		return nil, fmt.Errorf("tune: %s: schema %q, want %q", path, t.Schema, TunedSchema)
	}
	if err := t.Choice.Apply(&core.Config{}); err != nil {
		return nil, fmt.Errorf("tune: %s: choice: %w", path, err)
	}
	return &t, nil
}

// LoadCached returns the tuned config at path if it exists and its cache
// key matches — i.e. it was tuned for exactly this scenario, geometry and
// machine. A missing file or a stale key returns (nil, nil): re-tune.
func LoadCached(path string, key string) (*Tuned, error) {
	t, err := LoadTuned(path)
	if os.IsNotExist(err) {
		return nil, nil
	}
	if err != nil {
		return nil, err
	}
	if t.Key != key {
		return nil, nil
	}
	return t, nil
}
