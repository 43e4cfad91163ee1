package tune

import (
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/collision"
	"repro/internal/core"
	"repro/internal/geom"
	"repro/internal/grid"
	"repro/internal/lattice"
)

func testScenario() *Scenario {
	return &Scenario{
		Name:  "test-cavity",
		Model: lattice.D3Q19(),
		N:     grid.Dims{NX: 32, NY: 16, NZ: 16},
		Tau:   0.8,
	}
}

func boundedScenario() *Scenario {
	return &Scenario{
		Name:     "test-bounded-cavity",
		Model:    lattice.D3Q19(),
		N:        grid.Dims{NX: 32, NY: 16, NZ: 16},
		Tau:      0.8,
		Boundary: core.CavitySpec(0.05),
	}
}

func maskedScenario(rad float64) *Scenario {
	d := grid.Dims{NX: 32, NY: 16, NZ: 16}
	return &Scenario{
		Name:  "test-bifurcation",
		Model: lattice.D3Q19(),
		N:     d,
		Tau:   0.8,
		Solid: geom.Bifurcation(d, rad),
	}
}

// fakeMeasure is a deterministic stand-in for real confirmation runs: it
// "measures" exactly what a fixed cost model says, so the whole Tune call
// becomes a pure function.
func fakeMeasure(cfg core.Config) (float64, float64, error) {
	secs := 1.0 / float64(cfg.Ranks*cfg.Threads)
	cells := float64(cfg.N.NX * cfg.N.NY * cfg.N.NZ)
	mflups := cells * float64(cfg.Steps) / secs / 1e6
	return secs, mflups, nil
}

func smallSpace() Space {
	return Space{
		MaxWorkers: 4,
		Ranks:      []int{1, 2},
		Threads:    []int{1, 2},
		Depths:     []int{1, 2},
		Opts:       []string{core.OptGCC.String(), core.OptSIMD.String()},
		Streams:    []string{core.StreamTwoGrid.String(), core.StreamAA.String()},
		Kernels:    []string{"bgk"},
	}
}

// TestEnumerateCounts pins the size of the candidate space per scenario,
// over the test space and over the two-worker default space the benchmark
// prices (its tune.candidates metric). The periodic numbers are what the
// hand-written filters produced before Enumerate was routed through
// core.Config.Validate: the rulebook moved, the space did not. The masked
// and bounded spaces grew once, by exactly the fused twin of every
// two-grid candidate, when the fused sweep learned walls and solids
// (240 → 416, 216 → 372; 60 → 104, 54 → 93 — the bounded scenario now
// has the periodic one's space), and shrank back by those twins when the
// gather sweep became the SIMD rung's step and stopped being a dimension.
func TestEnumerateCounts(t *testing.T) {
	for _, c := range []struct {
		s               *Scenario
		small, default2 int
	}{
		{testScenario(), 60, 54},
		{maskedScenario(3), 240, 216},
		{boundedScenario(), 60, 54},
	} {
		if got := len(Enumerate(c.s, smallSpace())); got != c.small {
			t.Errorf("%s: %d candidates over the test space, want %d", c.s.Name, got, c.small)
		}
		if got := len(Enumerate(c.s, DefaultSpace(2))); got != c.default2 {
			t.Errorf("%s: %d candidates over DefaultSpace(2), want %d", c.s.Name, got, c.default2)
		}
	}
}

// TestEnumerateRunnable: every enumerated candidate must materialize into
// a config the real solver runs — Enumerate filters through the solver's
// own Validate, so this holds by construction; the runs guard Validate
// itself against accepting what the stepper then rejects.
func TestEnumerateRunnable(t *testing.T) {
	for _, s := range []*Scenario{testScenario(), maskedScenario(3), boundedScenario()} {
		cands := Enumerate(s, smallSpace())
		if len(cands) == 0 {
			t.Fatalf("%s: empty enumeration", s.Name)
		}
		for _, c := range cands {
			cfg, err := c.Config(s, 2)
			if err != nil {
				t.Fatalf("%s: %s: %v", s.Name, c.key(), err)
			}
			if _, err := core.Run(cfg); err != nil {
				t.Errorf("%s: candidate rejected by solver: %s: %v", s.Name, c.key(), err)
			}
		}
	}
}

// TestEnumerateFilters spot-checks the constraint filters.
func TestEnumerateFilters(t *testing.T) {
	cands := Enumerate(testScenario(), smallSpace())
	for _, c := range cands {
		if c.Sparse || c.Balance != "" {
			t.Errorf("sparse/balanced candidate on unmasked scenario: %s", c.key())
		}
	}
	masked := Enumerate(maskedScenario(3), smallSpace())
	var sawSparse, sawBalance, sawFused bool
	for _, c := range masked {
		sawSparse = sawSparse || c.Sparse
		sawBalance = sawBalance || c.Balance != ""
		sawFused = sawFused || (c.Opt == core.OptSIMD.String() && c.Stream == core.StreamTwoGrid.String())
	}
	if !sawSparse || !sawBalance || !sawFused {
		t.Errorf("masked scenario should enumerate sparse, fluid-balanced and gather-sweep (SIMD) candidates")
	}
}

// TestTuneDeterministic pins the tuner's no-wall-clock contract: the same
// observations (here: a deterministic fake measure) and the same space
// produce a byte-identical tuned config.
func TestTuneDeterministic(t *testing.T) {
	s := testScenario()
	coeffs := truthCoeffs()
	opt := Options{Space: smallSpace(), Measure: fakeMeasure, ConfirmSteps: 2}
	a, err := Tune(s, coeffs, opt)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Tune(s, coeffs, opt)
	if err != nil {
		t.Fatal(err)
	}
	ja, _ := json.Marshal(a)
	jb, _ := json.Marshal(b)
	if string(ja) != string(jb) {
		t.Errorf("two tuning runs differ:\n%s\n%s", ja, jb)
	}
}

// TestTunedGoldenShape round-trips the tuned config through JSON and pins
// the schema fields the CLIs and the cache depend on.
func TestTunedGoldenShape(t *testing.T) {
	s := maskedScenario(3)
	tn, err := Tune(s, truthCoeffs(), Options{Space: smallSpace(), Measure: fakeMeasure, ConfirmSteps: 2})
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "tuned.json")
	if err := SaveTuned(path, tn); err != nil {
		t.Fatal(err)
	}
	back, err := LoadTuned(path)
	if err != nil {
		t.Fatal(err)
	}
	ja, _ := json.Marshal(tn)
	jb, _ := json.Marshal(back)
	if string(ja) != string(jb) {
		t.Errorf("tuned config did not round-trip:\n%s\n%s", ja, jb)
	}
	raw, _ := os.ReadFile(path)
	for _, field := range []string{
		`"schema": "lbm-tuned/v1"`, `"key"`, `"machine"`, `"scenario"`,
		`"model"`, `"n"`, `"mask_hash"`, `"max_workers"`, `"choice"`,
		`"predicted_seconds"`, `"measured_seconds"`, `"measured_mflups"`,
		`"baseline_seconds"`, `"baseline_mflups"`, `"candidates"`, `"top_k"`,
		`"ranks"`, `"decomp"`, `"threads"`, `"opt"`, `"depth"`, `"stream"`, `"kernel"`,
	} {
		if !strings.Contains(string(raw), field) {
			t.Errorf("tuned JSON missing %s", field)
		}
	}
	if tn.Key != CacheKey(s, smallSpace().MaxWorkers) {
		t.Errorf("tuned key %q != CacheKey %q", tn.Key, CacheKey(s, smallSpace().MaxWorkers))
	}
	if _, err := tn.Choice.Config(s, 100); err != nil {
		t.Errorf("winning choice does not materialize: %v", err)
	}
}

// TestStaleCacheKey: a tuned config cached for one geometry must not be
// reused for another — a changed mask changes the hash, the key, and
// forces a re-tune.
func TestStaleCacheKey(t *testing.T) {
	s := maskedScenario(3)
	tn, err := Tune(s, truthCoeffs(), Options{Space: smallSpace(), Measure: fakeMeasure, ConfirmSteps: 2})
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "tuned.json")
	if err := SaveTuned(path, tn); err != nil {
		t.Fatal(err)
	}

	hit, err := LoadCached(path, CacheKey(s, smallSpace().MaxWorkers))
	if err != nil || hit == nil {
		t.Fatalf("fresh cache should hit: %v %v", hit, err)
	}

	// Same scenario name and dims, different vessel radius: new mask hash.
	altered := maskedScenario(4)
	stale, err := LoadCached(path, CacheKey(altered, smallSpace().MaxWorkers))
	if err != nil {
		t.Fatal(err)
	}
	if stale != nil {
		t.Errorf("stale cache (different mask) must miss, got %+v", stale.Key)
	}

	// Missing file: miss, no error.
	none, err := LoadCached(filepath.Join(t.TempDir(), "absent.json"), tn.Key)
	if err != nil || none != nil {
		t.Errorf("missing cache file should be a silent miss, got %v %v", none, err)
	}
}

// TestTuneKeepsTheOperator: tuning a TRT scenario over the default space
// searches TRT only, every confirmation run keeps the scenario's Λ, and the
// winner applied to the run's own config leaves its operator as it was —
// `lbmrun -auto` must not swap a TRT run for BGK. A candidate of another
// kernel brings that operator's defaults, and the cache key tells the
// operators apart.
func TestTuneKeepsTheOperator(t *testing.T) {
	spec := collision.Spec{Kind: collision.TRT, Magic: 0.1}
	cfg := core.Config{
		Model: lattice.D3Q19(), N: grid.Dims{NX: 32, NY: 16, NZ: 16}, Tau: 0.8,
		Collision: spec, Boundary: core.CavitySpec(0.05),
	}
	s := NewScenario("test-trt-cavity", &cfg)
	measure := func(c core.Config) (float64, float64, error) {
		if c.Collision.Kind != spec.Kind || c.Collision.Magic != spec.Magic {
			t.Errorf("confirmation run with %s, want %s", c.Collision, spec)
		}
		return fakeMeasure(c)
	}
	tn, err := Tune(s, nil, Options{MaxWorkers: 2, Measure: measure})
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range tn.TopK {
		if r.Candidate.Kernel != "trt" {
			t.Errorf("default space searched kernel %q for a TRT scenario", r.Candidate.Kernel)
		}
	}
	if err := tn.Choice.Apply(&cfg); err != nil {
		t.Fatal(err)
	}
	if cfg.Collision.Kind != collision.TRT || cfg.Collision.Magic != 0.1 {
		t.Errorf("Apply left collision %s, want %s", cfg.Collision, spec)
	}
	bgk := tn.Choice
	bgk.Kernel = "bgk"
	if err := bgk.Apply(&cfg); err != nil {
		t.Fatal(err)
	}
	if !cfg.Collision.IsBGK() {
		t.Errorf("a bgk candidate left collision %s", cfg.Collision)
	}
	plain := *s
	plain.Collision = collision.Spec{Kind: collision.TRT}
	if CacheKey(s, 2) == CacheKey(&plain, 2) {
		t.Error("cache key ignores the TRT magic parameter")
	}
}

// TestMaskHashDiffers is the geometry half of the stale-key guarantee.
func TestMaskHashDiffers(t *testing.T) {
	d := grid.Dims{NX: 16, NY: 8, NZ: 8}
	a := geom.Bifurcation(d, 2.0).Hash()
	b := geom.Bifurcation(d, 2.5).Hash()
	if a == b {
		t.Errorf("different masks hash equal: %s", a)
	}
	if a != geom.Bifurcation(d, 2.0).Hash() {
		t.Errorf("mask hash not stable")
	}
}
