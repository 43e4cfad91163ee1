package tune

import (
	"bytes"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"

	"repro/internal/core"
)

// corpusBytes returns the leading []byte argument of a committed
// seed-corpus entry (testdata/fuzz/<target>/<name>), so the named rejection cases
// below and the fuzzers' starting points are the same files.
func corpusBytes(t *testing.T, target, name string) []byte {
	t.Helper()
	raw, err := os.ReadFile(filepath.Join("testdata", "fuzz", target, name))
	if err != nil {
		t.Fatal(err)
	}
	lit := strings.Split(string(raw), "\n")[1] // after the "go test fuzz v1" header
	s, err := strconv.Unquote(strings.TrimSuffix(strings.TrimPrefix(lit, "[]byte("), ")"))
	if err != nil {
		t.Fatalf("%s/%s: %v", target, name, err)
	}
	return []byte(s)
}

// writeTemp puts data in a file under dir and returns its path.
func writeTemp(t *testing.T, dir string, data []byte) string {
	t.Helper()
	path := filepath.Join(dir, "hostile.json")
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

// TestLoadFitCorpus: each hostile lbm-fit file is rejected with an error
// naming the path and the field, and the file PR 20's `-exp fit` wrote
// (with anchored_mape, without points) still loads.
func TestLoadFitCorpus(t *testing.T) {
	for name, field := range map[string]string{
		"wrong-schema":    "schema",
		"truncated":       "unexpected end of JSON input",
		"negative-mem-bw": "mem_bw",
		"zero-saturation": "bw_saturation",
		"huge-latency":    "latency",
		"negative-kernel": "kernel_cost[trt]",
		"steps-a-string":  "steps",
		"empty":           "unexpected end of JSON input",
	} {
		path := writeTemp(t, t.TempDir(), corpusBytes(t, "FuzzLoadFit", name))
		_, err := LoadFit(path)
		if err == nil {
			t.Errorf("%s: accepted", name)
			continue
		}
		if !strings.Contains(err.Error(), path) || !strings.Contains(err.Error(), field) {
			t.Errorf("%s: error %q does not name the path and %q", name, err, field)
		}
	}
	for _, name := range []string{"pre-pr21", "current"} {
		r, err := LoadFit(writeTemp(t, t.TempDir(), corpusBytes(t, "FuzzLoadFit", name)))
		if err != nil {
			t.Errorf("%s: %v", name, err)
			continue
		}
		if r.Coeffs.MemBW <= 0 || r.FittedMAPE <= 0 {
			t.Errorf("%s: loaded mem_bw %g, fitted_mape %g", name, r.Coeffs.MemBW, r.FittedMAPE)
		}
	}
}

// TestLoadTunedCorpus: the same for lbm-tuned files and the -auto cache.
func TestLoadTunedCorpus(t *testing.T) {
	for name, field := range map[string]string{
		"wrong-schema":   "schema",
		"truncated":      "unexpected end of JSON input",
		"unknown-opt":    "choice",
		"unknown-stream": "choice",
		"depth-a-string": "depth",
	} {
		path := writeTemp(t, t.TempDir(), corpusBytes(t, "FuzzLoadTuned", name))
		_, err := LoadCached(path, "0123456789abcdef")
		if err == nil {
			t.Errorf("%s: accepted", name)
			continue
		}
		if !strings.Contains(err.Error(), path) || !strings.Contains(err.Error(), field) {
			t.Errorf("%s: error %q does not name the path and %q", name, err, field)
		}
	}
	path := writeTemp(t, t.TempDir(), corpusBytes(t, "FuzzLoadTuned", "current"))
	if hit, err := LoadCached(path, "0123456789abcdef"); err != nil || hit == nil {
		t.Errorf("matching key: %v, %v, want a hit", hit, err)
	}
	// An entry written while the gather sweep was a candidate dimension
	// carries "fused": the key is ignored — the SIMD rung steps with the
	// sweep anyway — and the entry is still a hit.
	old := writeTemp(t, t.TempDir(), corpusBytes(t, "FuzzLoadTuned", "fused-key"))
	if hit, err := LoadCached(old, "0123456789abcdef"); err != nil || hit == nil {
		t.Errorf("entry with a fused key: %v, %v, want a hit", hit, err)
	} else if hit.Choice.Opt != core.OptSIMD.String() {
		t.Errorf("entry with a fused key loaded opt %q, want SIMD", hit.Choice.Opt)
	}
	if hit, err := LoadCached(path, "fedcba9876543210"); err != nil || hit != nil {
		t.Errorf("stale key: %v, %v, want a silent miss (re-tune)", hit, err)
	}
}

// FuzzLoadFit: no file content panics the loader; a rejection names the
// path; whatever loads carries the schema and coefficients that pass
// Validate, so pricing with them cannot produce NaN with a nil error.
func FuzzLoadFit(f *testing.F) {
	dir := f.TempDir() // one per worker process; a worker runs one input at a time
	f.Fuzz(func(t *testing.T, data []byte) {
		path := writeTemp(t, dir, data)
		r, err := LoadFit(path)
		if err != nil {
			if !strings.Contains(err.Error(), path) {
				t.Fatalf("error %q does not name the path", err)
			}
			return
		}
		if r.Schema != FitSchema {
			t.Fatalf("loaded schema %q", r.Schema)
		}
		if err := r.Coeffs.Validate(); err != nil {
			t.Fatalf("loaded coefficients fail validation: %v", err)
		}
		if secs, err := Price(testScenario(), DefaultCandidate(), &r.Coeffs, 2, 1); err == nil && !(secs > 0) {
			t.Fatalf("validated coefficients price %g seconds", secs)
		}
	})
}

// FuzzLoadTuned: no file content panics the loader or the -auto cache
// lookup; a rejection names the path; a hit carries the schema, the key
// asked for and a choice that applies to a config; a different key is
// never a hit.
func FuzzLoadTuned(f *testing.F) {
	dir := f.TempDir()
	f.Fuzz(func(t *testing.T, data []byte, key string) {
		path := writeTemp(t, dir, data)
		tn, err := LoadTuned(path)
		hit, cerr := LoadCached(path, key)
		if (err == nil) != (cerr == nil) {
			t.Fatalf("LoadTuned error %v but LoadCached error %v", err, cerr)
		}
		if err != nil {
			if !strings.Contains(err.Error(), path) {
				t.Fatalf("error %q does not name the path", err)
			}
			return
		}
		if tn.Schema != TunedSchema {
			t.Fatalf("loaded schema %q", tn.Schema)
		}
		if (hit != nil) != (tn.Key == key) {
			t.Fatalf("file key %q, asked %q, hit %v", tn.Key, key, hit != nil)
		}
		var cfg core.Config
		if err := tn.Choice.Apply(&cfg); err != nil {
			t.Fatalf("loaded choice does not apply: %v", err)
		}
		var again bytes.Buffer
		if err := WriteTuned(&again, tn); err != nil {
			t.Fatalf("loaded config does not re-serialize: %v", err)
		}
	})
}
