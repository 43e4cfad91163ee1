package experiments

import (
	"bytes"
	"flag"
	"os"
	"path/filepath"
	"testing"
)

var update = flag.Bool("update", false, "rewrite the golden files")

// TestPaperScaleGolden pins the rendered bytes of every paper-scale
// experiment: perfsim is seeded, so a refactor of the experiment layer
// must print what it printed before (go test ./internal/experiments
// -run TestPaperScaleGolden -update regenerates the file after an
// intended change to a model or a table).
func TestPaperScaleGolden(t *testing.T) {
	runs := []struct{ name, machine string }{
		{"table1", ""}, {"table2", ""},
		{"fig8", "bgp"}, {"fig8", "bgq"},
		{"fig9", "bgp"}, {"fig9", "bgq"},
		{"fig10", ""}, {"table3", ""}, {"table4", ""},
		{"fig11", "bgp"}, {"fig11", "bgq"},
		{"decomp", "bgp"}, {"decomp", "bgq"},
	}
	var buf bytes.Buffer
	for _, r := range runs {
		tables, err := Generate(r.name, r.machine)
		if err != nil {
			t.Fatalf("Generate(%q, %q): %v", r.name, r.machine, err)
		}
		for _, tb := range tables {
			buf.WriteString(tb.Render())
			buf.WriteByte('\n')
		}
	}
	golden := filepath.Join("testdata", "paper_scale.golden")
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(golden, buf.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf.Bytes(), want) {
		t.Errorf("paper-scale tables changed.\n--- got ---\n%s--- want ---\n%s(run with -update to accept)", buf.String(), want)
	}
}
