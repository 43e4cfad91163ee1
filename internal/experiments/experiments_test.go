package experiments

import (
	"strconv"
	"strings"
	"testing"

	"repro/internal/collision"
	"repro/internal/core"
)

func TestTable1Shapes(t *testing.T) {
	ts := Table1()
	q19, q39 := ts[0], ts[1]
	if len(q19.Rows) != 3 {
		t.Errorf("D3Q19 has %d shells, want 3", len(q19.Rows))
	}
	if len(q39.Rows) != 6 {
		t.Errorf("D3Q39 has %d shells, want 6", len(q39.Rows))
	}
	var total int
	for _, r := range q39.Rows {
		n, err := strconv.Atoi(r[2])
		if err != nil {
			t.Fatalf("bad count %q", r[2])
		}
		total += n
	}
	if total != 39 {
		t.Errorf("D3Q39 shells cover %d velocities", total)
	}
}

func TestTable2Values(t *testing.T) {
	tb := Table2()
	if len(tb.Rows) != 4 {
		t.Fatalf("Table II has %d rows, want 4", len(tb.Rows))
	}
	for _, r := range tb.Rows {
		if r[6] != "bandwidth" {
			t.Errorf("%s %s limited by %s, want bandwidth", r[0], r[1], r[6])
		}
	}
	txt := tb.Render()
	for _, want := range []string{"29.8", "94.3", "14.5", "45.9"} {
		if !strings.Contains(txt, want) {
			t.Errorf("Table II output missing %q:\n%s", want, txt)
		}
	}
}

func TestSectionIIICBounds(t *testing.T) {
	tb := SectionIIICBounds()
	txt := tb.Render()
	for _, want := range []string{"11.2", "5.4", "70.2", "34.2"} {
		if !strings.Contains(txt, want) {
			t.Errorf("bounds output missing %q:\n%s", want, txt)
		}
	}
}

func TestFig8BothMachines(t *testing.T) {
	for _, m := range []string{"bgp", "bgq"} {
		tb, err := Fig8(m)
		if err != nil {
			t.Fatalf("%s: %v", m, err)
		}
		if len(tb.Rows) != 9 { // 8 levels + model peak
			t.Errorf("%s: %d rows, want 9", m, len(tb.Rows))
		}
		// MFlup/s must be non-decreasing down the ladder for both models.
		for col := 1; col <= 3; col += 2 {
			prev := 0.0
			for i := 0; i < 8; i++ {
				v, err := strconv.ParseFloat(tb.Rows[i][col], 64)
				if err != nil {
					t.Fatalf("%s row %d: %v", m, i, err)
				}
				if v < prev*0.98 {
					t.Errorf("%s: ladder not monotone at row %d col %d (%.0f < %.0f)", m, i, col, v, prev)
				}
				prev = v
			}
		}
	}
}

func TestFig9Structure(t *testing.T) {
	tb, err := Fig9("bgp")
	if err != nil {
		t.Fatal(err)
	}
	if len(tb.Rows) != 6 { // 2 models × 3 protocols
		t.Fatalf("%d rows, want 6", len(tb.Rows))
	}
	// Max comm time must shrink down the protocol ladder for each model.
	for _, base := range []int{0, 3} {
		var maxes [3]float64
		for i := 0; i < 3; i++ {
			v, err := strconv.ParseFloat(tb.Rows[base+i][4], 64)
			if err != nil {
				t.Fatal(err)
			}
			maxes[i] = v
		}
		if !(maxes[2] < maxes[1] && maxes[1] < maxes[0]) {
			t.Errorf("rows %d..%d: max comm %.2f -> %.2f -> %.2f did not shrink", base, base+2, maxes[0], maxes[1], maxes[2])
		}
	}
}

func TestFig10ShapesAndOOM(t *testing.T) {
	ts, err := Fig10()
	if err != nil {
		t.Fatal(err)
	}
	a, b := ts[0], ts[1]
	if len(a.Rows) != 5 {
		t.Fatalf("Fig10a rows = %d", len(a.Rows))
	}
	// Small sizes: deep halos hurt (ratio > 1); the largest size must
	// prefer depth >= 2.
	smallGC2, err := strconv.ParseFloat(a.Rows[0][2], 64)
	if err != nil {
		t.Fatal(err)
	}
	if smallGC2 <= 1 {
		t.Errorf("8k: GC=2 ratio %.3f, want > 1", smallGC2)
	}
	if best := a.Rows[4][5]; best == "GC=1" {
		t.Errorf("133k: best depth is GC=1, want deeper")
	}
	// The paper's OOM case: 133k with GC=4.
	if a.Rows[4][4] != "OOM" {
		t.Errorf("133k GC=4 = %q, want OOM", a.Rows[4][4])
	}
	if len(b.Rows) != 6 {
		t.Fatalf("Fig10b rows = %d", len(b.Rows))
	}
	if best := b.Rows[5][5]; best == "GC=1" {
		t.Errorf("200k: best depth is GC=1, want deeper")
	}
}

func TestTable3Shape(t *testing.T) {
	tb, err := Table3()
	if err != nil {
		t.Fatal(err)
	}
	// Smallest ratio must prefer depth 1; largest must prefer > 1.
	if tb.Rows[0][1] != "1" {
		t.Errorf("R=4 optimal depth %s, want 1", tb.Rows[0][1])
	}
	last := tb.Rows[len(tb.Rows)-1]
	if last[1] == "1" {
		t.Errorf("R=66 optimal depth 1, want deeper (paper: 2)")
	}
}

func TestTable4Shape(t *testing.T) {
	tb, err := Table4()
	if err != nil {
		t.Fatal(err)
	}
	if tb.Rows[0][1] != "1" {
		t.Errorf("R=64 optimal depth %s, want 1", tb.Rows[0][1])
	}
	last := tb.Rows[len(tb.Rows)-1]
	if last[1] == "1" {
		t.Errorf("R=800 optimal depth 1, want deeper (paper: 2 or 3)")
	}
}

func TestFig11BGP(t *testing.T) {
	tb, err := Fig11("bgp")
	if err != nil {
		t.Fatal(err)
	}
	if len(tb.Rows) != 5 {
		t.Fatalf("%d rows, want 5", len(tb.Rows))
	}
	get := func(row, col int) float64 {
		v, err := strconv.ParseFloat(tb.Rows[row][col], 64)
		if err != nil {
			t.Fatalf("row %d col %d: %v", row, col, err)
		}
		return v
	}
	// Threading must help: 4T beats 1T for both models.
	if !(get(3, 1) < get(0, 1) && get(3, 3) < get(0, 3)) {
		t.Error("4 threads did not beat 1 thread")
	}
	// The paper's key hybrid finding: for D3Q39, 4T beats VN.
	if !(get(3, 3) < get(4, 3)) {
		t.Errorf("D3Q39: 4T (%.2f) did not beat VN (%.2f)", get(3, 3), get(4, 3))
	}
}

func TestFig11BGQ(t *testing.T) {
	tb, err := Fig11("bgq")
	if err != nil {
		t.Fatal(err)
	}
	if len(tb.Rows) != 13 {
		t.Fatalf("%d rows, want 13", len(tb.Rows))
	}
	times := map[string]float64{}
	for _, r := range tb.Rows {
		v, err := strconv.ParseFloat(r[3], 64) // D3Q39 time
		if err != nil {
			t.Fatal(err)
		}
		times[r[0]] = v
	}
	// §VI.B: 4 tasks × 16 threads is the optimum for the higher-order model.
	for _, other := range []string{"64-1", "1-64", "16-1", "4-1"} {
		if times["4-16"] >= times[other] {
			t.Errorf("4-16 (%.2f) did not beat %s (%.2f)", times["4-16"], other, times[other])
		}
	}
}

// TestGenerateDispatch renders every listed paper-scale form on each of
// its machines, in the list's order (the order lbmbench's -exp help and
// -exp all show), and rejects what has no paper-scale form.
func TestGenerateDispatch(t *testing.T) {
	var names []string
	for _, e := range List() {
		names = append(names, e.Name)
		if got, ok := Lookup(e.Name); !ok || got.Name != e.Name {
			t.Errorf("Lookup(%q) = %q, %v", e.Name, got.Name, ok)
		}
		if e.Paper == nil {
			if _, err := Generate(e.Name, "bgp"); err == nil {
				t.Errorf("Generate(%q) accepted a -real-only experiment", e.Name)
			}
			continue
		}
		if e.Local || testing.Short() {
			// Local: the real kernels at laptop scale, which
			// TestCollisionTable runs. -short: TestPaperScaleGolden renders
			// every paper-scale form too.
			continue
		}
		machines := e.Machines
		if machines == nil {
			machines = []string{""}
		}
		for _, m := range machines {
			ts, err := Generate(e.Name, m)
			if err != nil || len(ts) == 0 {
				t.Errorf("Generate(%q, %q): %d tables, %v", e.Name, m, len(ts), err)
			}
		}
	}
	want := "table1 table2 fig8 fig9 fig10 table3 table4 fig11 decomp collision threads balance"
	if got := strings.Join(names, " "); got != want {
		t.Errorf("experiments %q, want %q", got, want)
	}
	if _, err := Generate("fig99", ""); err == nil {
		t.Error("unknown experiment accepted")
	}
	if _, err := Generate("fig8", "cray"); err == nil {
		t.Error("unknown machine accepted")
	}
}

func TestRenderAlignment(t *testing.T) {
	tb := &Table{
		Title:  "T",
		Header: []string{"a", "bb"},
		Rows:   [][]string{{"xxx", "y"}},
		Notes:  []string{"n"},
	}
	out := tb.Render()
	for _, want := range []string{"== T ==", "xxx", "note: n"} {
		if !strings.Contains(out, want) {
			t.Errorf("render missing %q:\n%s", want, out)
		}
	}
}

// newRun builds a D3Q19 BGK run description for the Real* tests, the
// flags named by given set on its command line.
func newRun(t *testing.T, ranks, threads, steps int, decompSpec, depthSpec string, stream core.StreamScheme, given ...string) Run {
	t.Helper()
	r, err := NewRun("D3Q19", ranks, threads, steps, decompSpec, depthSpec, collision.Spec{}, stream, given)
	if err != nil {
		t.Fatal(err)
	}
	return r
}

func TestRealFig8SmallRun(t *testing.T) {
	if testing.Short() {
		t.Skip("real-kernel experiment in -short mode")
	}
	tb, err := RealFig8(newRun(t, 2, 2, 3, "1d", "2,1,1", core.StreamTwoGrid))
	if err != nil {
		t.Fatal(err)
	}
	if len(tb.Rows) != 8 {
		t.Errorf("%d rows, want 8", len(tb.Rows))
	}
}

func TestRealFig11SmallRun(t *testing.T) {
	if testing.Short() {
		t.Skip("real-kernel experiment in -short mode")
	}
	tb, err := RealFig11(newRun(t, DefaultRanks, DefaultThreads, 3, "1d", "1", core.StreamTwoGrid))
	if err != nil {
		t.Fatal(err)
	}
	if len(tb.Rows) != 6 {
		t.Errorf("%d rows, want 6", len(tb.Rows))
	}
}

func TestRealFig9SmallRun(t *testing.T) {
	if testing.Short() {
		t.Skip("real-kernel experiment in -short mode")
	}
	tb, err := RealFig9(newRun(t, 2, 1, 4, "1d", "1", core.StreamTwoGrid))
	if err != nil {
		t.Fatal(err)
	}
	if len(tb.Rows) != 3 {
		t.Errorf("%d rows, want 3", len(tb.Rows))
	}
}

// The -stream flag threads through the real-kernel tables; one AA rung
// keeps that wiring exercised (depth 1 rounds up to 2 inside the run).
func TestRealFig9AASmallRun(t *testing.T) {
	if testing.Short() {
		t.Skip("real-kernel experiment in -short mode")
	}
	tb, err := RealFig9(newRun(t, 2, 1, 4, "1d", "1", core.StreamAA))
	if err != nil {
		t.Fatal(err)
	}
	if len(tb.Rows) != 3 {
		t.Errorf("%d rows, want 3", len(tb.Rows))
	}
}

func TestRealFig10SmallRun(t *testing.T) {
	if testing.Short() {
		t.Skip("real-kernel experiment in -short mode")
	}
	tb, err := RealFig10(newRun(t, 2, 2, 4, "2d", "1", core.StreamTwoGrid))
	if err != nil {
		t.Fatal(err)
	}
	if len(tb.Rows) != 3 {
		t.Errorf("%d rows, want 3", len(tb.Rows))
	}
	// Each row's GC=1 column is the normalization base.
	for _, r := range tb.Rows {
		if r[1] != "1.000" {
			t.Errorf("GC=1 column = %q, want 1.000", r[1])
		}
	}
}

func TestRealThreadsSmallRun(t *testing.T) {
	if testing.Short() {
		t.Skip("real-kernel experiment in -short mode")
	}
	tb, err := RealThreads(newRun(t, 1, 2, 2, "1d", "1", core.StreamTwoGrid))
	if err != nil {
		t.Fatal(err)
	}
	if len(tb.Rows) != 2 { // threads 1, 2
		t.Errorf("%d rows, want 2", len(tb.Rows))
	}
	// The operator column defaults to TRT when the spec is BGK.
	if !strings.Contains(tb.Header[4], "trt") {
		t.Errorf("operator column header %q, want trt", tb.Header[4])
	}
}

func TestThreadCounts(t *testing.T) {
	cases := []struct {
		max  int
		want []int
	}{
		{1, []int{1}},
		{2, []int{1, 2}},
		{3, []int{1, 2, 3}},
		{8, []int{1, 2, 4, 8}},
		{6, []int{1, 2, 4, 6}},
		{0, []int{1}},
	}
	for _, c := range cases {
		got := threadCounts(c.max)
		if len(got) != len(c.want) {
			t.Errorf("threadCounts(%d) = %v, want %v", c.max, got, c.want)
			continue
		}
		for i := range got {
			if got[i] != c.want[i] {
				t.Errorf("threadCounts(%d) = %v, want %v", c.max, got, c.want)
				break
			}
		}
	}
}

// The run description is where a -real flag is rejected: every Real*
// experiment takes one that NewRun built.
func TestRealExperimentsRejectBadModel(t *testing.T) {
	if _, err := NewRun("D2Q9", 1, 1, 1, "1d", "1", collision.Spec{}, core.StreamTwoGrid, nil); err == nil {
		t.Error("unknown model accepted")
	}
}

// TestRunConfig: every rung takes the description's shape, depth and
// stream, except Orig, which runs the paper's geometry; and the flags an
// experiment sweeps or fixes itself are rejected before anything runs,
// whatever value they were given.
func TestRunConfig(t *testing.T) {
	r := newRun(t, 4, 1, 1, "2x2x1", "2,1,1", core.StreamAA, "steps", "decomp", "depth", "stream")
	for _, opt := range core.Levels() {
		cfg, err := r.config(opt, r.Ranks, r.N)
		if err != nil {
			t.Fatal(err)
		}
		if opt == core.OptOrig {
			if cfg.Decomp != [3]int{4, 1, 1} || cfg.GhostDepth != 1 || cfg.GhostDepthAxes != ([3]int{}) || cfg.Stream != core.StreamTwoGrid {
				t.Errorf("Orig runs %v depth %d %v %s, want the paper's geometry", cfg.Decomp, cfg.GhostDepth, cfg.GhostDepthAxes, cfg.Stream)
			}
			if err := core.PaperGeometry(cfg.Decomp, [3]bool{}, cfg.Stream, cfg.Sparse); err != nil {
				t.Error(err)
			}
			continue
		}
		if cfg.Decomp != [3]int{2, 2, 1} || cfg.GhostDepthAxes != [3]int{2, 1, 1} || cfg.Stream != core.StreamAA {
			t.Errorf("%s runs %v depth %v %s, want 2x2x1 at 2,1,1 under AA", opt, cfg.Decomp, cfg.GhostDepthAxes, cfg.Stream)
		}
	}
	for name, f := range map[string]func(Run) (*Table, error){"fig10": RealFig10, "threads": RealThreads, "balance": RealBalance} {
		if _, err := f(r); err == nil || !strings.Contains(err.Error(), "drop -") {
			t.Errorf("%s with -depth 2,1,1 -stream aa: %v, want a drop -flag error", name, err)
		}
	}
	// fig11 runs 1, 2 and 4 ranks: a fixed shape fits at most one of them.
	if _, err := RealFig11(r); err == nil || !strings.Contains(err.Error(), "-decomp takes 1d, 2d or 3d") {
		t.Errorf("fig11 with -decomp 2x2x1: %v, want a -decomp error", err)
	}

	// Every flag an experiment sweeps or fixes itself is refused, one at a
	// time, before anything runs (the runs would take seconds each), given
	// away from its default or at it (lbmbench -exp fig11 -real -ranks 4,
	// -exp collision -real -steps 30), and a flag not given is not.
	away := map[string]func(*Run){
		"ranks":     func(r *Run) { r.Ranks = 2 },
		"threads":   func(r *Run) { r.Threads = 2 },
		"steps":     func(r *Run) { r.Steps = 2 },
		"decomp":    func(r *Run) { r.Decomp = "2d" },
		"depth":     func(r *Run) { r.Depth = 2 },
		"collision": func(r *Run) { r.Collision = collision.Spec{Kind: collision.TRT} },
		"stream":    func(r *Run) { r.Stream = core.StreamAA },
	}
	for _, c := range []struct {
		exp   string
		real  func(Run) (*Table, error)
		flags []string
	}{
		{"collision", RealCollision, []string{"ranks", "threads", "steps", "decomp", "depth", "collision", "stream"}},
		{"fig10", RealFig10, []string{"depth"}},
		{"fig11", RealFig11, []string{"ranks", "threads"}},
		{"threads", RealThreads, []string{"decomp", "depth", "stream"}},
		{"balance", RealBalance, []string{"decomp", "depth", "collision", "stream"}},
	} {
		for _, flag := range c.flags {
			for _, atDefault := range []bool{true, false} {
				r := newRun(t, DefaultRanks, DefaultThreads, DefaultSteps, DefaultDecomp, DefaultDepth, core.StreamTwoGrid, flag)
				if !atDefault {
					away[flag](&r)
				}
				want := c.exp + " "
				if _, err := c.real(r); err == nil || !strings.HasPrefix(err.Error(), want) || !strings.HasSuffix(err.Error(), "; drop -"+flag) {
					t.Errorf("%s -real -%s (at its default %v): %v, want a %q… drop -%s error", c.exp, flag, atDefault, err, want, flag)
				}
			}
		}
	}
	if r := newRun(t, DefaultRanks, DefaultThreads, DefaultSteps, DefaultDecomp, DefaultDepth, core.StreamTwoGrid); r.ignores("every", "flag", "ranks", "threads", "steps", "decomp", "depth", "collision", "stream") != nil {
		t.Error("a run description given no flag refuses one")
	}
}

func TestCollisionTable(t *testing.T) {
	if testing.Short() {
		t.Skip("real-kernel experiment in -short mode")
	}
	tb, err := CollisionTable("D3Q19")
	if err != nil {
		t.Fatal(err)
	}
	if len(tb.Rows) != 4 {
		t.Fatalf("%d rows, want 4", len(tb.Rows))
	}
	// The capability story: BGK diverges at tau=0.51, the split-rate
	// operators survive.
	if tb.Rows[0][0] != "bgk" || tb.Rows[0][3] != "DIVERGED" {
		t.Errorf("BGK row = %v, want a tau=0.51 divergence", tb.Rows[0])
	}
	for _, r := range tb.Rows[1:] {
		if r[3] != "stable" {
			t.Errorf("%s unstable at tau=0.51 (%v)", r[0], r)
		}
	}
	if _, err := CollisionTable("D2Q9"); err == nil {
		t.Error("unknown model accepted")
	}
}
