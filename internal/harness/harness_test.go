package harness

import (
	"bytes"
	"context"
	"errors"
	"io"
	"math"
	"strconv"
	"strings"
	"testing"

	"dsmsim/internal/apps"
	"dsmsim/internal/core"
	"dsmsim/internal/network"
	"dsmsim/internal/sweep"
)

func testRunner(t *testing.T) (*Runner, *bytes.Buffer) {
	t.Helper()
	var out bytes.Buffer
	return New(Options{Options: sweep.Options{Size: apps.Small}, Nodes: 4, Out: &out}), &out
}

func TestHarmonicMean(t *testing.T) {
	if hm := harmonicMean([]float64{1, 1, 1}); hm != 1 {
		t.Fatalf("hm = %v", hm)
	}
	hm := harmonicMean([]float64{0.5, 1})
	if math.Abs(hm-2.0/3.0) > 1e-12 {
		t.Fatalf("hm = %v, want 2/3", hm)
	}
}

func TestSequentialCached(t *testing.T) {
	r, _ := testRunner(t)
	a, err := r.Sequential("lu")
	if err != nil {
		t.Fatal(err)
	}
	b, err := r.Sequential("lu")
	if err != nil {
		t.Fatal(err)
	}
	if a != b {
		t.Fatal("sequential time not cached/deterministic")
	}
}

func TestResultCached(t *testing.T) {
	r, _ := testRunner(t)
	a, err := r.Result("lu", "sc", 1024, network.Polling)
	if err != nil {
		t.Fatal(err)
	}
	b, err := r.Result("lu", "sc", 1024, network.Polling)
	if err != nil {
		t.Fatal(err)
	}
	if a != b {
		t.Fatal("result not cached")
	}
}

func TestSpeedupPositive(t *testing.T) {
	r, _ := testRunner(t)
	s, err := r.Speedup("lu", "hlrc", 4096, network.Polling)
	if err != nil {
		t.Fatal(err)
	}
	if s <= 0 {
		t.Fatalf("speedup = %v", s)
	}
}

func TestExperimentRegistry(t *testing.T) {
	exps := Experiments()
	if len(exps) != 30 {
		t.Fatalf("experiments = %d, want 30 (table1-17, fig1-2, 11 extensions)", len(exps))
	}
	if _, err := Get("fourway"); err != nil {
		t.Fatal(err)
	}
	if _, err := Get("sharing"); err != nil {
		t.Fatal(err)
	}
	if _, err := Get("critpath"); err != nil {
		t.Fatal(err)
	}
	if _, err := Get("fig1"); err != nil {
		t.Fatal(err)
	}
	if _, err := Get("degradation"); err != nil {
		t.Fatal(err)
	}
	if _, err := Get("nonesuch"); err == nil {
		t.Fatal("unknown experiment accepted")
	}
}

func TestTable1Small(t *testing.T) {
	r, out := testRunner(t)
	if err := r.Table1(); err != nil {
		t.Fatal(err)
	}
	s := out.String()
	for _, app := range apps.Originals() {
		if !strings.Contains(s, app) {
			t.Fatalf("table 1 missing %s:\n%s", app, s)
		}
	}
}

func TestFaultTableSmall(t *testing.T) {
	r, out := testRunner(t)
	if err := r.FaultTable("lu"); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "read") || !strings.Contains(out.String(), "write") {
		t.Fatalf("fault table malformed:\n%s", out.String())
	}
}

func TestFig2Small(t *testing.T) {
	r, out := testRunner(t)
	if err := r.Fig2(); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "interrupt") {
		t.Fatalf("fig2 malformed:\n%s", out.String())
	}
}

// TestTables16And17Small runs the heavyweight statistics end to end at
// Small size (this exercises every app × protocol × granularity).
func TestTables16And17Small(t *testing.T) {
	if testing.Short() {
		t.Skip("full cross product")
	}
	r, out := testRunner(t)
	if err := r.Table16(); err != nil {
		t.Fatal(err)
	}
	if err := r.Table17(); err != nil {
		t.Fatal(err)
	}
	s := out.String()
	if !strings.Contains(s, "Table 16") || !strings.Contains(s, "Table 17") || !strings.Contains(s, "p_best") {
		t.Fatalf("tables malformed:\n%s", s)
	}
	// Every numeric field must be a plausible relative efficiency.
	for _, f := range strings.Fields(s) {
		if v, err := strconv.ParseFloat(f, 64); err == nil && (v < 0 || v > 20) {
			t.Fatalf("implausible value %v in:\n%s", v, s)
		}
	}
}

func TestExtensionExperimentsSmall(t *testing.T) {
	if testing.Short() {
		t.Skip("extension sweep")
	}
	r, out := testRunner(t)
	for _, name := range []string{"memory", "scaling", "software", "delayed", "fourway", "bigblocks", "breakdown"} {
		e, err := Get(name)
		if err != nil {
			t.Fatal(err)
		}
		if err := e.Run(r); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
	}
	s := out.String()
	for _, want := range []string{"memory utilization", "cluster size", "All-software", "Four protocol families", "tlc"} {
		if !strings.Contains(s, want) {
			t.Fatalf("missing %q in:\n%s", want, s)
		}
	}
}

func TestDegradationTableSmall(t *testing.T) {
	render := func() string {
		r, out := testRunner(t)
		if err := r.DegradationTable(); err != nil {
			t.Fatal(err)
		}
		return out.String()
	}
	s := render()
	for _, want := range []string{"Degradation under link loss", "sc", "swlrc", "hlrc", "0.050"} {
		if !strings.Contains(s, want) {
			t.Fatalf("missing %q in:\n%s", want, s)
		}
	}
	// The lossless row is the 1.000x baseline; lossy rows must do ARQ work.
	if !strings.Contains(s, "1.000x") {
		t.Fatalf("no lossless baseline row:\n%s", s)
	}
	var sawRetx bool
	for _, line := range strings.Split(s, "\n") {
		f := strings.Fields(line)
		if len(f) == 7 && f[1] != "loss" && f[1] != "0.000" {
			if n, err := strconv.Atoi(f[4]); err == nil && n > 0 {
				sawRetx = true
			}
		}
	}
	if !sawRetx {
		t.Fatalf("no lossy row reports retransmissions:\n%s", s)
	}
	if again := render(); again != s {
		t.Fatal("degradation table not deterministic across runners")
	}
}

func TestFig1Table2Table15Small(t *testing.T) {
	if testing.Short() {
		t.Skip("full cross product")
	}
	r, out := testRunner(t)
	if err := r.Fig1(); err != nil {
		t.Fatal(err)
	}
	if err := r.Table2(); err != nil {
		t.Fatal(err)
	}
	if err := r.Table15(); err != nil {
		t.Fatal(err)
	}
	s := out.String()
	for _, want := range []string{"Figure 1", "Table 2", "Table 15", "barnes-original", "multiple"} {
		if !strings.Contains(s, want) {
			t.Fatalf("missing %q in output", want)
		}
	}
	// 12 apps × 3 protocols rows in fig1.
	if n := strings.Count(s, "hlrc"); n < 12 {
		t.Fatalf("fig1 hlrc rows = %d, want ≥12", n)
	}
}

// TestPrefetchParallelDeterminism checks the dsmbench pipeline end to end:
// prefetching an experiment's points at 8 workers and rendering must
// produce byte-identical table, progress and CSV output to 1 worker.
func TestPrefetchParallelDeterminism(t *testing.T) {
	render := func(parallel int) (table, progress, csv string) {
		var tb, pb, cb bytes.Buffer
		r := New(Options{Options: sweep.Options{Size: apps.Small, Progress: &pb, CSV: &cb, Workers: parallel}, Nodes: 4, Out: &tb})
		e, err := Get("table3") // lu fault table: 3 protocols × 4 granularities
		if err != nil {
			t.Fatal(err)
		}
		if err := r.Prefetch(context.Background(), PointsFor(r.opts, []Experiment{e})); err != nil {
			t.Fatal(err)
		}
		if err := e.Run(r); err != nil {
			t.Fatal(err)
		}
		r.Flush()
		return tb.String(), pb.String(), cb.String()
	}
	t1, p1, c1 := render(1)
	t8, p8, c8 := render(8)
	if t1 != t8 {
		t.Fatalf("table output diverged:\n-- serial --\n%s\n-- parallel --\n%s", t1, t8)
	}
	if p1 != p8 {
		t.Fatalf("progress output diverged:\n-- serial --\n%s\n-- parallel --\n%s", p1, p8)
	}
	if c1 != c8 {
		t.Fatalf("csv output diverged:\n-- serial --\n%s\n-- parallel --\n%s", c1, c8)
	}
	if t1 == "" || p1 == "" || c1 == "" {
		t.Fatal("missing output")
	}
}

// TestPointsForCoversExperiments checks that every experiment's declared
// point set actually satisfies its Run: after a prefetch, rendering must
// add no new run lines for matrix experiments.
func TestPointsForCoversExperiments(t *testing.T) {
	var pb bytes.Buffer
	r := New(Options{Options: sweep.Options{Size: apps.Small, Progress: &pb, Workers: 4}, Nodes: 4, Out: io.Discard})
	for _, name := range []string{"table1", "table15", "fig2"} {
		e, err := Get(name)
		if err != nil {
			t.Fatal(err)
		}
		if err := r.Prefetch(context.Background(), PointsFor(r.opts, []Experiment{e})); err != nil {
			t.Fatal(err)
		}
		r.Flush()
		before := pb.String()
		if err := e.Run(r); err != nil {
			t.Fatal(err)
		}
		r.Flush()
		if after := pb.String(); after != before {
			t.Fatalf("%s ran uncovered points after prefetch:\n%s", name, after[len(before):])
		}
	}
}

func TestLabelPaperVsSmall(t *testing.T) {
	small := New(Options{Options: sweep.Options{Size: apps.Small}, Nodes: 4, Out: io.Discard})
	paper := New(Options{Options: sweep.Options{Size: apps.Paper}, Nodes: 4, Out: io.Discard})
	if small.label("lu") == paper.label("lu") {
		t.Fatal("labels must differ by size class")
	}
	if small.label("nonesuch") != "?" {
		t.Fatal("unknown label")
	}
}

func TestCSVOutput(t *testing.T) {
	var csv bytes.Buffer
	r := New(Options{Options: sweep.Options{Size: apps.Small, CSV: &csv}, Nodes: 4, Out: io.Discard})
	if _, err := r.Result("lu", "hlrc", 4096, network.Polling); err != nil {
		t.Fatal(err)
	}
	if _, err := r.Result("lu", "sc", 64, network.Polling); err != nil {
		t.Fatal(err)
	}
	r.Flush()
	lines := strings.Split(strings.TrimSpace(csv.String()), "\n")
	if len(lines) != 3 {
		t.Fatalf("csv lines = %d, want header + 2 records:\n%s", len(lines), csv.String())
	}
	if !strings.HasPrefix(lines[0], "app,protocol,block") {
		t.Fatalf("bad header: %s", lines[0])
	}
	if !strings.HasPrefix(lines[1], "lu,hlrc,4096,polling,4,") {
		t.Fatalf("bad record: %s", lines[1])
	}
}

// badApp completes a run but always fails verification, so a run's error
// shows whether the runner verified it.
type badApp struct{}

func (badApp) Info() core.AppInfo        { return core.AppInfo{Name: "bad", HeapBytes: 4096} }
func (badApp) Setup(h *core.Heap)        {}
func (badApp) Run(c *core.Ctx)           {}
func (badApp) Verify(h *core.Heap) error { return errors.New("wrong image") }

// TestVerifyPolicy: the runner verifies when Options.Verify is set or the
// size is Small, resolved once in New for the sweep engine (which honours
// it exactly) and the out-of-matrix runs alike.
func TestVerifyPolicy(t *testing.T) {
	bad := apps.Entry{Name: "bad", New: func(apps.SizeClass) core.App { return badApp{} }}
	cfg := core.Config{Nodes: 2, BlockSize: 64, Protocol: core.SC}
	for _, size := range []apps.SizeClass{apps.Small, apps.Paper} {
		for _, verify := range []bool{false, true} {
			r := New(Options{Options: sweep.Options{Size: size, Verify: verify}, Out: io.Discard})
			want := verify || size == apps.Small
			if r.opts.Verify != want {
				t.Errorf("size=%v verify=%v: engine verify = %v, want %v", size, verify, r.opts.Verify, want)
			}
			if _, err := r.runConfig(cfg, bad); (err != nil) != want {
				t.Errorf("size=%v verify=%v: out-of-matrix run err = %v", size, verify, err)
			}
		}
	}
}
