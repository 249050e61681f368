package sweep

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"reflect"
	"slices"
	"strings"
	"sync"
	"testing"

	"dsmsim/internal/apps"
	"dsmsim/internal/core"
	"dsmsim/internal/critpath"
	"dsmsim/internal/metrics"
	"dsmsim/internal/network"
	"dsmsim/internal/shareprof"
	"dsmsim/internal/sim"
)

// testSpec is a small-but-real slice of the evaluation matrix: 2 apps ×
// 2 protocols × 2 granularities, 4 nodes, with baselines.
func testSpec() Spec {
	return Spec{
		Apps:          []string{"lu", "fft"},
		Protocols:     []string{core.SC, core.HLRC},
		Granularities: []int{256, 4096},
		Notifies:      []network.Notify{network.Polling},
		Nodes:         4,
		Baselines:     true,
	}
}

func TestSpecPointsCanonicalOrder(t *testing.T) {
	pts := testSpec().Points()
	want := []Key{
		Seq("lu"),
		{App: "lu", Protocol: "sc", Block: 256, Notify: network.Polling, Nodes: 4},
		{App: "lu", Protocol: "sc", Block: 4096, Notify: network.Polling, Nodes: 4},
		{App: "lu", Protocol: "hlrc", Block: 256, Notify: network.Polling, Nodes: 4},
		{App: "lu", Protocol: "hlrc", Block: 4096, Notify: network.Polling, Nodes: 4},
		Seq("fft"),
		{App: "fft", Protocol: "sc", Block: 256, Notify: network.Polling, Nodes: 4},
		{App: "fft", Protocol: "sc", Block: 4096, Notify: network.Polling, Nodes: 4},
		{App: "fft", Protocol: "hlrc", Block: 256, Notify: network.Polling, Nodes: 4},
		{App: "fft", Protocol: "hlrc", Block: 4096, Notify: network.Polling, Nodes: 4},
	}
	if !reflect.DeepEqual(pts, want) {
		t.Fatalf("points = %v\nwant %v", pts, want)
	}
}

func TestDedupe(t *testing.T) {
	a := Key{App: "lu", Protocol: "sc", Block: 64, Nodes: 4}
	b := Key{App: "lu", Protocol: "sc", Block: 256, Nodes: 4}
	got := Dedupe([]Key{a, b, a, Seq("lu"), b, Seq("lu")})
	if want := []Key{a, b, Seq("lu")}; !reflect.DeepEqual(got, want) {
		t.Fatalf("dedupe = %v, want %v", got, want)
	}
}

// runSweep executes the test spec with the given worker count on a fresh
// engine and returns the progress output, CSV output and results.
func runSweep(t *testing.T, workers int) (progress, csv string, results []*core.Result) {
	t.Helper()
	var pb, cb bytes.Buffer
	e := New(Options{Size: apps.Small, Workers: workers, Verify: true, Progress: &pb, CSV: &cb, Histograms: true})
	res, err := e.Run(context.Background(), testSpec().Points())
	if err != nil {
		t.Fatal(err)
	}
	e.sink.Close()
	return pb.String(), cb.String(), res
}

// TestParallelByteIdenticalToSerial is the core determinism guarantee: a
// sweep at 8 workers produces byte-identical progress and CSV output, and
// identical per-run statistics, to the same sweep at 1 worker.
func TestParallelByteIdenticalToSerial(t *testing.T) {
	p1, c1, r1 := runSweep(t, 1)
	p8, c8, r8 := runSweep(t, 8)
	if p1 != p8 {
		t.Fatalf("progress output diverged:\n-- serial --\n%s\n-- parallel --\n%s", p1, p8)
	}
	if c1 != c8 {
		t.Fatalf("csv output diverged:\n-- serial --\n%s\n-- parallel --\n%s", c1, c8)
	}
	if len(r1) != len(r8) {
		t.Fatalf("result counts diverged: %d vs %d", len(r1), len(r8))
	}
	for i := range r1 {
		if r1[i].Time != r8[i].Time ||
			!reflect.DeepEqual(r1[i].Total, r8[i].Total) ||
			r1[i].NetMsgs != r8[i].NetMsgs || r1[i].NetBytes != r8[i].NetBytes {
			t.Fatalf("run %d stats diverged between serial and parallel", i)
		}
	}
	if p1 == "" || c1 == "" {
		t.Fatal("no output produced")
	}
}

// TestSamplerCSVParallelDeterminism extends the byte-identity guarantee to
// the metrics surfaces: with sampling and a live registry attached, the
// sampler CSV and the enriched progress lines from an 8-worker sweep are
// byte-identical to a 1-worker sweep, and the registry agrees on the counts.
func TestSamplerCSVParallelDeterminism(t *testing.T) {
	run := func(workers int) (progress, samples string, reg *metrics.Registry) {
		var pb, sb bytes.Buffer
		reg = metrics.NewRegistry()
		e := New(Options{Size: apps.Small, Workers: workers, Verify: true, Progress: &pb,
			Config: core.Config{SampleEvery: 200 * sim.Microsecond}, SampleCSV: &sb, Metrics: reg})
		if _, err := e.Run(context.Background(), testSpec().Points()); err != nil {
			t.Fatal(err)
		}
		e.sink.Close()
		return pb.String(), sb.String(), reg
	}
	p1, s1, _ := run(1)
	p8, s8, reg := run(8)
	if s1 != s8 {
		t.Fatalf("sampler CSV diverged between 1 and 8 workers:\n-- serial --\n%s\n-- parallel --\n%s", s1, s8)
	}
	if p1 != p8 {
		t.Fatalf("enriched progress diverged:\n-- serial --\n%s\n-- parallel --\n%s", p1, p8)
	}
	if s1 == "" {
		t.Fatal("no sampler CSV produced")
	}
	lines := strings.Split(strings.TrimRight(s1, "\n"), "\n")
	if !strings.HasPrefix(lines[0], "app,protocol,block,notify,nodes,t_ns,") {
		t.Fatalf("sample CSV header = %q", lines[0])
	}
	// 8 matrix points (baselines emit no samples), several rows each.
	if len(lines) < 9 {
		t.Fatalf("only %d sample CSV lines", len(lines))
	}
	// Enriched lines carry the emission counter and fault fields.
	if !strings.Contains(p1, "[   1] ") || !strings.Contains(p1, "rf=") {
		t.Fatalf("progress not in enriched format:\n%s", p1)
	}
	snap := reg.Snapshot()
	if snap.Total != 10 || snap.Completed != 10 || snap.Running != 0 {
		t.Fatalf("registry after sweep: %+v", snap)
	}
}

func TestRunOneMemoized(t *testing.T) {
	var pb bytes.Buffer
	e := New(Options{Size: apps.Small, Workers: 2, Verify: true, Progress: &pb})
	k := Key{App: "lu", Protocol: core.SC, Block: 1024, Notify: network.Polling, Nodes: 4}
	a, err := e.RunOne(context.Background(), k)
	if err != nil {
		t.Fatal(err)
	}
	b, err := e.RunOne(context.Background(), k)
	if err != nil {
		t.Fatal(err)
	}
	if a != b {
		t.Fatal("second RunOne did not hit the memo")
	}
	e.Flush()
	if n := bytes.Count(pb.Bytes(), []byte("run  ")); n != 1 {
		t.Fatalf("progress lines = %d, want 1 (cache hits stay silent)", n)
	}
}

func TestSweepThenCachedRunsStaySilent(t *testing.T) {
	var pb bytes.Buffer
	e := New(Options{Size: apps.Small, Workers: 4, Verify: true, Progress: &pb})
	pts := testSpec().Points()
	if _, err := e.Run(context.Background(), pts); err != nil {
		t.Fatal(err)
	}
	e.Flush()
	before := pb.String()
	// A second sweep over the same points is all cache hits: no new output.
	if _, err := e.Run(context.Background(), pts); err != nil {
		t.Fatal(err)
	}
	e.Flush()
	if pb.String() != before {
		t.Fatalf("cached sweep re-emitted output:\n%s", pb.String()[len(before):])
	}
}

func TestMemoSingleFlight(t *testing.T) {
	m := NewMemo[Key, *core.Result]()
	var computes int
	var mu sync.Mutex
	gate := make(chan struct{})
	const waiters = 8
	var wg sync.WaitGroup
	results := make([]*core.Result, waiters)
	for i := 0; i < waiters; i++ {
		i := i
		wg.Add(1)
		go func() {
			defer wg.Done()
			res, err, _ := m.Do(Seq("x"), func() (*core.Result, error) {
				mu.Lock()
				computes++
				mu.Unlock()
				<-gate
				return &core.Result{App: "x"}, nil
			})
			if err != nil {
				t.Error(err)
			}
			results[i] = res
		}()
	}
	close(gate)
	wg.Wait()
	if computes != 1 {
		t.Fatalf("computes = %d, want 1", computes)
	}
	for _, r := range results {
		if r != results[0] {
			t.Fatal("waiters got different results")
		}
	}
}

func TestMemoErrorNotCached(t *testing.T) {
	m := NewMemo[Key, *core.Result]()
	boom := errors.New("boom")
	if _, err, _ := m.Do(Seq("x"), func() (*core.Result, error) { return nil, boom }); !errors.Is(err, boom) {
		t.Fatalf("err = %v", err)
	}
	res, err, fresh := m.Do(Seq("x"), func() (*core.Result, error) { return &core.Result{App: "x"}, nil })
	if err != nil || res == nil || !fresh {
		t.Fatalf("failed computation was cached: res=%v err=%v fresh=%v", res, err, fresh)
	}
}

func TestSweepCancellation(t *testing.T) {
	e := New(Options{Size: apps.Small, Workers: 2, Verify: true})
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, err := e.Run(ctx, testSpec().Points())
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
}

func TestSweepUnknownAppFailsFast(t *testing.T) {
	e := New(Options{Size: apps.Small, Workers: 4, Verify: true})
	pts := []Key{Seq("nonesuch"), Seq("lu")}
	if _, err := e.Run(context.Background(), pts); err == nil {
		t.Fatal("unknown app accepted")
	}
}

func TestCSVSinkHeaderOnceConcurrent(t *testing.T) {
	var buf bytes.Buffer
	c := tables(Options{CSV: &safeWriter{w: &buf}})[0]
	res := &core.Result{App: "lu", Protocol: "sc", BlockSize: 64, Nodes: 4}
	var wg sync.WaitGroup
	for i := 0; i < 16; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			c.write(Key{}, res)
		}()
	}
	wg.Wait()
	if n := bytes.Count(buf.Bytes(), []byte("app,protocol")); n != 1 {
		t.Fatalf("headers = %d, want exactly 1:\n%s", n, buf.String())
	}
	if n := bytes.Count(buf.Bytes(), []byte("\n")); n != 17 {
		t.Fatalf("lines = %d, want 17 (header + 16 records)", n)
	}
}

type safeWriter struct {
	mu sync.Mutex
	w  *bytes.Buffer
}

func (s *safeWriter) Write(p []byte) (int, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.w.Write(p)
}

// TestCSVSinkAppendAware: every CSV schema, with and without the fault
// column, writes its header on a fresh append-mode file and suppresses
// it on a file that already holds records; a run without the schema's
// data writes nothing at all.
func TestCSVSinkAppendAware(t *testing.T) {
	res := &core.Result{App: "lu", Protocol: "sc", BlockSize: 64, Nodes: 4,
		Samples:  &metrics.Series{Samples: []metrics.Sample{{At: 100}}},
		Sharing:  &shareprof.Report{Total: shareprof.RegionStats{Name: "total"}},
		CritPath: &critpath.Report{},
	}
	bare := &core.Result{App: "lu", Protocol: "sc", BlockSize: 64, Nodes: 4}
	schemas := []struct {
		name string
		set  func(o *Options, w io.Writer)
		bare bool // a run without profiler data still gets a row
	}{
		{"runs", func(o *Options, w io.Writer) { o.CSV = w }, true},
		{"samples", func(o *Options, w io.Writer) { o.SampleCSV = w }, false},
		{"profile", func(o *Options, w io.Writer) { o.ProfCSV = w }, false},
		{"critpath", func(o *Options, w io.Writer) { o.CritCSV = w }, false},
	}
	for _, sc := range schemas {
		for _, fault := range []bool{false, true} {
			t.Run(fmt.Sprintf("%s/fault=%v", sc.name, fault), func(t *testing.T) {
				path := filepath.Join(t.TempDir(), "out.csv")
				k := Key{}
				var grid []FaultVariant
				if fault {
					k.Fault = "s1"
					grid = []FaultVariant{{Name: "s1"}}
				}
				// Two invocations, the CLIs' append-mode pattern: the
				// first writes the header, the second must not.
				var header string
				for i := 0; i < 2; i++ {
					f, err := os.OpenFile(path, os.O_APPEND|os.O_CREATE|os.O_WRONLY, 0o644)
					if err != nil {
						t.Fatal(err)
					}
					opts := Options{FaultGrid: grid}
					sc.set(&opts, f)
					tb := tables(opts)[0]
					header = tb.header
					tb.write(k, bare)
					tb.write(k, res)
					f.Close()
				}
				data, err := os.ReadFile(path)
				if err != nil {
					t.Fatal(err)
				}
				if !strings.HasPrefix(string(data), header+"\n") {
					t.Fatalf("file does not start with the header %q:\n%s", header, data)
				}
				if n := strings.Count(string(data), header); n != 1 {
					t.Fatalf("headers = %d, want 1 across two append invocations:\n%s", n, data)
				}
				if slices.Contains(strings.Split(header, ","), "fault") != fault {
					t.Fatalf("header %q: fault column present = %v, want %v", header, !fault, fault)
				}
				rows := 2 // res in each invocation
				if sc.bare {
					rows = 4
				}
				lines := strings.Split(strings.TrimSuffix(string(data), "\n"), "\n")
				if want := 1 + rows; len(lines) != want {
					t.Fatalf("lines = %d, want %d:\n%s", len(lines), want, data)
				}
				cols := strings.Count(header, ",")
				for _, l := range lines[1:] {
					if strings.Count(l, ",") != cols {
						t.Fatalf("row %q has %d columns, header %d", l, strings.Count(l, ",")+1, cols+1)
					}
					if fault && !strings.Contains(l, ",s1") {
						t.Fatalf("row %q lacks the fault variant", l)
					}
				}
			})
		}
	}
}

func TestSinkSerializesLogf(t *testing.T) {
	var buf bytes.Buffer
	s := NewSink(Options{Progress: &buf})
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		i := i
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 50; j++ {
				s.Logf("worker %d line %d", i, j)
			}
		}()
	}
	wg.Wait()
	s.Close()
	lines := bytes.Split(bytes.TrimSpace(buf.Bytes()), []byte("\n"))
	if len(lines) != 400 {
		t.Fatalf("lines = %d, want 400", len(lines))
	}
	for _, l := range lines {
		if !bytes.HasPrefix(l, []byte("worker ")) {
			t.Fatalf("interleaved line: %q", l)
		}
	}
}

func TestSinkEmitAfterClose(t *testing.T) {
	var buf bytes.Buffer
	s := NewSink(Options{Progress: &buf})
	s.Close()
	s.Logf("late") // must not panic; degrades to synchronous
	if !bytes.Contains(buf.Bytes(), []byte("late")) {
		t.Fatal("late emission lost")
	}
}

func TestKeyString(t *testing.T) {
	if got := Seq("lu").String(); got != "lu/seq" {
		t.Fatalf("seq key = %q", got)
	}
	k := Key{App: "lu", Protocol: "sc", Block: 64, Notify: network.Polling, Nodes: 16}
	if got := k.String(); got != fmt.Sprintf("lu/sc/64/%s/16p", network.Polling) {
		t.Fatalf("key = %q", got)
	}
}

// badApp completes a run but always fails verification, so a run's error
// shows whether the engine verified it.
type badApp struct{}

func (badApp) Info() core.AppInfo        { return core.AppInfo{Name: "bad", HeapBytes: 4096} }
func (badApp) Setup(h *core.Heap)        {}
func (badApp) Run(c *core.Ctx)           {}
func (badApp) Verify(h *core.Heap) error { return errors.New("wrong image") }
func badEntry(string) (apps.Entry, error) {
	return apps.Entry{Name: "bad", New: func(apps.SizeClass) core.App { return badApp{} }}, nil
}

// TestEngineVerifyHonoured: Options.Verify alone decides verification, at
// every size.
func TestEngineVerifyHonoured(t *testing.T) {
	for _, size := range []apps.SizeClass{apps.Small, apps.Paper} {
		for _, verify := range []bool{false, true} {
			e := New(Options{Size: size, Verify: verify})
			e.apps = badEntry
			_, err := e.RunOne(context.Background(), Key{App: "bad", Protocol: core.SC, Block: 64, Nodes: 2})
			if got := err != nil; got != verify {
				t.Errorf("size=%v verify=%v: err = %v", size, verify, err)
			}
		}
	}
}
