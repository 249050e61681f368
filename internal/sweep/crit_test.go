package sweep

import (
	"bytes"
	"context"
	"strconv"
	"strings"
	"testing"

	"dsmsim/internal/apps"
	"dsmsim/internal/core"
	"dsmsim/internal/critpath"
)

// runCritSweep executes the fault-grid spec with the critical-path
// profiler attached to every run and returns the main and crit CSVs.
func runCritSweep(t *testing.T, workers int, fork bool) (csv, crits string, eng *Engine) {
	t.Helper()
	var cb, xb bytes.Buffer
	grid := testGrid()
	eng = New(Options{
		Size: apps.Small, Workers: workers, Verify: true, CSV: &cb,
		Config: core.Config{CritPath: true}, CritCSV: &xb,
		FaultGrid: grid, Fork: fork,
	})
	if _, err := eng.Run(context.Background(), gridSpec(grid).Points()); err != nil {
		t.Fatal(err)
	}
	eng.sink.Close()
	return cb.String(), xb.String(), eng
}

// TestCritCSVDeterministicAndForkable: the per-run critical-path CSV is
// byte-identical across worker counts and between flat and forked sweeps
// — the profiler's chain state travels through checkpoints, so a forked
// run reports the same path as a flat one.
func TestCritCSVDeterministicAndForkable(t *testing.T) {
	cFlat, xFlat, _ := runCritSweep(t, 1, false)
	for _, tc := range []struct {
		workers int
		fork    bool
	}{{8, false}, {1, true}, {8, true}} {
		c, x, eng := runCritSweep(t, tc.workers, tc.fork)
		if c != cFlat {
			t.Fatalf("workers=%d fork=%v: main CSV diverged", tc.workers, tc.fork)
		}
		if x != xFlat {
			t.Fatalf("workers=%d fork=%v: crit CSV diverged:\n-- flat --\n%s\n-- this --\n%s",
				tc.workers, tc.fork, xFlat, x)
		}
		if tc.fork && len(eng.cps.m) == 0 {
			t.Fatalf("workers=%d: forked sweep computed no prefix checkpoints", tc.workers)
		}
	}

	wantHeader := "app,protocol,block,notify,nodes,fault," + critpath.CSVHeader
	lines := strings.Split(strings.TrimRight(xFlat, "\n"), "\n")
	if lines[0] != wantHeader {
		t.Fatalf("crit CSV header = %q, want %q", lines[0], wantHeader)
	}
	// One row per matrix point (sequential baselines have no path); every
	// row's path length is positive and equals the sum of its components.
	var matrix int
	for _, p := range gridSpec(testGrid()).Points() {
		if !p.Sequential {
			matrix++
		}
	}
	if len(lines)-1 != matrix {
		t.Fatalf("crit CSV rows = %d, want %d (one per matrix point)", len(lines)-1, matrix)
	}
	for _, ln := range lines[1:] {
		f := strings.Split(ln, ",")
		if len(f) != 6+2+int(critpath.NumComponents) {
			t.Fatalf("bad crit CSV row %q", ln)
		}
		total, err := strconv.ParseInt(f[6], 10, 64)
		if err != nil || total <= 0 {
			t.Fatalf("bad crit_total_ns in %q", ln)
		}
		var sum int64
		for _, c := range f[8:] {
			v, err := strconv.ParseInt(c, 10, 64)
			if err != nil {
				t.Fatalf("bad component in %q", ln)
			}
			sum += v
		}
		if sum != total {
			t.Fatalf("components sum %d != total %d in %q", sum, total, ln)
		}
	}
}
