package dsmsim_test

import (
	"bytes"
	"context"
	"errors"
	"reflect"
	"testing"

	"dsmsim"
)

func smallSpec() dsmsim.SweepSpec {
	return dsmsim.SweepSpec{
		Apps:          []string{"lu", "raytrace"},
		Protocols:     []string{dsmsim.SC, dsmsim.HLRC},
		Granularities: []int{256, 4096},
		Nodes:         4,
		Size:          dsmsim.Small,
	}
}

// TestSweepParallelDeterminism is the public-API determinism guarantee:
// -parallel=8 produces byte-identical CSV output and identical per-run
// Result statistics to -parallel=1.
func TestSweepParallelDeterminism(t *testing.T) {
	run := func(workers int) (string, *dsmsim.SweepResult) {
		var csv bytes.Buffer
		res, err := dsmsim.Sweep(context.Background(), smallSpec(),
			dsmsim.WithParallelism(workers), dsmsim.WithCSV(&csv))
		if err != nil {
			t.Fatal(err)
		}
		return csv.String(), res
	}
	csv1, res1 := run(1)
	csv8, res8 := run(8)
	if csv1 != csv8 {
		t.Fatalf("csv diverged:\n-- serial --\n%s-- parallel --\n%s", csv1, csv8)
	}
	if csv1 == "" {
		t.Fatal("no csv produced")
	}
	if len(res1.Runs) != len(res8.Runs) {
		t.Fatalf("run counts diverged: %d vs %d", len(res1.Runs), len(res8.Runs))
	}
	for i := range res1.Runs {
		a, b := res1.Runs[i], res8.Runs[i]
		if a.Point != b.Point {
			t.Fatalf("run %d point order diverged: %v vs %v", i, a.Point, b.Point)
		}
		if a.Result.Time != b.Result.Time || !reflect.DeepEqual(a.Result.Total, b.Result.Total) {
			t.Fatalf("run %d stats diverged between parallel levels", i)
		}
	}
}

func TestSweepSpeedupsAndLookup(t *testing.T) {
	res, err := dsmsim.Sweep(context.Background(), smallSpec(), dsmsim.WithParallelism(4))
	if err != nil {
		t.Fatal(err)
	}
	// 2 apps × (1 baseline + 2 protocols × 2 granularities).
	if len(res.Runs) != 10 {
		t.Fatalf("runs = %d, want 10", len(res.Runs))
	}
	if res.Baseline("lu") == 0 || res.Baseline("raytrace") == 0 {
		t.Fatal("missing sequential baselines")
	}
	r := res.Get("lu", dsmsim.HLRC, 4096, dsmsim.Polling)
	if r == nil {
		t.Fatal("Get failed to find a swept configuration")
	}
	for _, run := range res.Runs {
		if run.Point.Sequential {
			continue
		}
		if s := res.Speedup(run); s <= 0 {
			t.Fatalf("speedup for %v = %v", run.Point, s)
		}
	}
	if res.Get("lu", dsmsim.SWLRC, 4096, dsmsim.Polling) != nil {
		t.Fatal("Get invented a configuration outside the spec")
	}
}

func TestSweepDefaultsToFullMatrix(t *testing.T) {
	if testing.Short() {
		t.Skip("full 12-app matrix")
	}
	res, err := dsmsim.Sweep(context.Background(), dsmsim.SweepSpec{
		Granularities: []int{4096}, // trim one axis to keep the test quick
		Nodes:         4,
	})
	if err != nil {
		t.Fatal(err)
	}
	// 12 apps × (baseline + 3 protocols × 1 granularity).
	if want := 12 * 4; len(res.Runs) != want {
		t.Fatalf("runs = %d, want %d", len(res.Runs), want)
	}
}

func TestSweepCancelled(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := dsmsim.Sweep(ctx, smallSpec()); !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
}

func TestMachineRunContext(t *testing.T) {
	m, err := dsmsim.NewMachine(dsmsim.Config{Nodes: 4, BlockSize: 1024, Protocol: dsmsim.HLRC})
	if err != nil {
		t.Fatal(err)
	}
	app, err := dsmsim.NewApp("lu", dsmsim.Small)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	res, err := m.Run(ctx, app)
	if err != nil {
		t.Fatal(err)
	}
	if res.Time <= 0 {
		t.Fatalf("time = %v", res.Time)
	}
	// The re-exported histogram/stat types name the result's fields.
	var h dsmsim.Histogram = res.MsgLatency
	var n dsmsim.NodeStats = res.Total
	if h.Summary() == "" || n.ReadFaults < 0 {
		t.Fatal("re-exported stats unusable")
	}
}
