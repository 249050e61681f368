package sweep

import (
	"bytes"
	"context"
	"strings"
	"testing"

	"dsmsim/internal/apps"
	"dsmsim/internal/core"
	"dsmsim/internal/faults"
	"dsmsim/internal/network"
)

// faultSpec is a lossy slice of the matrix: both granularity extremes under
// every protocol, all verified.
func faultSpec() Spec {
	return Spec{
		Apps:          []string{"lu"},
		Protocols:     core.Protocols,
		Granularities: []int{64, 4096},
		Notifies:      []network.Notify{network.Polling},
		Nodes:         4,
	}
}

// TestFaultSweepParallelDeterminism: the ISSUE's determinism criterion at
// the sweep layer — the same fault seed is byte-identical (progress, CSV,
// every reliability counter) at 1 worker and at 8.
func TestFaultSweepParallelDeterminism(t *testing.T) {
	run := func(workers int) (string, string, []*core.Result) {
		var pb, cb bytes.Buffer
		e := New(Options{
			Size: apps.Small, Workers: workers, Verify: true, Progress: &pb, CSV: &cb,
			Config: core.Config{Faults: faults.NewPlan(faults.Drop(0.01), faults.Seed(1))},
		})
		res, err := e.Run(context.Background(), faultSpec().Points())
		if err != nil {
			t.Fatal(err)
		}
		e.sink.Close()
		return pb.String(), cb.String(), res
	}
	p1, c1, r1 := run(1)
	p8, c8, r8 := run(8)
	if p1 != p8 {
		t.Fatalf("progress diverged:\n-- serial --\n%s\n-- parallel --\n%s", p1, p8)
	}
	if c1 != c8 {
		t.Fatalf("csv diverged:\n-- serial --\n%s\n-- parallel --\n%s", c1, c8)
	}
	var sawRetx bool
	for i := range r1 {
		if r1[i].Retransmits != r8[i].Retransmits || r1[i].WireDrops != r8[i].WireDrops ||
			r1[i].Duplicates != r8[i].Duplicates || r1[i].Time != r8[i].Time {
			t.Fatalf("run %d reliability counters diverged between 1 and 8 workers", i)
		}
		sawRetx = sawRetx || r1[i].Retransmits > 0
	}
	if !sawRetx {
		t.Fatal("1% drop across 6 verified runs produced no retransmission at all")
	}
	// The CSV schema carries the reliability columns.
	if !strings.Contains(c1, ",retransmits,wire_drops,dup_frames,") {
		t.Fatalf("csv header missing fault columns:\n%s", strings.SplitN(c1, "\n", 2)[0])
	}
}

// TestFaultSweepSkipsSequentialBaselines: baselines in a faulty sweep run
// on the healthy machine, so speedup denominators stay comparable.
func TestFaultSweepSkipsSequentialBaselines(t *testing.T) {
	var pb bytes.Buffer
	e := New(Options{Size: apps.Small, Workers: 1, Verify: true, Progress: &pb,
		Config: core.Config{Faults: faults.NewPlan(faults.Drop(0.3), faults.Seed(1))}})
	res, err := e.Run(context.Background(), []Key{Seq("lu")})
	if err != nil {
		t.Fatal(err)
	}
	e.sink.Close()
	if res[0].Retransmits != 0 || res[0].WireDrops != 0 {
		t.Fatalf("sequential baseline saw faults: %+v", res[0].Retransmits)
	}
}
