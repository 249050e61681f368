package core

import (
	"context"
	"fmt"
	"testing"

	"dsmsim/internal/faults"
	"dsmsim/internal/sim"
)

// faultTestApp is a small barrier+lock workload that exercises both the
// protocol message traffic (shared counter under a lock) and a measurable
// compute phase (for straggler dilation).
func faultTestApp(nodes, iters int) (*testApp, *int) {
	addr := new(int)
	return &testApp{
		name: "faultprobe", heap: 8192,
		setup: func(h *Heap) {
			*addr = h.AllocI64s(1)
			h.I64s(*addr, 1)[0] = 0
		},
		run: func(c *Ctx) {
			for i := 0; i < iters; i++ {
				c.Lock(1)
				v := c.ReadI64(*addr)
				c.Compute(10 * sim.Microsecond)
				c.WriteI64(*addr, v+1)
				c.Unlock(1)
			}
			c.Barrier()
		},
		verify: func(h *Heap) error {
			if got := h.I64s(*addr, 1)[0]; got != int64(nodes*iters) {
				return fmt.Errorf("counter = %d, want %d", got, nodes*iters)
			}
			return nil
		},
	}, addr
}

// resultKey is the byte-identity fingerprint of one run.
type resultKey struct {
	time                                    sim.Time
	msgs, bytes                             int64
	readFaults, writeFaults                 int64
	retransmits, timeouts, drops, dups, ack int64
}

func keyOf(r *Result) resultKey {
	return resultKey{
		time: r.Time, msgs: r.NetMsgs, bytes: r.NetBytes,
		readFaults: r.Total.ReadFaults, writeFaults: r.Total.WriteFaults,
		retransmits: r.Retransmits, timeouts: r.Timeouts,
		drops: r.WireDrops, dups: r.Duplicates, ack: r.AcksSent,
	}
}

func runFaulty(t *testing.T, proto string, block int, plan *faults.Plan) *Result {
	t.Helper()
	app, _ := faultTestApp(4, 25)
	m, err := NewMachine(Config{
		Nodes: 4, BlockSize: block, Protocol: proto,
		Limit: 100 * sim.Second, Faults: plan,
	})
	if err != nil {
		t.Fatal(err)
	}
	res, err := runVerified(context.Background(), m, app)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// TestInactiveFaultPlanByteIdentical: a nil plan, an empty plan, a
// seed-only plan and a zero-probability plan must all produce the same run
// to the last counter — the fault machinery may not perturb anything until
// a rule can actually fire.
func TestInactiveFaultPlanByteIdentical(t *testing.T) {
	for _, proto := range Protocols {
		t.Run(proto, func(t *testing.T) {
			base := keyOf(runFaulty(t, proto, 64, nil))
			for name, plan := range map[string]*faults.Plan{
				"empty":     faults.NewPlan(),
				"seed-only": faults.NewPlan(faults.Seed(99)),
				"zero-drop": faults.NewPlan(faults.Drop(0)),
			} {
				got := keyOf(runFaulty(t, proto, 64, plan))
				if got != base {
					t.Errorf("%s plan diverged: %+v vs %+v", name, got, base)
				}
				if got.retransmits != 0 || got.ack != 0 {
					t.Errorf("%s plan produced ARQ traffic", name)
				}
			}
		})
	}
}

// TestDropCompletesVerifiesAndIsSeedStable: under real loss every protocol
// still completes and verifies, produces reliability traffic, and replays
// bit-identically from the same seed.
func TestDropCompletesVerifiesAndIsSeedStable(t *testing.T) {
	for _, proto := range Protocols {
		t.Run(proto, func(t *testing.T) {
			plan := func(seed uint64) *faults.Plan {
				return faults.NewPlan(faults.Drop(0.05), faults.Seed(seed))
			}
			a := runFaulty(t, proto, 64, plan(1))
			if a.WireDrops == 0 || a.Retransmits == 0 {
				t.Fatalf("5%% drop produced no reliability traffic: %+v", keyOf(a))
			}
			if a.RetransmitLatency.Count == 0 {
				t.Fatal("no retransmit-latency samples")
			}
			b := runFaulty(t, proto, 64, plan(1))
			if keyOf(a) != keyOf(b) {
				t.Fatalf("same seed diverged:\n%+v\n%+v", keyOf(a), keyOf(b))
			}
			c := runFaulty(t, proto, 64, plan(2))
			if keyOf(a) == keyOf(c) {
				t.Fatal("different seeds produced identical runs")
			}
		})
	}
}

// TestDuplicatesAndJitterVerify: duplication and heavy jitter (which
// reorders the wire) must be absorbed by the link layer under every
// protocol.
func TestDuplicatesAndJitterVerify(t *testing.T) {
	plan := faults.NewPlan(
		faults.Duplicate(0.05),
		faults.Jitter(30*sim.Microsecond),
		faults.Seed(5))
	for _, proto := range Protocols {
		res := runFaulty(t, proto, 64, plan)
		if res.Duplicates == 0 {
			t.Errorf("%s: no duplicates discarded", proto)
		}
	}
}

// TestPartitionHealsMidRun: a partition cutting the lock-home link in the
// middle of the run must delay but not deadlock the machine.
func TestPartitionHealsMidRun(t *testing.T) {
	healthy := runFaulty(t, SC, 64, nil)
	window := healthy.Time / 4
	res := runFaulty(t, SC, 64, faults.NewPlan(
		faults.Partition(0, 1, window, 2*window)))
	if res.Retransmits == 0 {
		t.Fatal("partition produced no retransmissions")
	}
	if res.Time <= healthy.Time {
		t.Fatalf("partitioned run (%v) not slower than healthy (%v)", res.Time, healthy.Time)
	}
}

// TestStragglerDilatesOneNode: a 3x straggler window covering the whole run
// slows the machine and shows up as extra compute on the straggling node
// only.
func TestStragglerDilatesOneNode(t *testing.T) {
	healthy := runFaulty(t, SC, 64, nil)
	res := runFaulty(t, SC, 64, faults.NewPlan(faults.Straggler(2, 3, 0, 0)))
	if res.Time <= healthy.Time {
		t.Fatalf("straggler run (%v) not slower than healthy (%v)", res.Time, healthy.Time)
	}
	if res.Retransmits != 0 || res.AcksSent != 0 {
		t.Fatal("straggler-only plan took the ARQ wire path")
	}
	slow, fast := res.PerNode[2].Compute, res.PerNode[1].Compute
	if slow < 2*fast {
		t.Fatalf("straggling node compute %v not ≈3x of healthy %v", slow, fast)
	}
}

// TestSequentialIgnoresFaults: the sequential baseline measures the healthy
// machine regardless of the plan.
func TestSequentialIgnoresFaults(t *testing.T) {
	app, _ := faultTestApp(1, 25)
	run := func(plan *faults.Plan) *Result {
		m, err := NewMachine(Config{Sequential: true, BlockSize: 64,
			Limit: 100 * sim.Second, Faults: plan})
		if err != nil {
			t.Fatal(err)
		}
		res, err := m.Run(context.Background(), app)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	base := run(nil)
	faulty := run(faults.NewPlan(faults.Drop(0.2), faults.Straggler(0, 4, 0, 0)))
	if base.Time != faulty.Time {
		t.Fatalf("sequential run changed under faults: %v vs %v", faulty.Time, base.Time)
	}
}

// TestCombinedFaultsAcrossGranularities: drops + dups + jitter + a straggler
// together, at both ends of the granularity range, for the full matrix.
func TestCombinedFaultsAcrossGranularities(t *testing.T) {
	plan := faults.NewPlan(
		faults.Drop(0.02), faults.Duplicate(0.02),
		faults.Jitter(10*sim.Microsecond),
		faults.Straggler(1, 1.5, 0, 0),
		faults.Seed(13))
	for _, proto := range Protocols {
		for _, block := range []int{64, 4096} {
			runFaulty(t, proto, block, plan) // runVerified fails the test on error
		}
	}
}
