package synch_test

import (
	"context"
	"fmt"
	"testing"

	"dsmsim/internal/core"
	"dsmsim/internal/sim"
)

// runVerified runs app on m and checks its final image.
func runVerified(ctx context.Context, m *core.Machine, app core.App) (*core.Result, error) {
	res, err := m.Run(ctx, app)
	if err != nil {
		return nil, err
	}
	return res, core.Verify(app, res)
}

type scriptApp struct {
	script func(c *core.Ctx)
}

func (a *scriptApp) Info() core.AppInfo        { return core.AppInfo{Name: "sync-script", HeapBytes: 32768} }
func (a *scriptApp) Setup(h *core.Heap)        {}
func (a *scriptApp) Run(c *core.Ctx)           { a.script(c) }
func (a *scriptApp) Verify(h *core.Heap) error { return nil }

func run(t *testing.T, nodes int, protocol string, script func(c *core.Ctx)) *core.Result {
	t.Helper()
	m, err := core.NewMachine(core.Config{
		Nodes: nodes, BlockSize: 1024, Protocol: protocol, Limit: 60 * sim.Second,
	})
	if err != nil {
		t.Fatal(err)
	}
	res, err := runVerified(context.Background(), m, &scriptApp{script: script})
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// TestMutualExclusion: overlapping critical sections must never be
// observed, under every protocol.
func TestMutualExclusion(t *testing.T) {
	for _, p := range core.Protocols {
		p := p
		t.Run(p, func(t *testing.T) {
			inside := 0
			var violation bool
			run(t, 8, p, func(c *core.Ctx) {
				for i := 0; i < 10; i++ {
					c.Lock(7)
					inside++
					if inside != 1 {
						violation = true
					}
					c.Compute(50 * sim.Microsecond)
					inside--
					c.Unlock(7)
					c.Compute(10 * sim.Microsecond)
				}
			})
			if violation {
				t.Fatal("two nodes were inside the critical section at once")
			}
		})
	}
}

// TestLockFairnessFIFO: the manager grants queued waiters in arrival
// order — no starvation.
func TestLockFairnessFIFO(t *testing.T) {
	var order []int
	run(t, 4, core.SC, func(c *core.Ctx) {
		// Stagger arrivals so the queue order is deterministic.
		c.Compute(sim.Time(c.ID()) * 100 * sim.Microsecond)
		c.Lock(1)
		order = append(order, c.ID())
		c.Compute(2 * sim.Millisecond) // force the others to queue
		c.Unlock(1)
	})
	if len(order) != 4 {
		t.Fatalf("grants = %v", order)
	}
	for i, id := range order {
		if id != i {
			t.Fatalf("grant order = %v, want FIFO by arrival", order)
		}
	}
}

// TestBarrierBlocksUntilAll: nobody passes the barrier before the last
// arrival.
func TestBarrierBlocksUntilAll(t *testing.T) {
	arrive := make([]sim.Time, 4)
	depart := make([]sim.Time, 4)
	run(t, 4, core.HLRC, func(c *core.Ctx) {
		c.Compute(sim.Time(c.ID()+1) * 3 * sim.Millisecond)
		arrive[c.ID()] = c.Now()
		c.Barrier()
		depart[c.ID()] = c.Now()
	})
	last := arrive[3]
	for i, d := range depart {
		if d < last {
			t.Fatalf("node %d departed at %v before last arrival %v", i, d, last)
		}
	}
}

// TestBarrierReusable: the same barrier works across many phases with no
// cross-phase leakage.
func TestBarrierReusable(t *testing.T) {
	const phases = 8
	counts := make([]int, phases)
	run(t, 4, core.SWLRC, func(c *core.Ctx) {
		for ph := 0; ph < phases; ph++ {
			counts[ph]++
			c.Barrier()
			if counts[ph] != 4 {
				panic(fmt.Sprintf("phase %d: %d arrivals visible after barrier", ph, counts[ph]))
			}
			c.Barrier()
		}
	})
}

// TestManyLocksIndependent: distinct locks do not serialize each other.
func TestManyLocksIndependent(t *testing.T) {
	res := run(t, 4, core.SC, func(c *core.Ctx) {
		// Each node uses its own lock: all critical sections overlap.
		c.Lock(100 + c.ID())
		c.Compute(10 * sim.Millisecond)
		c.Unlock(100 + c.ID())
		c.Barrier()
	})
	// If the locks serialized, the run would take ≥40ms of lock time.
	if res.Time > 15*sim.Millisecond {
		t.Fatalf("independent locks serialized: run took %v", res.Time)
	}
}

// TestLockStallAccounting: lock stall time is attributed to waiters.
func TestLockStallAccounting(t *testing.T) {
	res := run(t, 2, core.SC, func(c *core.Ctx) {
		if c.ID() == 0 {
			c.Lock(0)
			c.Compute(20 * sim.Millisecond)
			c.Unlock(0)
		} else {
			c.Compute(1 * sim.Millisecond) // arrive second
			c.Lock(0)
			c.Unlock(0)
		}
		c.Barrier()
	})
	if res.Total.LockStall < 15*sim.Millisecond {
		t.Fatalf("lock stall = %v, want ≈19ms (waiter blocked)", res.Total.LockStall)
	}
	if res.Total.LockAcquires != 2 {
		t.Fatalf("lock acquires = %d", res.Total.LockAcquires)
	}
}

// TestBarrierWindowsDeliverEveryNotice: when every node writes a block no
// one else writes that round (rotating, so every write faults and
// publishes a notice) before each barrier, each notice reaches every other
// node exactly once through the release windows, under both LRC
// protocols. Every window is checked against the log when it is sent, so
// this run also exercises the send-time invariant the receivers rely on.
func TestBarrierWindowsDeliverEveryNotice(t *testing.T) {
	const nodes, rounds = 8, 6
	for _, p := range []string{core.SWLRC, core.HLRC} {
		t.Run(p, func(t *testing.T) {
			res := run(t, nodes, p, func(c *core.Ctx) {
				for r := 0; r < rounds; r++ {
					c.WriteI64((c.ID()+r)%nodes*1024, int64(r))
					c.Barrier()
				}
			})
			sent, recv := res.Total.WriteNoticesSent, res.Total.WriteNoticesRecv
			if sent != nodes*rounds || recv != (nodes-1)*sent {
				t.Fatalf("notices sent/received = %d/%d, want %d/%d", sent, recv, nodes*rounds, (nodes-1)*nodes*rounds)
			}
		})
	}
}
