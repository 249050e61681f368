package sc_test

import (
	"context"
	"fmt"
	"testing"

	"dsmsim/internal/core"
	"dsmsim/internal/sim"
)

func runDC(t *testing.T, nodes, block int, script func(c *core.Ctx)) *core.Result {
	t.Helper()
	m, err := core.NewMachine(core.Config{
		Nodes: nodes, BlockSize: block, Protocol: core.DC, Limit: 50 * sim.Second,
	})
	if err != nil {
		t.Fatal(err)
	}
	res, err := runVerified(context.Background(), m, &scriptApp{heap: 64 * 1024, script: script})
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// TestDCDelaysInvalidationUntilSync: the defining behaviour — a reader's
// copy survives a remote write until the reader's next acquire.
func TestDCDelaysInvalidationUntilSync(t *testing.T) {
	runDC(t, 2, 64, func(c *core.Ctx) {
		if c.ID() == 0 {
			c.WriteI64(0, 1)
			c.Barrier()
			c.Compute(20 * sim.Millisecond)
			c.WriteI64(0, 2) // invalidation buffered at node 1
			c.Compute(40 * sim.Millisecond)
			c.Barrier()
		} else {
			c.Barrier()
			if v := c.ReadI64(0); v != 1 {
				panic(fmt.Sprintf("read = %d, want 1", v))
			}
			c.Compute(40 * sim.Millisecond)
			// Node 0 wrote 2 and our invalidation was acked long ago,
			// but we have not synchronized: the stale read is the
			// delayed-consistency contract.
			if v := c.ReadI64(0); v != 1 {
				panic(fmt.Sprintf("invalidation applied early: %d", v))
			}
			c.Lock(5)
			c.Unlock(5)
			if v := c.ReadI64(0); v != 2 {
				panic(fmt.Sprintf("post-sync read = %d, want 2", v))
			}
			c.Barrier()
		}
	})
}

// TestDCCorrectUnderLockDiscipline: race-free programs see exactly SC's
// results.
func TestDCCorrectUnderLockDiscipline(t *testing.T) {
	const nodes, iters = 4, 20
	res := runDC(t, nodes, 256, func(c *core.Ctx) {
		for i := 0; i < iters; i++ {
			c.Lock(0)
			c.WriteI64(0, c.ReadI64(0)+1)
			c.Unlock(0)
		}
		c.Barrier()
		if v := c.ReadI64(0); v != nodes*iters {
			panic(fmt.Sprintf("counter = %d, want %d", v, nodes*iters))
		}
		c.Barrier()
	})
	if res.Protocol != core.DC {
		t.Fatalf("protocol = %s", res.Protocol)
	}
}

// TestDCWriteAfterBufferedInvalGetsFreshData: a node holding a buffered
// invalidation that then WRITES the block must receive current data and
// must not destroy it at its next sync.
func TestDCWriteAfterBufferedInvalGetsFreshData(t *testing.T) {
	runDC(t, 2, 64, func(c *core.Ctx) {
		if c.ID() == 0 {
			c.WriteI64(0, 10)
			c.WriteI64(8, 11)
			c.Barrier()
			c.Compute(10 * sim.Millisecond)
			c.WriteI64(0, 20) // node 1's copy gets a buffered invalidation
			c.Barrier()
			c.Barrier()
		} else {
			_ = 0
			c.Barrier()
			_ = c.ReadI64(0) // take a copy
			c.Compute(20 * sim.Millisecond)
			c.Barrier()
			// Write the block: the fault must fetch fresh data (20, 11)
			// and cancel the buffered invalidation.
			c.WriteI64(8, 12)
			if v := c.ReadI64(0); v != 20 {
				panic(fmt.Sprintf("write upgrade got stale data: %d", v))
			}
			c.Lock(1)
			c.Unlock(1)
			// The sync must NOT wipe our fresh exclusive copy.
			if v := c.ReadI64(8); v != 12 {
				panic(fmt.Sprintf("sync destroyed fresh copy: %d", v))
			}
			c.Barrier()
		}
	})
}

// TestDCReducesPingPong: on a read-side false-sharing workload — one
// writer streaming into a block that the other nodes keep reading — DC
// takes far fewer faults than SC, because the readers' copies survive
// between synchronization points (the effect §5.4 says interrupts
// approximate). Write-write ping-pong is unchanged: exclusivity still
// serializes through the home.
func TestDCReducesPingPong(t *testing.T) {
	script := func(c *core.Ctx) {
		if c.ID() == 0 {
			for r := 0; r < 50; r++ {
				c.WriteI64(0, int64(r)) // single writer, race-free
				c.Compute(200 * sim.Microsecond)
			}
		} else {
			for r := 0; r < 50; r++ {
				_ = c.ReadI64(8) // same block, different word
				c.Compute(200 * sim.Microsecond)
			}
		}
		c.Barrier()
	}
	run := func(proto string) *core.Result {
		m, err := core.NewMachine(core.Config{
			Nodes: 4, BlockSize: 4096, Protocol: proto, Limit: 50 * sim.Second,
		})
		if err != nil {
			t.Fatal(err)
		}
		res, err := m.Run(context.Background(), &scriptApp{heap: 64 * 1024, script: script})
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	scRes := run(core.SC)
	dcRes := run(core.DC)
	scFaults := scRes.Total.ReadFaults + scRes.Total.WriteFaults
	dcFaults := dcRes.Total.ReadFaults + dcRes.Total.WriteFaults
	if dcFaults >= scFaults {
		t.Errorf("DC faults (%d) should be below SC faults (%d) under false sharing", dcFaults, scFaults)
	}
	if dcRes.Time >= scRes.Time {
		t.Errorf("DC time (%v) should beat SC time (%v) under false sharing", dcRes.Time, scRes.Time)
	}
}
