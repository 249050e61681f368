package sc_test

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

// scriptApp runs per-node scripts against a small shared heap.
type scriptApp struct {
	heap   int
	script func(c *core.Ctx)
	check  func(h *core.Heap) error
}

func (a *scriptApp) Info() core.AppInfo {
	return core.AppInfo{Name: "script", HeapBytes: a.heap}
}
func (a *scriptApp) Setup(h *core.Heap) { h.AllocPage(a.heap - 8192) }
func (a *scriptApp) Run(c *core.Ctx)    { a.script(c) }
func (a *scriptApp) Verify(h *core.Heap) error {
	if a.check != nil {
		return a.check(h)
	}
	return nil
}

func run(t *testing.T, nodes int, script func(c *core.Ctx)) *core.Result {
	t.Helper()
	m, err := core.NewMachine(core.Config{
		Nodes: nodes, BlockSize: 64, Protocol: core.SC, Limit: 50 * sim.Second,
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

// TestReadSharing: N readers of one block take one read fault each; no
// invalidations occur for read-only sharing.
func TestReadSharing(t *testing.T) {
	res := run(t, 4, func(c *core.Ctx) {
		if c.ID() == 0 {
			c.WriteF64(0, 42) // claim + initialize
		}
		c.Barrier()
		if got := c.ReadF64(0); got != 42 {
			panic(fmt.Sprintf("read %v", got))
		}
		c.Barrier()
	})
	// Node 0 claims (not counted); 3 remote readers fault once each.
	if res.Total.ReadFaults != 3 {
		t.Errorf("read faults = %d, want 3", res.Total.ReadFaults)
	}
	if res.Total.Invalidations != 0 {
		t.Errorf("invalidations = %d, want 0 for read sharing", res.Total.Invalidations)
	}
	if res.Total.WriteFaults != 0 {
		t.Errorf("write faults = %d, want 0", res.Total.WriteFaults)
	}
}

// TestWriteInvalidatesSharers: a write to a block with three read-only
// copies invalidates all of them (home collects the acks first).
func TestWriteInvalidatesSharers(t *testing.T) {
	res := run(t, 4, func(c *core.Ctx) {
		if c.ID() == 0 {
			c.WriteF64(0, 1)
		}
		c.Barrier()
		_ = c.ReadF64(0) // everyone gets a copy (node 0 already home)
		c.Barrier()
		if c.ID() == 1 {
			c.WriteF64(0, 2)
		}
		c.Barrier()
		if got := c.ReadF64(0); got != 2 {
			panic(fmt.Sprintf("stale read under SC: %v", got))
		}
		c.Barrier()
	})
	// Node 1's write must invalidate nodes 2 and 3's copies and downgrade
	// the home's; nodes 0, 2, 3 re-fault afterwards.
	if res.Total.Invalidations < 2 {
		t.Errorf("invalidations = %d, want ≥2", res.Total.Invalidations)
	}
	if res.Total.WriteFaults != 1 {
		t.Errorf("write faults = %d, want exactly 1", res.Total.WriteFaults)
	}
}

// TestSCIsImmediatelyCoherent is the semantic heart of SC: a write becomes
// visible to other processors without ANY synchronization — unlike the LRC
// protocols, whose tests assert the opposite.
func TestSCIsImmediatelyCoherent(t *testing.T) {
	run(t, 2, func(c *core.Ctx) {
		if c.ID() == 0 {
			c.WriteI64(0, 7)
			c.Compute(10 * sim.Millisecond)
			c.WriteI64(0, 8) // no release in between
			c.Compute(10 * sim.Millisecond)
		} else {
			c.Compute(5 * sim.Millisecond)
			if v := c.ReadI64(0); v != 7 {
				panic(fmt.Sprintf("expected 7, got %d", v))
			}
			c.Compute(10 * sim.Millisecond)
			// Re-read: the second write must be visible without locks —
			// the first write's copy was invalidated by node 0's second
			// write fault.
			if v := c.ReadI64(0); v != 8 {
				panic(fmt.Sprintf("SC stale read: got %d, want 8", v))
			}
		}
		c.Barrier()
	})
}

// TestExclusiveHandoffWriteback: when a block's exclusive copy moves, the
// data must travel through the home write-back path intact.
func TestExclusiveHandoffWriteback(t *testing.T) {
	run(t, 3, func(c *core.Ctx) {
		switch c.ID() {
		case 0:
			c.WriteF64(8, 3.5)
		case 1:
			c.Compute(5 * sim.Millisecond)
			c.WriteF64(16, 4.5) // same block (64B): write-back from node 0
			if got := c.ReadF64(8); got != 3.5 {
				panic(fmt.Sprintf("write-back lost data: %v", got))
			}
		case 2:
			c.Compute(15 * sim.Millisecond)
			if got := c.ReadF64(8) + c.ReadF64(16); got != 8.0 {
				panic(fmt.Sprintf("merged block wrong: %v", got))
			}
		}
		c.Barrier()
	})
}

// TestFirstTouchMigration: the first toucher becomes home; later
// requesters are forwarded by the static home exactly once, then cached.
func TestFirstTouchMigration(t *testing.T) {
	// Block 1's static home is node 1 (block % nodes); let node 0 touch
	// it first.
	res := run(t, 4, func(c *core.Ctx) {
		if c.ID() == 0 {
			c.WriteF64(64, 1.0) // block 1, static home = node 1
		}
		c.Barrier()
		_ = c.ReadF64(64)
		c.Barrier()
		_ = c.ReadF64(64) // second round: homes are cached, no forwards
		c.Barrier()
	})
	if res.Total.HomeMigrations == 0 {
		t.Error("no home migrations recorded")
	}
	if res.Total.Forwards == 0 {
		t.Error("expected at least one directory forward to the migrated home")
	}
}

// TestUpgradeFromSharedKeepsData: a sharer upgrading to exclusive receives
// no redundant data but keeps a coherent copy.
func TestUpgradeFromSharedKeepsData(t *testing.T) {
	run(t, 2, func(c *core.Ctx) {
		if c.ID() == 0 {
			c.WriteF64(0, 9)
		}
		c.Barrier()
		if c.ID() == 1 {
			if v := c.ReadF64(0); v != 9 {
				panic("bad read")
			}
			c.WriteF64(8, 10) // upgrade in the same block
			if v := c.ReadF64(0); v != 9 {
				panic("upgrade lost block contents")
			}
		}
		c.Barrier()
		if c.ReadF64(0) != 9 || c.ReadF64(8) != 10 {
			panic("final state wrong")
		}
		c.Barrier()
	})
}

// TestLocksCarryNoConsistencyPayload: SC synchronization involves no
// protocol activity (§2.1) — no write notices are exchanged.
func TestLocksCarryNoConsistencyPayload(t *testing.T) {
	res := run(t, 4, func(c *core.Ctx) {
		for i := 0; i < 5; i++ {
			c.Lock(3)
			c.WriteI64(0, c.ReadI64(0)+1)
			c.Unlock(3)
		}
		c.Barrier()
	})
	if res.Total.WriteNoticesSent != 0 || res.Total.WriteNoticesRecv != 0 {
		t.Errorf("SC exchanged write notices: sent=%d recv=%d",
			res.Total.WriteNoticesSent, res.Total.WriteNoticesRecv)
	}
}

// TestMessageCounts pins the exact wire cost of the basic transactions:
// a cold remote read is request + data (2 messages beyond the claim), a
// write to a shared block adds invalidation + ack.
func TestMessageCounts(t *testing.T) {
	base := func(script func(c *core.Ctx)) int64 {
		res := run(t, 2, script)
		return res.NetMsgs
	}
	// Claim only: node 0 touches one block (self-send), node 1 idle.
	claimOnly := base(func(c *core.Ctx) {
		if c.ID() == 0 {
			c.WriteF64(0, 1)
		}
		c.Barrier()
	})
	// Claim + one remote read.
	oneRead := base(func(c *core.Ctx) {
		if c.ID() == 0 {
			c.WriteF64(0, 1)
		}
		c.Barrier()
		if c.ID() == 1 {
			_ = c.ReadF64(0)
		}
		c.Barrier()
	})
	// The extra barrier costs 4 messages (2 nodes × arrive+release); the
	// read itself is request + data.
	if got := oneRead - claimOnly; got != 2+4 {
		t.Errorf("remote read delta = %d messages, want 6 (request + data + barrier)", got)
	}
	// Claim + read + invalidating write by the home.
	writeBack := base(func(c *core.Ctx) {
		if c.ID() == 0 {
			c.WriteF64(0, 1)
		}
		c.Barrier()
		if c.ID() == 1 {
			_ = c.ReadF64(0)
		}
		c.Barrier()
		if c.ID() == 0 {
			c.WriteF64(0, 2) // home upgrades: invalidate the one sharer
		}
		c.Barrier()
	})
	// Home's own upgrade: self request + invalidation + ack (the grant is
	// local), plus the extra barrier's 4.
	if got := writeBack - oneRead; got != 3+4 {
		t.Errorf("invalidating home write delta = %d messages, want 7", got)
	}
}
