package swlrc_test

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
	heap   int
	script func(c *core.Ctx)
}

func (a *scriptApp) Info() core.AppInfo        { return core.AppInfo{Name: "script", HeapBytes: a.heap} }
func (a *scriptApp) Setup(h *core.Heap)        { h.AllocPage(a.heap - 8192) }
func (a *scriptApp) Run(c *core.Ctx)           { a.script(c) }
func (a *scriptApp) Verify(h *core.Heap) error { return nil }

func run(t *testing.T, nodes, block int, script func(c *core.Ctx)) *core.Result {
	t.Helper()
	m, err := core.NewMachine(core.Config{
		Nodes: nodes, BlockSize: block, Protocol: core.SWLRC, Limit: 50 * sim.Second,
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

// TestWritersDoNotInvalidateReaders is SW-LRC's defining relaxation
// (§2.2): a write fault migrates ownership but read-only copies survive
// until the reader's next acquire.
func TestWritersDoNotInvalidateReaders(t *testing.T) {
	res := run(t, 2, 4096, func(c *core.Ctx) {
		if c.ID() == 0 {
			c.Lock(0)
			c.WriteI64(0, 1)
			c.Unlock(0)
			c.Barrier()
			c.Compute(30 * sim.Millisecond)
			c.Lock(0)
			c.WriteI64(0, 2) // readers keep their copies
			c.Unlock(0)
			c.Compute(60 * sim.Millisecond)
			c.Barrier()
		} else {
			c.Barrier()
			if v := c.ReadI64(0); v != 1 {
				panic(fmt.Sprintf("first read = %d, want 1", v))
			}
			c.Compute(60 * sim.Millisecond)
			// Node 0 wrote 2 long ago; our read-only copy must still be
			// readable (and may legally show the old value).
			if v := c.ReadI64(0); v != 1 {
				panic(fmt.Sprintf("reader invalidated without acquire: %d", v))
			}
			c.Lock(0)
			c.Unlock(0)
			if v := c.ReadI64(0); v != 2 {
				panic(fmt.Sprintf("post-acquire read = %d, want 2", v))
			}
			c.Barrier()
		}
	})
	// The second ReadI64 must not have faulted: 1 initial fetch + 1
	// post-acquire refetch for node 1.
	if res.Total.ReadFaults != 2 {
		t.Errorf("read faults = %d, want 2 (no invalidation between)", res.Total.ReadFaults)
	}
}

// TestOwnershipMigration: a write by a non-owner migrates the single
// writable copy with its data; the old owner keeps a readable copy.
func TestOwnershipMigration(t *testing.T) {
	run(t, 2, 4096, func(c *core.Ctx) {
		if c.ID() == 0 {
			c.WriteI64(0, 10)
			c.WriteI64(8, 11)
		}
		c.Barrier()
		if c.ID() == 1 {
			c.WriteI64(16, 12) // migrate ownership of the block
			// Migration must have carried node 0's data with it.
			if v := c.ReadI64(0); v != 10 {
				panic(fmt.Sprintf("migration lost data: %d", v))
			}
		}
		c.Barrier()
		// Node 0's copy survived the migration read-only.
		if c.ID() == 0 {
			if v := c.ReadI64(8); v != 11 {
				panic(fmt.Sprintf("old owner's copy gone: %d", v))
			}
		}
		c.Barrier()
	})
}

// TestSingleWriterSerializes: unlike HLRC, two writers of the same block
// cannot proceed concurrently — ownership bounces, and both writes land.
func TestSingleWriterSerializes(t *testing.T) {
	res := run(t, 3, 4096, func(c *core.Ctx) {
		if c.ID() == 0 {
			for i := 0; i < 16; i++ {
				c.WriteI64(i*8, 0)
			}
		}
		c.Barrier()
		switch c.ID() {
		case 1:
			c.Lock(1)
			for i := 0; i < 8; i++ {
				c.WriteI64(i*8, int64(100+i))
			}
			c.Unlock(1)
		case 2:
			c.Lock(2)
			for i := 8; i < 16; i++ {
				c.WriteI64(i*8, int64(200+i))
			}
			c.Unlock(2)
		}
		c.Barrier()
		for i := 0; i < 16; i++ {
			want := int64(100 + i)
			if i >= 8 {
				want = int64(200 + i)
			}
			if v := c.ReadI64(i * 8); v != want {
				panic(fmt.Sprintf("slot %d = %d, want %d", i, v, want))
			}
		}
		c.Barrier()
	})
	if res.Total.TwinsCreated != 0 || res.Total.DiffsCreated != 0 {
		t.Errorf("SW-LRC must not twin or diff (twins=%d diffs=%d)",
			res.Total.TwinsCreated, res.Total.DiffsCreated)
	}
}

// TestOneHopReadViaNoticeHint: after an acquire delivers a write notice,
// the reader knows the current owner and fetches directly from it in one
// round trip — no directory forwarding.
func TestOneHopReadViaNoticeHint(t *testing.T) {
	res := run(t, 4, 4096, func(c *core.Ctx) {
		if c.ID() == 3 {
			// Node 3 writes block 0 whose static home is node 0 — the
			// directory and owner diverge.
			c.Lock(0)
			c.WriteI64(0, 5)
			c.Unlock(0)
		}
		c.Barrier()
		if c.ID() == 1 {
			c.Lock(0) // acquire: notice says "block 0, owner 3"
			c.Unlock(0)
			if v := c.ReadI64(0); v != 5 {
				panic(fmt.Sprintf("read = %d", v))
			}
		}
		c.Barrier()
	})
	// The post-acquire fetch goes straight to node 3: no Forwards beyond
	// those of the initial claim traffic.
	if res.Total.Forwards > 1 {
		t.Errorf("forwards = %d, want ≤1 (notice hint should give one-hop reads)", res.Total.Forwards)
	}
}

// TestVersionedInvalidationIsSelective: notices only invalidate copies
// older than the noticed version; a freshly fetched copy survives the
// acquire that follows.
func TestVersionedInvalidationIsSelective(t *testing.T) {
	res := run(t, 2, 4096, func(c *core.Ctx) {
		if c.ID() == 0 {
			c.Lock(0)
			c.WriteI64(0, 1)
			c.Unlock(0)
			c.Barrier()
			c.Barrier()
		} else {
			c.Barrier()
			// Fetch after node 0's release: current version.
			if v := c.ReadI64(0); v != 1 {
				panic("bad read")
			}
			// This acquire's notice carries the version we already have:
			// no invalidation, no re-fetch.
			c.Lock(0)
			c.Unlock(0)
			if v := c.ReadI64(0); v != 1 {
				panic("bad second read")
			}
			c.Barrier()
		}
	})
	if res.Total.ReadFaults != 1 {
		t.Errorf("read faults = %d, want 1 (current copy must survive the acquire)", res.Total.ReadFaults)
	}
}
