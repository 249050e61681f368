package hlrc_test

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
		Nodes: nodes, BlockSize: block, Protocol: core.HLRC, Limit: 50 * sim.Second,
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

// TestLazyPropagation is the semantic heart of release consistency: a
// write does NOT invalidate remote copies until the reader acquires along
// the synchronization chain. The reader legally sees the old value before
// acquiring, and must see the new one after.
func TestLazyPropagation(t *testing.T) {
	run(t, 2, 4096, func(c *core.Ctx) {
		if c.ID() == 0 {
			c.Lock(0)
			c.WriteI64(0, 1) // becomes home by first store
			c.Unlock(0)
			c.Barrier()
			// Wait for node 1's first read, then publish a new value.
			c.Compute(30 * sim.Millisecond)
			c.Lock(0)
			c.WriteI64(0, 2)
			c.Unlock(0)
			c.Compute(60 * sim.Millisecond)
			c.Barrier()
		} else {
			c.Barrier()
			if v := c.ReadI64(0); v != 1 {
				panic(fmt.Sprintf("post-barrier read = %d, want 1", v))
			}
			c.Compute(60 * sim.Millisecond)
			// Node 0 has long since released value 2, but we have not
			// acquired: our cached copy legitimately still reads 1 —
			// release consistency does not invalidate it.
			if v := c.ReadI64(0); v != 1 {
				panic(fmt.Sprintf("HLRC invalidated without acquire: %d", v))
			}
			// Acquire the lock: its notices invalidate our copy.
			c.Lock(0)
			c.Unlock(0)
			if v := c.ReadI64(0); v != 2 {
				panic(fmt.Sprintf("post-acquire read = %d, want 2 (lost notice)", v))
			}
			c.Barrier()
		}
	})
}

// TestTwinAndDiffLifecycle: a remote writer twins the block, flushes one
// diff at release, and the home applies it.
func TestTwinAndDiffLifecycle(t *testing.T) {
	res := run(t, 2, 4096, func(c *core.Ctx) {
		if c.ID() == 0 {
			c.WriteI64(0, 5) // home by first touch
		}
		c.Barrier()
		if c.ID() == 1 {
			_ = c.ReadI64(0) // fetch a copy
			c.Lock(1)
			c.WriteI64(8, 6) // upgrade: twin + local write
			c.Unlock(1)      // diff flushed to home
		}
		c.Barrier()
		if c.ReadI64(0) != 5 || c.ReadI64(8) != 6 {
			panic("merged state wrong")
		}
		c.Barrier()
	})
	if res.Total.TwinsCreated != 1 {
		t.Errorf("twins = %d, want 1", res.Total.TwinsCreated)
	}
	if res.Total.DiffsCreated < 1 || res.Total.DiffsApplied < 1 {
		t.Errorf("diffs created=%d applied=%d, want ≥1 each", res.Total.DiffsCreated, res.Total.DiffsApplied)
	}
	// Diffs are byte-granular: writing 6 over 0 modifies a single byte of
	// the int64, so the payload is between 1 and 8 bytes — never the
	// whole 4096-byte block.
	if res.Total.DiffPayloadBytes < 1 || res.Total.DiffPayloadBytes > 8 {
		t.Errorf("diff payload = %d bytes, want within the modified word", res.Total.DiffPayloadBytes)
	}
}

// TestConcurrentWritersMerge: two writers of disjoint halves of one block
// under different locks both survive — no false-sharing ping-pong, one
// write fault (twin) each.
func TestConcurrentWritersMerge(t *testing.T) {
	res := run(t, 3, 4096, func(c *core.Ctx) {
		if c.ID() == 0 {
			for i := 0; i < 64; i++ {
				c.WriteI64(i*8, 0) // node 0 is home
			}
		}
		c.Barrier()
		switch c.ID() {
		case 1:
			c.Lock(1)
			for i := 0; i < 32; i++ {
				c.WriteI64(i*8, int64(100+i))
			}
			c.Unlock(1)
		case 2:
			c.Lock(2)
			for i := 32; i < 64; i++ {
				c.WriteI64(i*8, int64(200+i))
			}
			c.Unlock(2)
		}
		c.Barrier()
		for i := 0; i < 64; i++ {
			want := int64(100 + i)
			if i >= 32 {
				want = int64(200 + i)
			}
			if v := c.ReadI64(i * 8); v != want {
				panic(fmt.Sprintf("slot %d = %d, want %d (lost concurrent write)", i, v, want))
			}
		}
		c.Barrier()
	})
	// Each concurrent writer takes exactly one write fault for the block.
	if res.Total.WriteFaults != 2 {
		t.Errorf("write faults = %d, want 2 (one twin per writer)", res.Total.WriteFaults)
	}
}

// TestHomeWritesNeedNoTwin: the home writes in place; no twin or diff.
func TestHomeWritesNeedNoTwin(t *testing.T) {
	res := run(t, 2, 4096, func(c *core.Ctx) {
		if c.ID() == 0 {
			for r := 0; r < 5; r++ {
				c.Lock(0)
				c.WriteI64(0, int64(r)) // home writing its own block
				c.Unlock(0)
			}
		}
		c.Barrier()
	})
	if res.Total.TwinsCreated != 0 {
		t.Errorf("twins = %d, want 0 for home writes", res.Total.TwinsCreated)
	}
	if res.Total.DiffsCreated != 0 {
		t.Errorf("diffs = %d, want 0 for home writes", res.Total.DiffsCreated)
	}
}

// TestSilentHomeWrites: with no reader ever fetching the block, the home
// takes at most one write fault no matter how many intervals write it
// (the Table 3 zero-write-fault property).
func TestSilentHomeWrites(t *testing.T) {
	res := run(t, 2, 4096, func(c *core.Ctx) {
		if c.ID() == 0 {
			for r := 0; r < 10; r++ {
				c.Lock(0)
				c.WriteI64(0, int64(r))
				c.Unlock(0)
			}
		}
		c.Barrier()
	})
	if res.Total.WriteFaults > 1 {
		t.Errorf("write faults = %d, want ≤1 (unfetched home block stays writable)", res.Total.WriteFaults)
	}
}

// TestWriteFaultOncePerInterval: after invalidation-free steady state, a
// non-home writer faults once per interval regardless of write count —
// the property behind HLRC's 10–30x write-fault reduction (Tables 8–12).
func TestWriteFaultOncePerInterval(t *testing.T) {
	const intervals = 6
	res := run(t, 2, 4096, func(c *core.Ctx) {
		if c.ID() == 0 {
			c.WriteI64(0, 1) // home
		}
		c.Barrier()
		if c.ID() == 1 {
			for r := 0; r < intervals; r++ {
				c.Lock(1)
				for w := 0; w < 50; w++ {
					c.WriteI64(int(w)*8, int64(r))
				}
				c.Unlock(1)
			}
		}
		c.Barrier()
	})
	// Streaming writer: ONE write fault and one twin for the whole run —
	// every release re-diffs against the refreshed twin and keeps the
	// block writable.
	if res.Total.WriteFaults > 2 {
		t.Errorf("write faults = %d, want ≤2 (streaming keeps the block writable)", res.Total.WriteFaults)
	}
	if res.Total.TwinsCreated != 1 {
		t.Errorf("twins = %d, want 1", res.Total.TwinsCreated)
	}
	if res.Total.DiffsCreated < int64(intervals) {
		t.Errorf("diffs = %d, want ≥%d (one flush per streaming release)", res.Total.DiffsCreated, intervals)
	}
}

// TestFineGranularityDiffCosts: at 64-byte blocks a 200-byte write range
// creates several twins/diffs — the protocol-overhead effect that makes
// relaxed protocols unattractive at fine grain (§5.1).
func TestFineGranularityDiffCosts(t *testing.T) {
	res := run(t, 2, 64, func(c *core.Ctx) {
		if c.ID() == 0 {
			for i := 0; i < 32; i++ {
				c.WriteI64(i*8, 1)
			}
		}
		c.Barrier()
		if c.ID() == 1 {
			c.Lock(1)
			for i := 0; i < 32; i++ {
				c.WriteI64(i*8, 2) // 256 bytes = 4 blocks at 64B
			}
			c.Unlock(1)
		}
		c.Barrier()
	})
	if res.Total.TwinsCreated != 4 {
		t.Errorf("twins = %d, want 4 (one per 64B block)", res.Total.TwinsCreated)
	}
}

// TestEarlyFlushOnNoticeForDirtyBlock: a notice arriving for a block the
// node is still writing (write-write false sharing across locks) forces
// an early diff flush before invalidation — no writes may be lost.
func TestEarlyFlushOnNoticeForDirtyBlock(t *testing.T) {
	run(t, 3, 4096, func(c *core.Ctx) {
		if c.ID() == 0 {
			for i := 0; i < 8; i++ {
				c.WriteI64(i*8, 0) // claim the home
			}
		}
		c.Barrier()
		switch c.ID() {
		case 1:
			c.Lock(1)
			c.WriteI64(0, 111) // dirty under L1
			// Acquire L2, whose last releaser (node 2) published a
			// notice for this very block: early flush + invalidation.
			c.Compute(30 * sim.Millisecond)
			c.Lock(2)
			c.Unlock(2)
			if v := c.ReadI64(8); v != 222 {
				panic(fmt.Sprintf("post-acquire read = %d, want 222", v))
			}
			if v := c.ReadI64(0); v != 111 {
				panic(fmt.Sprintf("early flush lost own write: %d", v))
			}
			c.Unlock(1)
		case 2:
			c.Lock(2)
			c.WriteI64(8, 222)
			c.Unlock(2)
		}
		c.Barrier()
		if c.ReadI64(0) != 111 || c.ReadI64(8) != 222 {
			panic("merged state wrong after early flush")
		}
		c.Barrier()
	})
}

// TestFinalizeFlushesUnreleasedWrites: writes never followed by a release
// still reach the collected final image through Finalize.
func TestFinalizeFlushesUnreleasedWrites(t *testing.T) {
	m, err := core.NewMachine(core.Config{
		Nodes: 2, BlockSize: 4096, Protocol: core.HLRC, Limit: 50 * sim.Second,
	})
	if err != nil {
		t.Fatal(err)
	}
	app := &finalizeApp{}
	res, err := m.Run(context.Background(), app)
	if err != nil {
		t.Fatal(err)
	}
	if got := res.Heap.I64s(0, 2); got[0] != 1 || got[1] != 99 {
		t.Fatalf("final image = %v, want [1 99] (Finalize must flush the dirty twin)", got)
	}
}

type finalizeApp struct{}

func (a *finalizeApp) Info() core.AppInfo { return core.AppInfo{Name: "fin", HeapBytes: 8192} }
func (a *finalizeApp) Setup(h *core.Heap) {}
func (a *finalizeApp) Run(c *core.Ctx) {
	if c.ID() == 0 {
		c.WriteI64(0, 1) // home
	}
	c.Barrier()
	if c.ID() == 1 {
		_ = c.ReadI64(0)
		c.WriteI64(8, 99) // twin; never released
	}
	// No final barrier for node 1's write: Finalize must pick it up.
}
func (a *finalizeApp) Verify(h *core.Heap) error { return nil }
