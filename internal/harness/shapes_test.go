package harness

import (
	"context"
	"testing"

	"dsmsim/internal/apps"
	"dsmsim/internal/core"
	"dsmsim/internal/network"
	"dsmsim/internal/sim"
)

// runApp executes one configuration of an explicitly constructed app.
func runApp(t *testing.T, app core.App, proto string, block, nodes int, notify network.Notify) *core.Result {
	t.Helper()
	m, err := core.NewMachine(core.Config{
		Nodes: nodes, BlockSize: block, Protocol: proto, Notify: notify,
		Limit: 20000 * sim.Second,
	})
	if err != nil {
		t.Fatal(err)
	}
	res, err := m.Run(context.Background(), app)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// TestShapeHLRCReducesWriteFaultsAtPageGranularity reproduces the headline
// of Tables 8–12: for a fine-grain multiple-writer application at 4096-byte
// blocks, HLRC takes far fewer write faults than SC (factors of 10–30 in
// the paper).
func TestShapeHLRCReducesWriteFaultsAtPageGranularity(t *testing.T) {
	if testing.Short() {
		t.Skip("mid-size sweep")
	}
	// Water-Spatial, Table 10's configuration shape: the multiple-writer
	// molecule array at page granularity. HLRC's write faults fall well
	// below both SC's and SW-LRC's (the paper reports factors of 10–30;
	// our coarser sync structure yields ≈3, same direction).
	mk := func() core.App { return apps.NewWaterSpatial(512, 3) }
	sc := runApp(t, mk(), core.SC, 4096, 16, network.Polling)
	sw := runApp(t, mk(), core.SWLRC, 4096, 16, network.Polling)
	hl := runApp(t, mk(), core.HLRC, 4096, 16, network.Polling)
	if r := float64(sc.Total.WriteFaults) / float64(hl.Total.WriteFaults); r < 2 {
		t.Errorf("SC/HLRC write-fault ratio = %.1f (sc=%d hlrc=%d), want ≫1",
			r, sc.Total.WriteFaults, hl.Total.WriteFaults)
	}
	if r := float64(sw.Total.WriteFaults) / float64(hl.Total.WriteFaults); r < 1.5 {
		t.Errorf("SW-LRC/HLRC write-fault ratio = %.1f (sw=%d hlrc=%d), want >1 (multiple-writer advantage)",
			r, sw.Total.WriteFaults, hl.Total.WriteFaults)
	}
	// §5.2's explicit claim: SW-LRC's delayed invalidations cut read
	// misses to a small fraction of SC's (the paper reports ≈1/10).
	if r := float64(sc.Total.ReadFaults) / float64(sw.Total.ReadFaults); r < 5 {
		t.Errorf("SC/SW-LRC read-fault ratio = %.1f (sc=%d sw=%d), want ≈10x",
			r, sc.Total.ReadFaults, sw.Total.ReadFaults)
	}
	// And the bottom line: relaxed protocols win at page granularity.
	if hl.Time > sc.Time {
		t.Errorf("HLRC-4096 (%v) should beat SC-4096 (%v) on Water-Spatial", hl.Time, sc.Time)
	}
}

// TestShapeVolrendHLRCWins asserts §5.1's headline for Volrend-Original:
// HLRC at page granularity beats SC at page granularity by a factor of
// two to four.
func TestShapeVolrendHLRCWins(t *testing.T) {
	if testing.Short() {
		t.Skip("mid-size sweep")
	}
	mk := func() core.App { return apps.NewVolrend(128, 2, false) }
	sc := runApp(t, mk(), core.SC, 4096, 16, network.Polling)
	hl := runApp(t, mk(), core.HLRC, 4096, 16, network.Polling)
	r := float64(sc.Time) / float64(hl.Time)
	if r < 2 {
		t.Errorf("SC-4096/HLRC-4096 time ratio = %.1f, paper reports 2-4x", r)
	}
}

// TestShapeSCPingPongAtCoarseGrain: SC's execution time degrades sharply
// from fine to page granularity on a false-sharing-heavy application,
// while HLRC improves or holds (the crossover of Figure 1).
func TestShapeSCPingPongAtCoarseGrain(t *testing.T) {
	if testing.Short() {
		t.Skip("mid-size sweep")
	}
	mk := func() core.App { return apps.NewVolrend(64, 3, false) }
	sc64 := runApp(t, mk(), core.SC, 64, 8, network.Polling)
	sc4k := runApp(t, mk(), core.SC, 4096, 8, network.Polling)
	hl4k := runApp(t, mk(), core.HLRC, 4096, 8, network.Polling)
	if sc4k.Time < sc64.Time {
		t.Errorf("SC should degrade with granularity here: 64B=%v 4096B=%v", sc64.Time, sc4k.Time)
	}
	if hl4k.Time > sc4k.Time {
		t.Errorf("HLRC-4096 (%v) should beat SC-4096 (%v) on a multi-writer app", hl4k.Time, sc4k.Time)
	}
}

// TestShapeBarnesTraffic reproduces Table 15's ordering: for
// Barnes-Original at page granularity the LRC protocols move far more
// data than SC at 64 bytes (fragmentation), and SW-LRC moves more than
// HLRC at 4096 (whole-block transfers vs diffs).
func TestShapeBarnesTraffic(t *testing.T) {
	if testing.Short() {
		t.Skip("mid-size sweep")
	}
	mk := func() core.App { return apps.NewBarnes(2048, 2, apps.BarnesOriginal) }
	sc64 := runApp(t, mk(), core.SC, 64, 8, network.Polling)
	hl4k := runApp(t, mk(), core.HLRC, 4096, 8, network.Polling)
	sw4k := runApp(t, mk(), core.SWLRC, 4096, 8, network.Polling)
	if hl4k.NetBytes < 3*sc64.NetBytes {
		t.Errorf("HLRC-4096 traffic (%d) should dwarf SC-64 traffic (%d)", hl4k.NetBytes, sc64.NetBytes)
	}
	if sw4k.NetBytes < hl4k.NetBytes {
		t.Errorf("SW-LRC-4096 traffic (%d) should exceed HLRC-4096 (%d): whole blocks vs diffs",
			sw4k.NetBytes, hl4k.NetBytes)
	}
}

// TestShapeBarnesLockCounts reproduces §5.2's observation that the
// release-consistent Barnes issues many times more lock operations than
// the SC version (17,167 vs 2,086 in the paper, a factor of ≈8).
func TestShapeBarnesLockCounts(t *testing.T) {
	if testing.Short() {
		t.Skip("mid-size sweep")
	}
	mk := func() core.App { return apps.NewBarnes(2048, 2, apps.BarnesOriginal) }
	sc := runApp(t, mk(), core.SC, 1024, 8, network.Polling)
	hl := runApp(t, mk(), core.HLRC, 1024, 8, network.Polling)
	ratio := float64(hl.Total.LockAcquires) / float64(sc.Total.LockAcquires)
	if ratio < 3 || ratio > 20 {
		t.Errorf("RC/SC lock ratio = %.1f (rc=%d sc=%d), paper reports ≈8",
			ratio, hl.Total.LockAcquires, sc.Total.LockAcquires)
	}
}

// TestShapeLUPrefetching reproduces Table 3's trend: LU improves with
// granularity under every protocol (read faults fall ≈4x per step, no
// write faults beyond first touch).
func TestShapeLUPrefetching(t *testing.T) {
	if testing.Short() {
		t.Skip("mid-size sweep")
	}
	for _, p := range core.Protocols {
		t64 := runApp(t, apps.NewLU(256, 16), p, 64, 8, network.Polling)
		t1k := runApp(t, apps.NewLU(256, 16), p, 1024, 8, network.Polling)
		if t1k.Time > t64.Time {
			t.Errorf("%s: LU at 1KB (%v) should beat 64B (%v): prefetching", p, t1k.Time, t64.Time)
		}
		if t1k.Total.WriteFaults > t1k.Total.ReadFaults/4 {
			t.Errorf("%s: LU write faults %d should be tiny vs reads %d",
				p, t1k.Total.WriteFaults, t1k.Total.ReadFaults)
		}
	}
}

// TestShapeInterruptsHelpCoarseGrainApps reproduces §5.4: LU (few, large
// messages) runs faster with interrupts than with polling, because the
// polling instrumentation dilates its tight loops.
func TestShapeInterruptsHelpCoarseGrainApps(t *testing.T) {
	if testing.Short() {
		t.Skip("mid-size sweep")
	}
	poll := runApp(t, apps.NewLU(256, 16), core.HLRC, 4096, 8, network.Polling)
	intr := runApp(t, apps.NewLU(256, 16), core.HLRC, 4096, 8, network.Interrupt)
	if intr.Time > poll.Time {
		t.Errorf("LU with interrupts (%v) should beat polling (%v)", intr.Time, poll.Time)
	}
}

// TestShapeSyncCheaperUnderSC: synchronization involves no protocol
// activity under SC, so a lock-heavy phase spends less time in locks than
// under HLRC (where each release flushes and each acquire processes
// notices).
func TestShapeSyncCheaperUnderSC(t *testing.T) {
	if testing.Short() {
		t.Skip("mid-size sweep")
	}
	mk := func() core.App { return apps.NewBarnes(2048, 2, apps.BarnesOriginal) }
	sc := runApp(t, mk(), core.SC, 1024, 8, network.Polling)
	hl := runApp(t, mk(), core.HLRC, 1024, 8, network.Polling)
	scPer := float64(sc.Total.LockStall) / float64(sc.Total.LockAcquires)
	hlPer := float64(hl.Total.LockStall) / float64(hl.Total.LockAcquires)
	if hlPer < scPer {
		t.Errorf("per-lock stall: hlrc %.0fns < sc %.0fns; HLRC synchronization should cost more",
			hlPer, scPer)
	}
}
