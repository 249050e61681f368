package tlc_test

import (
	"context"
	"fmt"
	"testing"

	"dsmsim/internal/apps"
	"dsmsim/internal/core"
	"dsmsim/internal/faults"
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

func run(t *testing.T, name string, g, nodes int, plan *faults.Plan) *core.Result {
	t.Helper()
	entry, err := apps.Get(name)
	if err != nil {
		t.Fatal(err)
	}
	m, err := core.NewMachine(core.Config{
		Nodes: nodes, BlockSize: g, Protocol: core.TLC,
		Limit: 2000 * sim.Second, Faults: plan,
	})
	if err != nil {
		t.Fatal(err)
	}
	res, err := runVerified(context.Background(), m, entry.New(apps.Small))
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// TestVerifyMatrix is the ISSUE's acceptance matrix for the lease
// protocol: every bundled application completes and verifies under tlc at
// both granularity extremes.
func TestVerifyMatrix(t *testing.T) {
	for _, name := range apps.Names() {
		name := name
		t.Run(name, func(t *testing.T) {
			for _, g := range []int{64, 4096} {
				run(t, name, g, 4, nil)
			}
		})
	}
}

// TestVerifyUnderLoss: the ack/retransmission layer must make 1% message
// drop invisible to the lease protocol — every app still completes and
// verifies, and drops actually occurred.
func TestVerifyUnderLoss(t *testing.T) {
	for _, name := range apps.Names() {
		name := name
		t.Run(name, func(t *testing.T) {
			gs := []int{4096}
			if !testing.Short() {
				gs = []int{64, 4096}
			}
			for _, g := range gs {
				plan := faults.NewPlan(faults.Drop(0.01), faults.Seed(1))
				res := run(t, name, g, 4, plan)
				if res.WireDrops == 0 {
					t.Errorf("%d: 1%% drop produced no wire drops over %d msgs", g, res.NetMsgs)
				}
			}
		})
	}
}

// TestLeaseCounters checks that the protocol's distinguishing machinery
// actually engages on a lock-heavy app — clocks jump at acquires and
// leases expire without any invalidation fan-out or LRC apparatus.
func TestLeaseCounters(t *testing.T) {
	res := run(t, "water-nsquared", 1024, 4, nil)
	tot := res.Total
	if tot.TimestampJumps == 0 {
		t.Error("no timestamp jumps on a synchronization-heavy app")
	}
	if tot.LeaseExpiries == 0 {
		t.Error("no lease expiries: leases never self-invalidated")
	}
	if tot.Invalidations < tot.LeaseExpiries {
		t.Errorf("invalidations %d below lease expiries %d: expiries must count as invalidations",
			tot.Invalidations, tot.LeaseExpiries)
	}
	if tot.TwinsCreated != 0 || tot.DiffsCreated != 0 || tot.WriteNoticesSent != 0 {
		t.Errorf("LRC machinery engaged under tlc: twins=%d diffs=%d notices=%d",
			tot.TwinsCreated, tot.DiffsCreated, tot.WriteNoticesSent)
	}
}

// TestLeaseRenewals drives the metadata-only renewal path: under heavy
// read sharing with an occasional writer, expired readers whose bytes are
// still current must renew without data on the wire.
func TestLeaseRenewals(t *testing.T) {
	var saw int64
	for _, name := range apps.Names() {
		res := run(t, name, 1024, 8, nil)
		saw += res.Total.LeaseRenewals
	}
	if saw == 0 {
		t.Error("no app produced a single lease renewal")
	}
}

// TestDeterminism: two identical tlc runs must be bit-identical, stats
// included.
func TestDeterminism(t *testing.T) {
	for _, name := range []string{"water-nsquared", "fft"} {
		name := name
		t.Run(name, func(t *testing.T) {
			a := run(t, name, 1024, 8, nil)
			b := run(t, name, 1024, 8, nil)
			if a.Time != b.Time || a.Total != b.Total || a.NetBytes != b.NetBytes || a.NetMsgs != b.NetMsgs {
				t.Fatalf("non-deterministic: T %v vs %v", a.Time, b.Time)
			}
		})
	}
}

// TestScales16: a barrier app and a lock app at 16 nodes, both
// granularity extremes.
func TestScales16(t *testing.T) {
	if testing.Short() {
		t.Skip("16-node matrix")
	}
	for _, name := range []string{"fft", "water-nsquared"} {
		for _, g := range []int{64, 4096} {
			name, g := name, g
			t.Run(fmt.Sprintf("%s-%d", name, g), func(t *testing.T) {
				run(t, name, g, 16, nil)
			})
		}
	}
}
