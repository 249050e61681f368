package apps

import (
	"context"
	"testing"

	"dsmsim/internal/core"
	"dsmsim/internal/sim"
)

// TestGoldenLUCounts freezes the exact, deterministic behaviour of a small
// LU run under every protocol and granularity: read/write fault counts,
// message counts and simulated time. Any protocol change that alters these
// numbers must be reviewed (and, if intended, this table regenerated) —
// the simulator's determinism makes exact regression anchors possible.
func TestGoldenLUCounts(t *testing.T) {
	golden := []struct {
		proto  string
		block  int
		reads  int64
		writes int64
		msgs   int64
		timeNs int64
	}{
		{"sc", 64, 640, 0, 2848, 59556040},
		{"sc", 256, 160, 0, 856, 27802530},
		{"sc", 1024, 85, 33, 577, 29960897},
		{"sc", 4096, 108, 66, 684, 67310074},
		{"swlrc", 64, 640, 0, 2368, 55315189},
		{"swlrc", 256, 160, 0, 736, 26694558},
		{"swlrc", 1024, 74, 26, 396, 25476628},
		{"swlrc", 4096, 68, 32, 352, 45392376},
		{"hlrc", 64, 640, 0, 2496, 54740147},
		{"hlrc", 256, 160, 0, 768, 26539565},
		{"hlrc", 1024, 74, 26, 404, 25392084},
		{"hlrc", 4096, 68, 32, 360, 45510328},
		{"dc", 64, 640, 0, 2848, 59556040},
		{"dc", 256, 160, 0, 856, 27802530},
		{"dc", 1024, 74, 26, 534, 26931727},
		{"dc", 4096, 68, 34, 492, 46355851},
	}
	for _, g := range golden {
		m, err := core.NewMachine(core.Config{
			Nodes: 4, BlockSize: g.block, Protocol: g.proto, Limit: 2000 * sim.Second,
		})
		if err != nil {
			t.Fatal(err)
		}
		res, err := runVerified(context.Background(), m, NewLU(64, 8))
		if err != nil {
			t.Fatalf("%s/%d: %v", g.proto, g.block, err)
		}
		if res.Total.ReadFaults != g.reads || res.Total.WriteFaults != g.writes ||
			res.NetMsgs != g.msgs || int64(res.Time) != g.timeNs {
			t.Errorf("%s/%d drifted: reads=%d(%d) writes=%d(%d) msgs=%d(%d) time=%d(%d)",
				g.proto, g.block,
				res.Total.ReadFaults, g.reads, res.Total.WriteFaults, g.writes,
				res.NetMsgs, g.msgs, int64(res.Time), g.timeNs)
		}
	}
}
