package apps

import (
	"context"
	"fmt"
	"testing"

	"dsmsim/internal/core"
	"dsmsim/internal/sim"
)

// TestOceanPaperSC64 guards against the 16-node fine-grain livelock: the
// heaviest Figure 1 configuration must complete within a bounded virtual
// time. Skipped in -short mode (it takes a couple of minutes of wall
// clock by design — it simulates ~3M faults).
func TestOceanPaperSC64(t *testing.T) {
	if testing.Short() {
		t.Skip("paper-size configuration")
	}
	m, _ := core.NewMachine(core.Config{Nodes: 16, BlockSize: 64, Protocol: core.SC, Limit: 2000 * sim.Second})
	res, err := m.Run(context.Background(), NewOcean(514, 10, false)) // 10 iterations: steady state
	if err != nil {
		t.Fatal(err)
	}
	fmt.Printf("ocean-original sc-64 16n (10 iters): T=%v rf=%d wf=%d\n",
		res.Time, res.Total.ReadFaults, res.Total.WriteFaults)
}
