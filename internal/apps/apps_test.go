package apps

import (
	"context"
	"fmt"
	"testing"

	"dsmsim/internal/core"
	"dsmsim/internal/network"
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

// runMatrix runs an app at Small size across every protocol × granularity
// with verification.
func runMatrix(t *testing.T, name string, nodes int) {
	t.Helper()
	entry, err := Get(name)
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range core.Protocols {
		for _, g := range core.Granularities {
			p, g := p, g
			t.Run(fmt.Sprintf("%s-%d", p, g), func(t *testing.T) {
				m, err := core.NewMachine(core.Config{
					Nodes: nodes, BlockSize: g, Protocol: p,
					Limit: 2000 * sim.Second,
				})
				if err != nil {
					t.Fatal(err)
				}
				if _, err := runVerified(context.Background(), m, entry.New(Small)); err != nil {
					t.Fatal(err)
				}
			})
		}
	}
}

// runOnce runs an app at Small size on one config with verification and
// returns the result.
func runOnce(t *testing.T, name, protocol string, g, nodes int) *core.Result {
	t.Helper()
	entry, err := Get(name)
	if err != nil {
		t.Fatal(err)
	}
	m, err := core.NewMachine(core.Config{
		Nodes: nodes, BlockSize: g, Protocol: protocol, Limit: 2000 * sim.Second,
	})
	if err != nil {
		t.Fatal(err)
	}
	res, err := runVerified(context.Background(), m, entry.New(Small))
	if err != nil {
		t.Fatal(err)
	}
	return res
}

func TestLUMatrix(t *testing.T)  { runMatrix(t, "lu", 4) }
func TestFFTMatrix(t *testing.T) { runMatrix(t, "fft", 4) }

// TestLUNoWriteFaultsSteadyState reproduces the Table 3 property: LU has a
// single writer per block, so write faults are only first-touch claims and
// read faults dominate.
func TestLUNoWriteFaultsSteadyState(t *testing.T) {
	for _, p := range core.Protocols {
		res := runOnce(t, "lu", p, 1024, 4)
		// Write faults should be at most ~one per block (first touch /
		// one per interval at worst), far below read faults.
		if res.Total.WriteFaults > res.Total.ReadFaults {
			t.Errorf("%s: write faults %d exceed read faults %d", p, res.Total.WriteFaults, res.Total.ReadFaults)
		}
	}
}

// TestLUReadFaultsScaleWithGranularity: Table 3 shows read misses dropping
// ≈4x per 4x granularity step. Needs a matrix large relative to the page
// size, so use a mid-size LU rather than the Small preset.
func TestLUReadFaultsScaleWithGranularity(t *testing.T) {
	var prev int64 = -1
	for _, g := range core.Granularities {
		m, err := core.NewMachine(core.Config{
			Nodes: 4, BlockSize: g, Protocol: core.SC, Limit: 5000 * sim.Second,
		})
		if err != nil {
			t.Fatal(err)
		}
		res, err := runVerified(context.Background(), m, NewLU(256, 16))
		if err != nil {
			t.Fatal(err)
		}
		if prev > 0 {
			ratio := float64(prev) / float64(res.Total.ReadFaults)
			if ratio < 2.0 || ratio > 6.5 {
				t.Errorf("granularity %d: read-fault ratio %.2f, want ≈4 (prev %d, now %d)",
					g, ratio, prev, res.Total.ReadFaults)
			}
		}
		prev = res.Total.ReadFaults
	}
}

// TestSequentialBaselines: every app must run cleanly in the sequential
// baseline configuration with zero faults.
func TestSequentialBaselines(t *testing.T) {
	for _, e := range All() {
		e := e
		t.Run(e.Name, func(t *testing.T) {
			m, err := core.NewMachine(core.Config{
				Sequential: true, BlockSize: 4096, Limit: 5000 * sim.Second,
			})
			if err != nil {
				t.Fatal(err)
			}
			res, err := runVerified(context.Background(), m, e.New(Small))
			if err != nil {
				t.Fatal(err)
			}
			if res.Total.ReadFaults != 0 || res.Total.WriteFaults != 0 {
				t.Fatalf("sequential %s faulted: r=%d w=%d", e.Name, res.Total.ReadFaults, res.Total.WriteFaults)
			}
		})
	}
}

// TestRegistry checks registry integrity.
func TestRegistry(t *testing.T) {
	if _, err := Get("nonesuch"); err == nil {
		t.Fatal("Get of unknown app succeeded")
	}
	seen := map[string]bool{}
	for _, e := range All() {
		if seen[e.Name] {
			t.Fatalf("duplicate app %s", e.Name)
		}
		seen[e.Name] = true
		if e.BaseName == "" || e.New == nil {
			t.Fatalf("incomplete entry %+v", e)
		}
	}
	for _, name := range Originals() {
		if _, err := Get(name); err != nil {
			t.Fatalf("original %s not registered: %v", name, err)
		}
	}
}

// TestInterruptMechanism runs LU under interrupts (Figure 2's mechanism).
func TestInterruptMechanism(t *testing.T) {
	entry, _ := Get("lu")
	m, err := core.NewMachine(core.Config{
		Nodes: 4, BlockSize: 4096, Protocol: core.HLRC,
		Notify: network.Interrupt, Limit: 2000 * sim.Second,
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := runVerified(context.Background(), m, entry.New(Small)); err != nil {
		t.Fatal(err)
	}
}

func TestPartition(t *testing.T) {
	for _, n := range []int{1, 7, 16, 100} {
		for _, p := range []int{1, 3, 4, 16} {
			total := 0
			prevHi := 0
			for i := 0; i < p; i++ {
				lo, hi := partition(n, p, i)
				if lo != prevHi {
					t.Fatalf("partition(%d,%d,%d): gap (lo=%d prevHi=%d)", n, p, i, lo, prevHi)
				}
				total += hi - lo
				prevHi = hi
			}
			if total != n {
				t.Fatalf("partition(%d,%d): covered %d", n, p, total)
			}
		}
	}
}

func TestHashNoiseDeterministic(t *testing.T) {
	if hashNoise(1, 2) != hashNoise(1, 2) {
		t.Fatal("hashNoise not deterministic")
	}
	if hashNoise(1, 2) == hashNoise(1, 3) || hashNoise(1, 2) == hashNoise(2, 2) {
		t.Fatal("hashNoise suspiciously collides")
	}
	for i := 0; i < 1000; i++ {
		v := hashNoise(9, i)
		if v < 0 || v >= 1 {
			t.Fatalf("hashNoise out of range: %v", v)
		}
	}
}

func TestOceanRowwiseMatrix(t *testing.T)  { runMatrix(t, "ocean-rowwise", 4) }
func TestOceanOriginalMatrix(t *testing.T) { runMatrix(t, "ocean-original", 4) }

func TestWaterNsqMatrix(t *testing.T) { runMatrix(t, "water-nsquared", 4) }

func TestVolrendOriginalMatrix(t *testing.T) { runMatrix(t, "volrend-original", 4) }
func TestVolrendRowwiseMatrix(t *testing.T)  { runMatrix(t, "volrend-rowwise", 4) }
func TestRaytraceMatrix(t *testing.T)        { runMatrix(t, "raytrace", 4) }

func TestWaterSpatialMatrix(t *testing.T) { runMatrix(t, "water-spatial", 4) }

func TestBarnesOriginalMatrix(t *testing.T) { runMatrix(t, "barnes-original", 4) }
func TestBarnesPartreeMatrix(t *testing.T)  { runMatrix(t, "barnes-partree", 4) }
func TestBarnesSpatialMatrix(t *testing.T)  { runMatrix(t, "barnes-spatial", 4) }

// Test32Nodes: the paper's authors hoped for 32-node runs (§3 footnote);
// every application must be correct there too.
func Test32Nodes(t *testing.T) {
	if testing.Short() {
		t.Skip("large cluster sweep")
	}
	for _, name := range []string{"lu", "water-spatial", "barnes-partree", "volrend-rowwise"} {
		name := name
		t.Run(name, func(t *testing.T) {
			entry, err := Get(name)
			if err != nil {
				t.Fatal(err)
			}
			m, err := core.NewMachine(core.Config{
				Nodes: 32, BlockSize: 1024, Protocol: core.HLRC, Limit: 2000 * sim.Second,
			})
			if err != nil {
				t.Fatal(err)
			}
			if _, err := runVerified(context.Background(), m, entry.New(Small)); err != nil {
				t.Fatal(err)
			}
		})
	}
}

// TestSingleNodeDegenerate: every app runs correctly on one node under the
// full protocol stack (not the sequential baseline).
func TestSingleNodeDegenerate(t *testing.T) {
	for _, e := range All() {
		e := e
		t.Run(e.Name, func(t *testing.T) {
			m, err := core.NewMachine(core.Config{
				Nodes: 1, BlockSize: 4096, Protocol: core.HLRC, Limit: 5000 * sim.Second,
			})
			if err != nil {
				t.Fatal(err)
			}
			if _, err := runVerified(context.Background(), m, e.New(Small)); err != nil {
				t.Fatal(err)
			}
		})
	}
}

// TestAppDeterminism16: two identical 16-node runs of a lock-heavy and a
// barrier-heavy application must be bit-identical, stats included.
func TestAppDeterminism16(t *testing.T) {
	if testing.Short() {
		t.Skip("repeat runs")
	}
	for _, name := range []string{"water-nsquared", "barnes-original"} {
		name := name
		t.Run(name, func(t *testing.T) {
			run := func() *core.Result {
				entry, _ := Get(name)
				m, err := core.NewMachine(core.Config{
					Nodes: 16, BlockSize: 1024, Protocol: core.HLRC, Limit: 2000 * sim.Second,
				})
				if err != nil {
					t.Fatal(err)
				}
				res, err := m.Run(context.Background(), entry.New(Small))
				if err != nil {
					t.Fatal(err)
				}
				return res
			}
			a, b := run(), run()
			if a.Time != b.Time || a.Total != b.Total || a.NetBytes != b.NetBytes || a.NetMsgs != b.NetMsgs {
				t.Fatalf("non-deterministic: T %v vs %v, stats %+v vs %+v",
					a.Time, b.Time, a.Total, b.Total)
			}
		})
	}
}
