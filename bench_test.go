// Benchmarks regenerating every table and figure of the paper, plus
// ablations of the simulator's design choices (DESIGN.md §6).
//
// Each benchmark runs the corresponding harness experiment end to end.
// By default the reduced problem sizes are used so `go test -bench=.`
// finishes quickly; pass -dsm.paper to sweep the paper's Table 1 sizes
// (minutes, and prints the full tables):
//
//	go test -bench=Fig1 -benchtime=1x -dsm.paper
package dsmsim_test

import (
	"context"
	"flag"
	"fmt"
	"io"
	"os"
	"testing"

	"dsmsim"
	"dsmsim/internal/apps"
	"dsmsim/internal/harness"
	"dsmsim/internal/sweep"
)

var (
	paperSize  = flag.Bool("dsm.paper", false, "run benchmarks at the paper's problem sizes")
	benchNodes = flag.Int("dsm.nodes", 16, "cluster size for benchmarks")
	showTables = flag.Bool("dsm.show", false, "print the regenerated tables to stdout")
)

func benchOpts() harness.Options {
	opts := harness.Options{Options: sweep.Options{Size: apps.Small}, Nodes: *benchNodes, Out: io.Discard}
	if *paperSize {
		opts.Size = apps.Paper
	}
	if *showTables {
		opts.Out = os.Stdout
	}
	return opts
}

// benchExperiment runs one named experiment per iteration.
func benchExperiment(b *testing.B, name string) {
	b.Helper()
	e, err := harness.Get(name)
	if err != nil {
		b.Fatal(err)
	}
	for i := 0; i < b.N; i++ {
		r := harness.New(benchOpts())
		if err := e.Run(r); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkTable1(b *testing.B)  { benchExperiment(b, "table1") }
func BenchmarkFig1(b *testing.B)    { benchExperiment(b, "fig1") }
func BenchmarkTable2(b *testing.B)  { benchExperiment(b, "table2") }
func BenchmarkTable3(b *testing.B)  { benchExperiment(b, "table3") }
func BenchmarkTable4(b *testing.B)  { benchExperiment(b, "table4") }
func BenchmarkTable5(b *testing.B)  { benchExperiment(b, "table5") }
func BenchmarkTable6(b *testing.B)  { benchExperiment(b, "table6") }
func BenchmarkTable7(b *testing.B)  { benchExperiment(b, "table7") }
func BenchmarkTable8(b *testing.B)  { benchExperiment(b, "table8") }
func BenchmarkTable9(b *testing.B)  { benchExperiment(b, "table9") }
func BenchmarkTable10(b *testing.B) { benchExperiment(b, "table10") }
func BenchmarkTable11(b *testing.B) { benchExperiment(b, "table11") }
func BenchmarkTable12(b *testing.B) { benchExperiment(b, "table12") }
func BenchmarkTable13(b *testing.B) { benchExperiment(b, "table13") }
func BenchmarkTable14(b *testing.B) { benchExperiment(b, "table14") }
func BenchmarkTable15(b *testing.B) { benchExperiment(b, "table15") }
func BenchmarkTable16(b *testing.B) { benchExperiment(b, "table16") }
func BenchmarkTable17(b *testing.B) { benchExperiment(b, "table17") }
func BenchmarkFig2(b *testing.B)    { benchExperiment(b, "fig2") }

// BenchmarkProtocolGranularity reports simulated speedup for each point of
// the evaluation space on one representative regular (LU) and one
// irregular (Water-Spatial) application.
func BenchmarkProtocolGranularity(b *testing.B) {
	size := apps.SizeClass(apps.Small)
	if *paperSize {
		size = apps.Paper
	}
	for _, app := range []string{"lu", "water-spatial"} {
		for _, proto := range dsmsim.Protocols {
			for _, g := range dsmsim.Granularities {
				name := fmt.Sprintf("%s/%s/%d", app, proto, g)
				b.Run(name, func(b *testing.B) {
					var speedup float64
					for i := 0; i < b.N; i++ {
						seqM, _ := dsmsim.NewMachine(dsmsim.Config{Sequential: true, BlockSize: 4096})
						sa, _ := dsmsim.NewApp(app, size)
						seq, err := seqM.Run(context.Background(), sa)
						if err != nil {
							b.Fatal(err)
						}
						m, _ := dsmsim.NewMachine(dsmsim.Config{
							Nodes: *benchNodes, BlockSize: g, Protocol: proto,
						})
						pa, _ := dsmsim.NewApp(app, size)
						res, err := m.Run(context.Background(), pa)
						if err != nil {
							b.Fatal(err)
						}
						speedup = float64(seq.Time) / float64(res.Time)
					}
					b.ReportMetric(speedup, "speedup")
				})
			}
		}
	}
}

// BenchmarkAblationHomes compares first-touch home migration against
// static round-robin homes (DESIGN.md design decision 1) on HLRC at page
// granularity, where home placement matters most.
func BenchmarkAblationHomes(b *testing.B) {
	size := apps.SizeClass(apps.Small)
	if *paperSize {
		size = apps.Paper
	}
	for _, static := range []bool{false, true} {
		name := "first-touch"
		if static {
			name = "static"
		}
		b.Run(name, func(b *testing.B) {
			var t dsmsim.Time
			for i := 0; i < b.N; i++ {
				m, _ := dsmsim.NewMachine(dsmsim.Config{
					Nodes: *benchNodes, BlockSize: 4096, Protocol: dsmsim.HLRC,
					StaticHomes: static,
				})
				app, _ := dsmsim.NewApp("ocean-rowwise", size)
				res, err := m.Run(context.Background(), app)
				if err != nil {
					b.Fatal(err)
				}
				t = res.Time
			}
			b.ReportMetric(float64(t)/1e6, "simulated-ms")
		})
	}
}

// BenchmarkAblationNotify compares polling against interrupts (design
// decision 3; the paper's §5.4) on LU, the application most sensitive to
// the notification mechanism.
func BenchmarkAblationNotify(b *testing.B) {
	size := apps.SizeClass(apps.Small)
	if *paperSize {
		size = apps.Paper
	}
	for _, notify := range []dsmsim.Notify{dsmsim.Polling, dsmsim.Interrupt} {
		b.Run(notify.String(), func(b *testing.B) {
			var t dsmsim.Time
			for i := 0; i < b.N; i++ {
				m, _ := dsmsim.NewMachine(dsmsim.Config{
					Nodes: *benchNodes, BlockSize: 4096, Protocol: dsmsim.SC,
					Notify: notify,
				})
				app, _ := dsmsim.NewApp("lu", size)
				res, err := m.Run(context.Background(), app)
				if err != nil {
					b.Fatal(err)
				}
				t = res.Time
			}
			b.ReportMetric(float64(t)/1e6, "simulated-ms")
		})
	}
}

// BenchmarkSingleRun measures one deterministic simulation of the Figure 1
// workload (LU at the Small size) per protocol × granularity point — the
// wall-clock ns, B and allocs the simulator itself spends on a single run.
// This is the inner loop every sweep multiplies, so `make bench-json`
// tracks it (with BenchmarkFig1 and BenchmarkEngineDispatch) against the
// recorded baseline in BENCH_hotpath.json.
func BenchmarkSingleRun(b *testing.B) {
	size := apps.SizeClass(apps.Small)
	if *paperSize {
		size = apps.Paper
	}
	for _, protoName := range dsmsim.Protocols {
		for _, g := range dsmsim.Granularities {
			b.Run(fmt.Sprintf("%s/%d", protoName, g), func(b *testing.B) {
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					m, err := dsmsim.NewMachine(dsmsim.Config{
						Nodes: *benchNodes, BlockSize: g, Protocol: protoName,
					})
					if err != nil {
						b.Fatal(err)
					}
					app, err := dsmsim.NewApp("lu", size)
					if err != nil {
						b.Fatal(err)
					}
					if _, err := m.Run(context.Background(), app); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
	// Scaling points past the old 64-node ceiling: FFT and LU at page
	// granularity on 256 and 1024 nodes. These track the cost of the
	// sparse directory tables and compact copysets at large node counts —
	// the regime where dense per-node metadata used to dominate.
	for _, nodes := range []int{256, 1024} {
		for _, appName := range []string{"fft", "lu"} {
			for _, protoName := range dsmsim.Protocols {
				b.Run(fmt.Sprintf("scale/%s/%s/%dn", appName, protoName, nodes), func(b *testing.B) {
					b.ReportAllocs()
					for i := 0; i < b.N; i++ {
						app, err := dsmsim.NewApp(appName, size)
						if err != nil {
							b.Fatal(err)
						}
						cfg := dsmsim.Config{Nodes: nodes, BlockSize: 4096, Protocol: protoName}
						if _, err := dsmsim.Start(context.Background(), cfg, app); err != nil {
							b.Fatal(err)
						}
					}
				})
			}
		}
	}
}

// BenchmarkEngineOverhead measures the raw simulator event throughput —
// the substrate's wall-clock cost per simulated coherence event.
func BenchmarkEngineOverhead(b *testing.B) {
	app, _ := dsmsim.NewApp("lu", apps.Small)
	_ = app
	for i := 0; i < b.N; i++ {
		m, _ := dsmsim.NewMachine(dsmsim.Config{Nodes: 8, BlockSize: 256, Protocol: dsmsim.SC})
		a, _ := dsmsim.NewApp("lu", apps.Small)
		if _, err := m.Run(context.Background(), a); err != nil {
			b.Fatal(err)
		}
	}
}

// --- Simulator primitive microbenchmarks -----------------------------------
// These measure the wall-clock cost of the simulator itself (not simulated
// time): one remote fault round trip, one lock handoff, one barrier episode.

type primApp struct {
	heap  int // shared heap bytes; 0 means 1 MB
	setup func(h *dsmsim.Heap)
	run   func(c *dsmsim.Ctx)
}

func (a *primApp) Info() dsmsim.AppInfo {
	heap := a.heap
	if heap == 0 {
		heap = 1 << 20
	}
	return dsmsim.AppInfo{Name: "prim", HeapBytes: heap}
}
func (a *primApp) Setup(h *dsmsim.Heap) {
	if a.setup != nil {
		a.setup(h)
	}
}
func (a *primApp) Run(c *dsmsim.Ctx)           { a.run(c) }
func (a *primApp) Verify(h *dsmsim.Heap) error { return nil }

func benchPrim(b *testing.B, protocol string, iters int, run func(c *dsmsim.Ctx, iters int)) {
	b.Helper()
	benchPrimOn(b, dsmsim.Config{Nodes: 2, BlockSize: 256, Protocol: protocol}, 0, iters, run)
}

// benchPrimOn runs a primApp with the given heap on cfg once per
// iteration; wall-ns/op is per primitive (iters per run).
func benchPrimOn(b *testing.B, cfg dsmsim.Config, heap, iters int, run func(c *dsmsim.Ctx, iters int)) {
	b.Helper()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		m, err := dsmsim.NewMachine(cfg)
		if err != nil {
			b.Fatal(err)
		}
		app := &primApp{heap: heap, run: func(c *dsmsim.Ctx) { run(c, iters) }}
		if _, err := m.Run(context.Background(), app); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*iters), "wall-ns/op")
}

// BenchmarkFaultRoundTrip: node 1 repeatedly invalidates and refetches one
// block owned by node 0 — a full SC coherence round trip per iteration.
func BenchmarkFaultRoundTrip(b *testing.B) {
	const iters = 200
	benchPrim(b, dsmsim.SC, iters, func(c *dsmsim.Ctx, n int) {
		if c.ID() == 0 {
			for i := 0; i < n; i++ {
				c.WriteI64(0, int64(i))
			}
		} else {
			for i := 0; i < n; i++ {
				_ = c.ReadI64(0)
			}
		}
		c.Barrier()
	})
}

// BenchmarkLockHandoff: two nodes alternate on one lock.
func BenchmarkLockHandoff(b *testing.B) {
	const iters = 200
	benchPrim(b, dsmsim.HLRC, iters, func(c *dsmsim.Ctx, n int) {
		for i := 0; i < n; i++ {
			c.Lock(0)
			c.Unlock(0)
		}
		c.Barrier()
	})
}

// BenchmarkBarrierEpisode: repeated global barriers.
func BenchmarkBarrierEpisode(b *testing.B) {
	const iters = 200
	benchPrim(b, dsmsim.HLRC, iters, func(c *dsmsim.Ctx, n int) {
		for i := 0; i < n; i++ {
			c.Barrier()
		}
	})
}

// BenchmarkBarrierRelease: barrier episodes at 1024 nodes under the two
// LRC protocols, where every interval carries a write notice, so each
// release names about one interval per node for each of the 1024
// receivers. Each node writes one word before every barrier, to a block
// (one per node) no one else writes that round; the block rotates so the
// write faults and is published every round. B/op is per run of iters
// barriers; shipping the notices as per-receiver copies costs O(nodes²)
// bytes per barrier, while log windows keep it to the clocks.
func BenchmarkBarrierRelease(b *testing.B) {
	const nodes, block, iters = 1024, 64, 8
	for _, p := range []string{dsmsim.SWLRC, dsmsim.HLRC} {
		b.Run(fmt.Sprintf("%s/%d", p, nodes), func(b *testing.B) {
			cfg := dsmsim.Config{Nodes: nodes, BlockSize: block, Protocol: p}
			benchPrimOn(b, cfg, nodes*block, iters, func(c *dsmsim.Ctx, n int) {
				for i := 0; i < n; i++ {
					c.WriteI64((c.ID()+i)%nodes*block, int64(i))
					c.Barrier()
				}
			})
		})
	}
}

// BenchmarkSweep measures the checkpoint/fork sweep planner on a
// fault-grid sweep whose twelve variants share one warmup prefix (gated
// plans arm at barrier 14 of Ocean's 16 — a fault-sensitivity study of
// the final iteration across eleven seeds): "flat" simulates every run's
// warmup from scratch, "forked" simulates the prefix once and forks the
// checkpoint per variant. Output is byte-identical between the two modes
// (TestSweepForkByteIdentical); only wall clock differs — BENCH_sweep.json
// records the ratio. Verification is off so the ratio measures simulation
// work, not the (identical) result checking.
func BenchmarkSweep(b *testing.B) {
	grid := []dsmsim.FaultVariant{{Name: "none"}}
	for i := 1; i <= 11; i++ {
		grid = append(grid, dsmsim.FaultVariant{
			Name: fmt.Sprintf("s%d", i),
			Plan: dsmsim.NewFaultPlan(dsmsim.Drop(0.02), dsmsim.FaultSeed(uint64(i)),
				dsmsim.StartAtBarrier(14)),
		})
	}
	spec := dsmsim.SweepSpec{
		Apps: []string{"ocean-rowwise"}, Protocols: []string{dsmsim.HLRC},
		Granularities: []int{4096}, Nodes: *benchNodes, SkipBaselines: true,
	}
	for _, mode := range []struct {
		name string
		fork bool
	}{{"flat", false}, {"forked", true}} {
		b.Run(mode.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				// Serial workers: the ratio then reflects simulation work
				// saved, not scheduling luck.
				opts := []dsmsim.Option{dsmsim.WithFaultGrid(grid...),
					dsmsim.WithParallelism(1), dsmsim.WithVerify(false)}
				if mode.fork {
					opts = append(opts, dsmsim.WithFork())
				}
				res, err := dsmsim.Sweep(context.Background(), spec, opts...)
				if err != nil {
					b.Fatal(err)
				}
				if mode.fork && res.Fork.ForkedRuns != len(grid) {
					b.Fatalf("forked runs = %d, want %d", res.Fork.ForkedRuns, len(grid))
				}
			}
		})
	}
}
