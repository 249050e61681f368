// Command dsmrun executes (application, protocol, granularity,
// notification) configurations through the public dsmsim API.
//
// With a single configuration it prints the execution time, the speedup
// against the sequential baseline, and the full statistics breakdown:
//
//	dsmrun -app lu -protocol hlrc -block 4096 -notify polling -nodes 16 -size paper
//
// Every selector also accepts a comma-separated list (or "all"); the cross
// product then runs as a parallel sweep and prints one speedup row per
// configuration, with output byte-identical at every -parallel setting:
//
//	dsmrun -app lu,fft -protocol all -block 64,4096 -parallel 8
//
// Ctrl-C cancels in-flight simulations between virtual-time steps.
package main

import (
	"bufio"
	"context"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"strconv"
	"strings"
	"time"

	"dsmsim"
	"dsmsim/internal/faults"
	"dsmsim/internal/profiling"
)

// The flags are read where they apply: main validates them and builds the
// option list shared by the single-run and sweep paths, and runOne and
// runSweep add what only they use.
var (
	app      = flag.String("app", "lu", "application(s), comma-separated or 'all': "+strings.Join(dsmsim.AppNames(), ", "))
	protocol = flag.String("protocol", "hlrc", "coherence protocol(s), comma-separated or 'all': "+strings.Join(dsmsim.AllProtocols(), ", "))
	block    = flag.String("block", "4096", "coherence granularity list in bytes (64, 256, 1024, 4096) or 'all'")
	notify   = flag.String("notify", "polling", "message notification(s): polling, interrupt, or both comma-separated")
	nodes    = flag.Int("nodes", 16, "cluster size")
	size     = flag.String("size", "small", "problem size: small or paper")
	verify   = flag.Bool("verify", true, "check numeric results against the sequential reference")
	parallel = flag.Int("parallel", 0, "max simulation runs in flight for sweeps (0 = one per CPU)")
	static   = flag.Bool("static-homes", false, "disable first-touch home migration (ablation; single runs only)")
	trace    = flag.String("trace", "", "write a deterministic line-format event trace (single runs only)")
	traceJS  = flag.String("trace-json", "", "write a Chrome trace-event JSON file (single runs only)")
	csvPath  = flag.String("csv", "", "append one machine-readable record per run to this file")
	cpuProf  = flag.String("cpuprofile", "", "write a CPU profile to this file")
	memProf  = flag.String("memprofile", "", "write an allocation profile to this file at exit")

	prof    = flag.Bool("prof", false, "attach the sharing-pattern profiler (per-region taxonomy and true/false-sharing attribution)")
	profCSV = flag.String("prof-csv", "", "write sharing profiles as CSV to this file (implies -prof; appends for sweeps)")
	profTop = flag.Int("prof-top", 10, "regions shown in the single-run sharing report (0 = all)")

	crit    = flag.Bool("crit", false, "attach the critical-path profiler (exact longest dependency chain, attributed per component/node/region)")
	critCSV = flag.String("crit-csv", "", "write critical-path component rows as CSV to this file (implies -crit; appends for sweeps)")
	critTop = flag.Int("crit-top", 5, "nodes/regions shown in the single-run critical-path report (0 = all)")
	whatIf  = flag.String("whatif", "", "what-if analysis: rescale one cost class (compute, msg, svc, lock, barrier) and re-simulate, e.g. 'lock=0.5'; single runs print predicted vs measured speedup")

	sampleEvery = flag.Duration("sample-every", 0, "virtual-time metrics sampling interval (e.g. 100us; 0 = off)")
	sampleCSV   = flag.String("sample-csv", "", "write the sampler time-series as CSV to this file (needs -sample-every)")
	sampleJSON  = flag.String("sample-json", "", "write Chrome-trace counter tracks to this file (single runs only; needs -sample-every)")
	metricsAddr = flag.String("metrics-addr", "", "serve live sweep metrics over HTTP on this address (sweeps only)")

	faultSpec = flag.String("faults", "", "deterministic fault plan: drop=P,dup=P,jitter=DUR,partition=A-B@FROM:TO,linkdrop=A-B:P,rto=DUR,seed=N,start=K")
	faultSeed = flag.Uint64("fault-seed", 0, "override the fault plan's PRNG seed (0 keeps the plan's seed)")
	straggler = flag.String("straggler", "", "straggler node(s): NODExFACTOR[@FROM:TO], comma-separated (e.g. '3x2.5' or '0x4@10ms:20ms')")

	faultGrid  = flag.String("fault-grid", "", "semicolon-separated fault variants NAME[:SPEC] (SPEC as in -faults; empty = healthy); every configuration runs once per variant")
	fork       = flag.Bool("fork", false, "share warmup prefixes across -fault-grid variants: simulate each group's pre-fault prefix once and fork it per variant (output stays byte-identical)")
	forkWarmup = flag.Int("fork-warmup", 0, "gate every fault plan on barrier K (adds start=K to -faults and each -fault-grid variant)")
)

func main() {
	flag.Parse()
	defer profiling.Start(*cpuProf, *memProf)()

	sz := dsmsim.Small
	if *size == "paper" {
		sz = dsmsim.Paper
	}

	spec := dsmsim.SweepSpec{
		Apps:          splitList(*app, dsmsim.AppNames()),
		Protocols:     splitList(*protocol, dsmsim.AllProtocols()),
		Granularities: intList(*block, dsmsim.Granularities),
		Notify:        notifyList(*notify),
		Nodes:         *nodes,
		Size:          sz,
	}
	points := len(spec.Apps) * len(spec.Protocols) * len(spec.Granularities) * len(spec.Notify)
	var plan *dsmsim.FaultPlan
	if *faultSpec != "" || *faultSeed != 0 || *straggler != "" {
		var err error
		if plan, err = faults.Build(*faultSpec, *straggler, *faultSeed, *forkWarmup); err != nil {
			fatal(err)
		}
	}
	grid := parseGrid(*faultGrid, *forkWarmup)
	if *fork && len(grid) == 0 {
		fatal(fmt.Errorf("-fork needs a -fault-grid to share warmup prefixes across"))
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()

	var scale *dsmsim.CritScale
	if *whatIf != "" {
		var err error
		if scale, err = dsmsim.ParseWhatIf(*whatIf); err != nil {
			fatal(err)
		}
	}
	single := points == 1 && len(grid) == 0
	opts := []dsmsim.Option{
		dsmsim.WithVerify(*verify),
		dsmsim.WithFaults(plan),
		dsmsim.WithSampleEvery(dsmsim.Time(*sampleEvery)),
		dsmsim.WithParallelism(*parallel),
		dsmsim.WithProgress(os.Stderr),
		dsmsim.WithFaultGrid(grid...),
	}
	if *prof || *profCSV != "" {
		opts = append(opts, dsmsim.WithShareProfile())
	}
	// A single run's what-if comparison needs the baseline's critical path
	// for its prediction.
	if *crit || *critCSV != "" || (single && scale != nil) {
		opts = append(opts, dsmsim.WithCritPath())
	}
	if *fork {
		opts = append(opts, dsmsim.WithFork())
	}
	if single {
		if *metricsAddr != "" {
			fatal(fmt.Errorf("-metrics-addr applies to sweeps only (1 configuration selected)"))
		}
		runOne(ctx, spec, plan, scale, opts)
		return
	}
	if *static || *trace != "" || *traceJS != "" || *sampleJSON != "" {
		fatal(fmt.Errorf("-static-homes/-trace/-trace-json/-sample-json apply to single runs only (%d configurations selected)", points))
	}
	runSweep(ctx, spec, len(grid) > 0, append(opts, dsmsim.WithWhatIf(scale)))
}

// parseGrid parses the -fault-grid syntax: semicolon-separated
// NAME[:SPEC] variants, SPEC in the -faults clause language. warmup > 0
// adds a start=K gate to every non-healthy variant.
func parseGrid(s string, warmup int) []dsmsim.FaultVariant {
	if s == "" {
		return nil
	}
	var grid []dsmsim.FaultVariant
	for _, part := range strings.Split(s, ";") {
		if part = strings.TrimSpace(part); part == "" {
			continue
		}
		name, spec, _ := strings.Cut(part, ":")
		v := dsmsim.FaultVariant{Name: strings.TrimSpace(name)}
		if spec != "" {
			plan, err := faults.Build(spec, "", 0, warmup)
			if err != nil {
				fatal(fmt.Errorf("-fault-grid variant %q: %v", v.Name, err))
			}
			v.Plan = plan
		}
		grid = append(grid, v)
	}
	return grid
}

// appendFile opens path for appending, creating it if needed.
func appendFile(path string) *os.File {
	f, err := os.OpenFile(path, os.O_APPEND|os.O_CREATE|os.O_WRONLY, 0o644)
	if err != nil {
		fatal(err)
	}
	return f
}

// runSweep fans the cross product out over the worker pool and prints one
// speedup row per configuration.
func runSweep(ctx context.Context, spec dsmsim.SweepSpec, hasGrid bool, opts []dsmsim.Option) {
	if *profCSV != "" {
		f := appendFile(*profCSV)
		defer f.Close()
		opts = append(opts, dsmsim.WithProfCSV(f))
	}
	if *critCSV != "" {
		f := appendFile(*critCSV)
		defer f.Close()
		opts = append(opts, dsmsim.WithCritCSV(f))
	}
	if *csvPath != "" {
		f := appendFile(*csvPath)
		defer f.Close()
		opts = append(opts, dsmsim.WithCSV(f))
	}
	if *sampleCSV != "" {
		if *sampleEvery <= 0 {
			fatal(fmt.Errorf("-sample-csv needs -sample-every"))
		}
		f := appendFile(*sampleCSV)
		defer f.Close()
		opts = append(opts, dsmsim.WithSampleCSV(f))
	}
	if *metricsAddr != "" {
		reg := dsmsim.NewMetrics()
		addr, stop, err := reg.Serve(*metricsAddr)
		if err != nil {
			fatal(err)
		}
		defer stop()
		fmt.Fprintf(os.Stderr, "serving live metrics on http://%s/metrics\n", addr)
		opts = append(opts, dsmsim.WithMetrics(reg))
	}
	start := time.Now()
	res, err := dsmsim.Sweep(ctx, spec, opts...)
	if err != nil {
		fatal(err)
	}
	wall := time.Since(start)
	if hasGrid {
		fmt.Printf("%-18s %-6s %6s %-9s %-10s %14s %8s\n", "app", "proto", "block", "notify", "fault", "time", "speedup")
	} else {
		fmt.Printf("%-18s %-6s %6s %-9s %14s %8s\n", "app", "proto", "block", "notify", "time", "speedup")
	}
	for _, run := range res.Runs {
		if run.Point.Sequential {
			continue
		}
		if hasGrid {
			fmt.Printf("%-18s %-6s %5dB %-9s %-10s %14v %8.2f\n",
				run.Point.App, run.Point.Protocol, run.Point.Block, run.Point.Notify,
				run.Point.Fault, run.Result.Time, res.Speedup(run))
		} else {
			fmt.Printf("%-18s %-6s %5dB %-9s %14v %8.2f\n",
				run.Point.App, run.Point.Protocol, run.Point.Block, run.Point.Notify,
				run.Result.Time, res.Speedup(run))
		}
	}
	if *fork {
		printForkSummary(res.Fork, wall)
	}
}

// printForkSummary reports what prefix sharing bought the sweep: the
// estimated flat wall time is the measured one plus the warmup
// re-simulation the forks avoided.
func printForkSummary(fs dsmsim.ForkStats, wall time.Duration) {
	if fs.ForkedRuns == 0 {
		fmt.Printf("fork: no runs forked (grid not forkable: ungated plans, non-barrier apps, or <2 forkable variants)\n")
		return
	}
	flat := wall + fs.SavedWall
	fmt.Printf("fork: %d warmup prefixes served %d forked runs; wall %v vs ~%v flat (est. %.2fx speedup)\n",
		fs.Prefixes, fs.ForkedRuns, wall.Round(time.Millisecond), flat.Round(time.Millisecond),
		float64(flat)/float64(wall))
}

// runOne executes a single configuration with the full statistics dump.
// A what-if scale re-simulates the same configuration after the baseline.
func runOne(ctx context.Context, spec dsmsim.SweepSpec, plan *dsmsim.FaultPlan, whatIf *dsmsim.CritScale, opts []dsmsim.Option) {
	if (*sampleCSV != "" || *sampleJSON != "") && *sampleEvery <= 0 {
		fatal(fmt.Errorf("-sample-csv/-sample-json need -sample-every"))
	}
	cfg := dsmsim.Config{
		Nodes: spec.Nodes, BlockSize: spec.Granularities[0], Protocol: spec.Protocols[0],
		Notify: spec.Notify[0], StaticHomes: *static,
	}
	runOpts := opts
	if *trace != "" {
		f, err := os.Create(*trace)
		if err != nil {
			fatal(err)
		}
		defer f.Close()
		w := bufio.NewWriter(f)
		defer w.Flush()
		runOpts = append(runOpts, dsmsim.WithTrace(w))
	}
	if *traceJS != "" {
		f, err := os.Create(*traceJS)
		if err != nil {
			fatal(err)
		}
		defer f.Close()
		w := bufio.NewWriter(f)
		defer w.Flush()
		runOpts = append(runOpts, dsmsim.WithTraceJSON(w))
	}
	workload, err := dsmsim.NewApp(spec.Apps[0], spec.Size)
	if err != nil {
		fatal(err)
	}
	res, err := dsmsim.Start(ctx, cfg, workload, runOpts...)
	if err != nil {
		fatal(err)
	}

	// Sequential baseline for the speedup.
	seqApp, _ := dsmsim.NewApp(spec.Apps[0], spec.Size)
	seq, err := dsmsim.Start(ctx, dsmsim.Config{Sequential: true, BlockSize: 4096}, seqApp)
	if err != nil {
		fatal(err)
	}

	fmt.Printf("%s  protocol=%s  block=%dB  notify=%s  nodes=%d\n",
		res.App, res.Protocol, res.BlockSize, res.Notify, res.Nodes)
	fmt.Printf("  parallel time   %12v\n", res.Time)
	fmt.Printf("  sequential time %12v\n", seq.Time)
	fmt.Printf("  speedup         %12.2f\n", float64(seq.Time)/float64(res.Time))
	fmt.Printf("  read faults     %12d\n", res.Total.ReadFaults)
	fmt.Printf("  write faults    %12d\n", res.Total.WriteFaults)
	fmt.Printf("  invalidations   %12d\n", res.Total.Invalidations)
	fmt.Printf("  twins/diffs     %6d / %d applied %d\n", res.Total.TwinsCreated, res.Total.DiffsCreated, res.Total.DiffsApplied)
	fmt.Printf("  write notices   %12d\n", res.Total.WriteNoticesSent)
	fmt.Printf("  lock acquires   %12d\n", res.Total.LockAcquires)
	fmt.Printf("  barriers/node   %12d\n", res.Total.BarrierEntries/int64(res.Nodes))
	fmt.Printf("  messages        %12d  (%.2f MB)\n", res.NetMsgs, float64(res.NetBytes)/1e6)
	if plan != nil {
		fmt.Printf("  reliability     retx=%d timeouts=%d wire-drops=%d dups=%d acks=%d\n",
			res.Retransmits, res.Timeouts, res.WireDrops, res.Duplicates, res.AcksSent)
		if res.RetransmitLatency.Count > 0 {
			fmt.Printf("    retransmit   %s\n", res.RetransmitLatency.Summary())
		}
	}
	fmt.Printf("  blocks written  %12d  (multi-writer: %d)\n", res.BlocksWritten, res.MultiWriterBlocks)
	fmt.Printf("  time breakdown (sums over %d nodes):\n", res.Nodes)
	fmt.Printf("    compute  %v  read-stall %v  write-stall %v\n",
		res.Total.Compute, res.Total.ReadStall, res.Total.WriteStall)
	fmt.Printf("    lock     %v  barrier    %v  flush       %v  stolen %v\n",
		res.Total.LockStall, res.Total.BarrierStall, res.Total.FlushTime, res.Total.Stolen)
	fmt.Printf("  latency distributions:\n")
	fmt.Printf("    read fault   %s\n", res.Total.ReadFaultTime.Summary())
	fmt.Printf("    write fault  %s\n", res.Total.WriteFaultTime.Summary())
	fmt.Printf("    message      %s\n", res.MsgLatency.Summary())
	fmt.Printf("    lock wait    %s\n", res.Total.LockWait.Summary())
	fmt.Printf("    barrier wait %s\n", res.Total.BarrierWait.Summary())
	printPhases(res)
	if res.Sharing != nil {
		var rep strings.Builder
		res.Sharing.WriteText(&rep, *profTop)
		fmt.Print("  " + strings.ReplaceAll(strings.TrimSuffix(rep.String(), "\n"), "\n", "\n  ") + "\n")
		if *profCSV != "" {
			f, err := os.Create(*profCSV)
			if err != nil {
				fatal(err)
			}
			if err := res.Sharing.WriteCSV(f); err != nil {
				fatal(err)
			}
			if err := f.Close(); err != nil {
				fatal(err)
			}
		}
	}

	if res.CritPath != nil {
		var rep strings.Builder
		res.CritPath.WriteText(&rep, *critTop)
		fmt.Print("  " + strings.ReplaceAll(strings.TrimSuffix(rep.String(), "\n"), "\n", "\n  ") + "\n")
		if *critCSV != "" {
			f, err := os.Create(*critCSV)
			if err != nil {
				fatal(err)
			}
			if err := res.CritPath.WriteCSV(f); err != nil {
				fatal(err)
			}
			if err := f.Close(); err != nil {
				fatal(err)
			}
		}
	}
	if whatIf != nil {
		wiApp, err := dsmsim.NewApp(spec.Apps[0], spec.Size)
		if err != nil {
			fatal(err)
		}
		wres, err := dsmsim.Start(ctx, cfg, wiApp, append(opts, dsmsim.WithWhatIf(whatIf))...)
		if err != nil {
			fatal(err)
		}
		pred := res.CritPath.Predict(whatIf)
		fmt.Printf("  what-if %s:\n", whatIf)
		fmt.Printf("    baseline        %14v\n", res.Time)
		fmt.Printf("    path-predicted  %14v  (%.3fx speedup)\n", pred, ratio(res.Time, pred))
		fmt.Printf("    re-simulated    %14v  (%.3fx speedup)\n", wres.Time, ratio(res.Time, wres.Time))
	}

	if *sampleCSV != "" {
		if err := writeSamples(*sampleCSV, res, (*dsmsim.Series).WriteCSV); err != nil {
			fatal(err)
		}
	}
	if *sampleJSON != "" {
		if err := writeSamples(*sampleJSON, res, (*dsmsim.Series).WriteCounterJSON); err != nil {
			fatal(err)
		}
	}
}

// ratio guards the x/y speedup display against a zero counterfactual.
func ratio(x, y dsmsim.Time) float64 {
	if y == 0 {
		return 0
	}
	return float64(x) / float64(y)
}

// printPhases renders the phase-resolved cost breakdown (the paper's
// Figure-2 categories per barrier epoch). The component columns plus idle
// sum exactly to nodes × parallel time — the closing line shows the check.
func printPhases(res *dsmsim.Result) {
	if len(res.Phases) == 0 {
		return
	}
	const maxRows = 12
	fmt.Printf("  phase breakdown (%d phases at barrier epochs; sums over %d nodes):\n",
		len(res.Phases), res.Nodes)
	fmt.Printf("    %-7s %14s %14s %14s %14s %14s\n",
		"phase", "span", "compute", "data", "sync", "proto")
	row := func(label string, span, compute, data, sync, proto dsmsim.Time) {
		fmt.Printf("    %-7s %14v %14v %14v %14v %14v\n", label, span, compute, data, sync, proto)
	}
	shown := res.Phases
	var rest []dsmsim.Phase
	if len(shown) > maxRows {
		shown, rest = shown[:maxRows], shown[maxRows:]
	}
	var span, compute, data, sync, proto dsmsim.Time
	add := func(ph dsmsim.Phase) (s, c, d, y, p dsmsim.Time) {
		s, c, d, y, p = ph.Span, ph.Delta.Compute, ph.DataWait(), ph.SyncWait(), ph.Overhead()
		span += s
		compute += c
		data += d
		sync += y
		proto += p
		return
	}
	for _, ph := range shown {
		s, c, d, y, p := add(ph)
		row(fmt.Sprintf("%d", ph.Index), s, c, d, y, p)
	}
	if len(rest) > 0 {
		var s, c, d, y, p dsmsim.Time
		for _, ph := range rest {
			rs, rc, rd, ry, rp := add(ph)
			s, c, d, y, p = s+rs, c+rc, d+rd, y+ry, p+rp
		}
		row(fmt.Sprintf("%d-%d", rest[0].Index, rest[len(rest)-1].Index), s, c, d, y, p)
	}
	row("total", span, compute, data, sync, proto)
	fmt.Printf("    idle (after last barrier) %v;  total+idle = %v = %d nodes x %v\n",
		res.Total.Idle, span+res.Total.Idle, res.Nodes, res.Time)
}

// writeSamples streams the run's sampler series to path via write.
func writeSamples(path string, res *dsmsim.Result, write func(*dsmsim.Series, io.Writer) error) error {
	if res.Samples == nil {
		return fmt.Errorf("no sampler series on the result (is -sample-every set?)")
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	if err := write(res.Samples, w); err != nil {
		f.Close()
		return err
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// splitList parses a comma-separated selector; "all" (or "*") yields all.
func splitList(s string, all []string) []string {
	if s == "all" || s == "*" {
		return all
	}
	parts := strings.Split(s, ",")
	out := parts[:0]
	for _, p := range parts {
		if p = strings.TrimSpace(p); p != "" {
			out = append(out, p)
		}
	}
	return out
}

func intList(s string, all []int) []int {
	if s == "all" || s == "*" {
		return all
	}
	var out []int
	for _, p := range strings.Split(s, ",") {
		if p = strings.TrimSpace(p); p == "" {
			continue
		}
		v, err := strconv.Atoi(p)
		if err != nil {
			fatal(fmt.Errorf("bad block size %q: %v", p, err))
		}
		out = append(out, v)
	}
	return out
}

func notifyList(s string) []dsmsim.Notify {
	var out []dsmsim.Notify
	for _, p := range splitList(s, []string{"polling", "interrupt"}) {
		switch p {
		case "polling":
			out = append(out, dsmsim.Polling)
		case "interrupt":
			out = append(out, dsmsim.Interrupt)
		default:
			fatal(fmt.Errorf("unknown notification %q (want polling or interrupt)", p))
		}
	}
	return out
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "dsmrun:", err)
	os.Exit(1)
}
