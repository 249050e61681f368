// Command dsmbench regenerates the paper's tables and figures.
//
// Usage:
//
//	dsmbench -exp fig1 -size paper -nodes 16      # one experiment
//	dsmbench -exp all -size paper                 # everything, in order
//	dsmbench -exp all -parallel 8                 # 8 runs in flight
//	dsmbench -list                                # name every experiment
//
// The selected experiments' runs are prefetched over a worker pool
// (-parallel, defaulting to one worker per CPU) and memoized, so "-exp
// all" reuses the Figure 1 sweep for the fault tables and the Tables
// 16/17 statistics, and the tables render from completed runs. Output —
// tables, progress lines, CSV records — is byte-identical at every
// -parallel setting, including fully serial -parallel=1.
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"time"

	"strconv"
	"strings"

	"dsmsim/internal/apps"
	"dsmsim/internal/core"
	"dsmsim/internal/critpath"
	"dsmsim/internal/faults"
	"dsmsim/internal/harness"
	"dsmsim/internal/metrics"
	"dsmsim/internal/profiling"
	"dsmsim/internal/sim"
	"dsmsim/internal/sweep"
)

func main() {
	var (
		exp      = flag.String("exp", "all", "experiment name (see -list) or 'all'")
		protocol = flag.String("protocol", "", "override the matrix experiments' protocol set, comma-separated or 'all' (default: the paper's "+strings.Join(core.Protocols, ", ")+"; registered: "+strings.Join(core.ProtocolNames(), ", ")+")")
		size     = flag.String("size", "small", "problem size: small or paper")
		nodes    = flag.Int("nodes", 16, "cluster size")
		verify   = flag.Bool("verify", false, "verify every run's numeric result (slow at paper size)")
		progress = flag.Bool("progress", true, "print one line per completed run to stderr")
		csvPath  = flag.String("csv", "", "append one machine-readable record per run to this file")
		latency  = flag.Bool("latency", false, "print latency-distribution summaries with progress lines")
		parallel = flag.Int("parallel", 0, "max simulation runs in flight (0 = one per CPU, 1 = serial)")
		list     = flag.Bool("list", false, "list experiments and exit")
		cpuProf  = flag.String("cpuprofile", "", "write a CPU profile to this file")
		memProf  = flag.String("memprofile", "", "write an allocation profile to this file at exit")

		prof    = flag.Bool("prof", false, "attach the sharing-pattern profiler to every matrix run")
		profCSV = flag.String("prof-csv", "", "append every run's sharing profile as CSV to this file (implies -prof)")

		crit    = flag.Bool("crit", false, "attach the critical-path profiler to every matrix run")
		critCSV = flag.String("crit-csv", "", "append every run's critical-path component row as CSV to this file (implies -crit)")
		whatIf  = flag.String("whatif", "", "rescale one machine cost class on every matrix run, e.g. 'lock=0.5' (tables show the rescaled machine)")

		sampleEvery  = flag.Duration("sample-every", 0, "virtual-time metrics sampling interval (e.g. 100us; 0 = off)")
		sampleCSV    = flag.String("sample-csv", "", "append every run's sampler time-series to this file (needs -sample-every)")
		metricsAddr  = flag.String("metrics-addr", "", "serve live sweep metrics over HTTP on this address")
		metricsAfter = flag.Duration("metrics-linger", 0, "keep serving -metrics-addr this long after the run (for scrapers)")

		faultSpec = flag.String("faults", "", "apply a deterministic fault plan to every matrix run: drop=P,dup=P,jitter=DUR,partition=A-B@FROM:TO,seed=N,start=K")
		faultSeed = flag.String("fault-seed", "", "fault plan PRNG seed(s), comma-separated; two or more expand the matrix into a per-seed fault grid (tables render the first seed)")
		straggler = flag.String("straggler", "", "straggler node(s): NODExFACTOR[@FROM:TO], comma-separated")

		fork       = flag.Bool("fork", false, "share warmup prefixes across the per-seed fault grid (needs -fault-seed with >= 2 seeds and a gated plan); output stays byte-identical")
		forkWarmup = flag.Int("fork-warmup", 0, "gate the fault plan(s) on barrier K (adds start=K)")
	)
	flag.Parse()
	defer profiling.Start(*cpuProf, *memProf)()

	if *list {
		for _, e := range harness.Experiments() {
			fmt.Printf("%-10s %s\n", e.Name, e.Desc)
		}
		return
	}

	opts := harness.Options{
		Options: sweep.Options{Size: apps.Small, Verify: *verify, Workers: *parallel},
		Nodes:   *nodes,
		Out:     os.Stdout,
	}
	if *size == "paper" {
		opts.Size = apps.Paper
	}
	opts.Protocols = protocolList(*protocol)
	if *progress {
		opts.Progress = os.Stderr
	}
	opts.Histograms = *latency
	if *csvPath != "" {
		// Append, as documented: records from successive invocations
		// accumulate. The CSV sink writes the header exactly once and
		// suppresses it by itself when the file already holds records.
		f := appendFile(*csvPath)
		defer f.Close()
		opts.CSV = f
	}
	seeds := seedList(*faultSeed)
	if len(seeds) > 1 {
		// Two or more seeds expand the matrix into a fault grid: one run
		// per seed of the same plan, forkable across the shared warmup.
		if *faultSpec == "" {
			fatal(fmt.Errorf("-fault-seed with multiple seeds needs -faults"))
		}
		for _, seed := range seeds {
			plan := buildPlan(*faultSpec, *straggler, seed, *forkWarmup)
			opts.FaultGrid = append(opts.FaultGrid,
				sweep.FaultVariant{Name: fmt.Sprintf("s%d", seed), Plan: plan})
		}
	} else if *faultSpec != "" || len(seeds) == 1 || *straggler != "" {
		var seed uint64
		if len(seeds) == 1 {
			seed = seeds[0]
		}
		opts.Config.Faults = buildPlan(*faultSpec, *straggler, seed, *forkWarmup)
	}
	if *fork {
		if len(opts.FaultGrid) < 2 {
			fatal(fmt.Errorf("-fork needs -fault-seed with at least two seeds to build a fault grid"))
		}
		if opts.FaultGrid[0].Plan.StartBarrier() <= 0 {
			fatal(fmt.Errorf("-fork needs a gated plan: set -fork-warmup K or a start=K clause in -faults"))
		}
		opts.Fork = true
	}
	opts.Config.SampleEvery = sim.Time(*sampleEvery)
	if *sampleCSV != "" {
		if *sampleEvery <= 0 {
			fatal(fmt.Errorf("-sample-csv needs -sample-every"))
		}
		f := appendFile(*sampleCSV)
		defer f.Close()
		opts.SampleCSV = f
	}
	opts.Config.ShareProfile = *prof || *profCSV != ""
	if *profCSV != "" {
		f := appendFile(*profCSV)
		defer f.Close()
		opts.ProfCSV = f
	}
	opts.Config.CritPath = *crit || *critCSV != ""
	if *critCSV != "" {
		f := appendFile(*critCSV)
		defer f.Close()
		opts.CritCSV = f
	}
	if *whatIf != "" {
		scale, err := critpath.ParseScale(*whatIf)
		if err != nil {
			fatal(err)
		}
		opts.Config.WhatIf = scale
	}
	if *metricsAddr != "" {
		reg := metrics.NewRegistry()
		addr, stop, err := reg.Serve(*metricsAddr)
		if err != nil {
			fatal(err)
		}
		defer stop()
		fmt.Fprintf(os.Stderr, "serving live metrics on http://%s/metrics\n", addr)
		opts.Metrics = reg
	}
	r := harness.New(opts)
	defer r.Flush()

	selected := harness.Experiments()
	if *exp != "all" {
		e, err := harness.Get(*exp)
		if err != nil {
			fatal(err)
		}
		selected = []harness.Experiment{e}
	}

	// Fan the selected experiments' runs out over the worker pool; Ctrl-C
	// cancels the in-flight simulations between virtual-time steps.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()
	start := time.Now()
	if err := r.Prefetch(ctx, harness.PointsFor(opts, selected)); err != nil {
		fatal(err)
	}

	for _, e := range selected {
		fmt.Println()
		if err := e.Run(r); err != nil {
			fatal(fmt.Errorf("%s: %v", e.Name, err))
		}
	}
	if opts.Fork {
		printForkSummary(r.ForkStats(), time.Since(start))
	}

	// Hold the metrics endpoint open for interval-based scrapers that would
	// otherwise miss a short run entirely. Ctrl-C ends the linger early.
	if *metricsAddr != "" && *metricsAfter > 0 {
		select {
		case <-time.After(*metricsAfter):
		case <-ctx.Done():
		}
	}
}

// protocolList parses the -protocol override: "" keeps the paper matrix,
// "all" selects the registry's whole catalog, otherwise each
// comma-separated name must be registered.
func protocolList(s string) []string {
	if s == "" {
		return nil
	}
	if s == "all" {
		return core.ProtocolNames()
	}
	var out []string
	for _, p := range strings.Split(s, ",") {
		if p = strings.TrimSpace(p); p == "" {
			continue
		}
		if core.ProtocolTitle(p) == "" {
			fatal(fmt.Errorf("unknown protocol %q (registered: %s)", p, strings.Join(core.ProtocolNames(), ", ")))
		}
		out = append(out, p)
	}
	return out
}

// seedList parses the comma-separated -fault-seed value.
func seedList(s string) []uint64 {
	if s == "" {
		return nil
	}
	var out []uint64
	for _, p := range strings.Split(s, ",") {
		if p = strings.TrimSpace(p); p == "" {
			continue
		}
		v, err := strconv.ParseUint(p, 10, 64)
		if err != nil {
			fatal(fmt.Errorf("bad -fault-seed %q: %v", p, err))
		}
		out = append(out, v)
	}
	return out
}

// buildPlan assembles one fault plan from the flag pieces. seed == 0 keeps
// the plan's own seed; warmup > 0 gates the plan on barrier K.
func buildPlan(spec, straggler string, seed uint64, warmup int) *faults.Plan {
	plan, err := faults.Build(spec, straggler, seed, warmup)
	if err != nil {
		fatal(err)
	}
	return plan
}

// printForkSummary reports what prefix sharing bought the run: estimated
// flat wall time is the measured one plus the warmup re-simulation the
// forks avoided.
func printForkSummary(fs sweep.ForkStats, wall time.Duration) {
	if fs.ForkedRuns == 0 {
		fmt.Printf("\nfork: no runs forked (grid not forkable: ungated plans, non-barrier apps, or <2 forkable variants)\n")
		return
	}
	flat := wall + fs.SavedWall
	fmt.Printf("\nfork: %d warmup prefixes served %d forked runs; wall %v vs ~%v flat (est. %.2fx speedup)\n",
		fs.Prefixes, fs.ForkedRuns, wall.Round(time.Millisecond), flat.Round(time.Millisecond),
		float64(flat)/float64(wall))
}

// appendFile opens path for appending, creating it if needed.
func appendFile(path string) *os.File {
	f, err := os.OpenFile(path, os.O_APPEND|os.O_CREATE|os.O_WRONLY, 0o644)
	if err != nil {
		fatal(err)
	}
	return f
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "dsmbench:", err)
	os.Exit(1)
}
