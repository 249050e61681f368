// Command perfbench measures the host cost of dsmsim — wall time, CPU,
// allocation and memory per simulated run and per sweep — end to end and
// layer by layer, on four workloads, and checks that every run's simulated
// output matches a recorded reference. See README.md for the workloads,
// the metrics and the layer table.
//
//	bash perfbench/run.sh --workload paper-matrix --seed 1 --seconds 25 --trace 0
//
// With --trace 0 it prints the end-to-end metrics, timed with no
// instrumentation; with --trace 1 it alternates uninstrumented and
// span-recording passes and prints the per-layer metrics and the tracing
// overhead. The last line of standard output is one JSON object:
// {"correct", "attempted", "failed", "metrics"}.
package main

import (
	"context"
	"crypto/sha256"
	"encoding/json"
	"flag"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"time"
)

// setupReps is how many times a run sets up its workload; setup_s is the
// median.
const setupReps = 3

// minPasses is the fewest timed passes of each kind a run makes, however
// short --seconds is.
const minPasses = 2

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() { os.Exit(run()) }

func run() int {
	start := time.Now()
	name := flag.String("workload", "", "workload: "+strings.Join(workloadNames, ", "))
	seed := flag.Uint64("seed", 1, "workload seed (taken modulo 32)")
	seconds := flag.Float64("seconds", 20, "host seconds of timed passes")
	traceFlag := flag.Int("trace", 0, "0: end-to-end metrics; 1: per-layer metrics from a traced run")
	record := flag.String("record", "", "record reference digests for every workload and seed class into this file and exit")
	flag.Parse()
	runtime.GOMAXPROCS(min(workers, runtime.NumCPU()))
	ctx := context.Background()

	if *record != "" {
		if err := recordAll(ctx, *record); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench:", err)
			return 1
		}
		return 0
	}
	if *traceFlag != 0 && *traceFlag != 1 {
		fmt.Fprintln(os.Stderr, "perfbench: --trace must be 0 or 1")
		return 2
	}
	class := *seed % seedClasses
	build, ok := workloadsByName[*name]
	if !ok {
		fmt.Fprintf(os.Stderr, "perfbench: unknown workload %q (have %s)\n", *name, strings.Join(workloadNames, ", "))
		return 2
	}
	emit(map[string]any{"env": stamp(*name, *seed, class, *traceFlag)})

	// Set-up: decode the reference, build the inputs and fault plans, and
	// warm up — repeated, so work moved into set-up shows in setup_s.
	var w workload
	var ref reference
	var setups []float64
	for i := 0; i < setupReps; i++ {
		t0 := time.Now()
		var err error
		if ref, err = loadReference(); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench:", err)
			return 1
		}
		w = build(class, ref)
		w.warmup(ctx)
		setups = append(setups, time.Since(t0).Seconds())
	}
	detail := map[string]any{"setup_s": setups}
	m := plain
	if *traceFlag == 1 {
		m = spans
	}
	var flat *passResult
	if ff, ok := w.(*faultForkWorkload); ok {
		flat = ff.checkFlat(ctx, m)
		detail["flat_twin_check_s"] = flat.wall.Seconds()
	}
	detail["process_to_first_pass_s"] = time.Since(start).Seconds()

	budget := time.Duration(*seconds * float64(time.Second))
	var res result
	if *traceFlag == 0 {
		res = endToEnd(ctx, w, budget, median(setups), detail)
	} else {
		res = perLayer(ctx, w, class, ref, flat, budget, detail)
	}
	emit(map[string]any{"detail": detail})
	b, _ := json.Marshal(res)
	fmt.Println(string(b))
	return 0
}

// workloadsByName constructs each workload for a seed class.
var workloadsByName = map[string]func(class uint64, ref reference) workload{
	paperMatrix: func(_ uint64, ref reference) workload { return newPaperMatrix(ref) },
	scale1024:   func(_ uint64, ref reference) workload { return newScale1024(ref) },
	faultFork:   func(c uint64, ref reference) workload { return newFaultFork(c, ref) },
	syncMix:     func(c uint64, ref reference) workload { return newSyncMix(c, ref) },
}

// passes runs timed passes in each of the given modes in turn until the
// budget is spent, with at least minPasses of each. A further round starts
// only if it is expected to end within the budget.
func passes(ctx context.Context, w workload, budget time.Duration, modes ...mode) [][]*passResult {
	out := make([][]*passResult, len(modes))
	t0 := time.Now()
	for round := 0; ; round++ {
		r0 := time.Now()
		for i, m := range modes {
			out[i] = append(out[i], measure(ctx, w, m))
		}
		if round+1 >= minPasses && time.Since(t0)+time.Since(r0) > budget {
			return out
		}
	}
}

// endToEnd times uninstrumented passes.
func endToEnd(ctx context.Context, w workload, budget time.Duration, setupS float64, detail map[string]any) result {
	plainPasses := passes(ctx, w, budget, plain)[0]
	var rate, cpu, alloc, rss, runMs []float64
	for _, p := range plainPasses {
		rate = append(rate, float64(p.runs)/p.wall.Seconds())
		cpu = append(cpu, p.cpu.Seconds())
		alloc = append(alloc, float64(p.mem.totalAlloc)/1e6)
		rss = append(rss, float64(p.peakRSS)/1e6)
		runMs = append(runMs, p.runMs...)
	}
	detail["passes"] = len(plainPasses)
	detail["pass_wall_s"] = walls(plainPasses)
	detail["run_ms_samples"] = len(runMs)
	return outcome(plainPasses, endToEndMetrics, map[string]float64{
		"runs_per_s":  median(rate),
		"run_ms_p50":  quantile(runMs, 0.5),
		"run_ms_p90":  quantile(runMs, 0.9),
		"cpu_s":       median(cpu),
		"alloc_mb":    median(alloc),
		"peak_rss_mb": median(rss),
		"setup_s":     setupS,
	}, detail)
}

// perLayer alternates uninstrumented and span-recording passes, then makes
// one event-counting pass, and reports every per-layer metric with the
// tracing overhead. Layers the workload bypasses are measured by the
// shared probes, so every metric is a measurement on every workload: the
// sync-mix kernels for the per-call costs, the checkpoint probe, and a
// slice of the forked fault grid for the sweep layer. On fault-fork, whose
// sweep runs no wrapped app and no tracer, the run lifecycle and event
// count come from its flat twins (flat, recorded in spans mode).
func perLayer(ctx context.Context, w workload, class uint64, ref reference, flat *passResult, budget time.Duration, detail map[string]any) result {
	// Half the budget goes to the paired passes, so that with the probes
	// and the event-counting pass a traced run takes about as long as an
	// untraced one.
	ps := passes(ctx, w, budget/2, plain, spans)
	plainPasses, spanPasses := ps[0], ps[1]
	all := append(append([]*passResult(nil), plainPasses...), spanPasses...)

	layer := medians(spanPasses, func(p *passResult) map[string]float64 { return p.layer })
	var gcs, pause, mallocs []float64
	for _, p := range plainPasses {
		gcs = append(gcs, float64(p.mem.numGC))
		pause = append(pause, float64(p.mem.pauseNs)/1e6)
		mallocs = append(mallocs, float64(p.mem.mallocs))
	}
	layer["runtime.gc_cycles"] = median(gcs)
	layer["runtime.gc_pause_ms"] = median(pause)
	layer["runtime.mallocs"] = median(mallocs)
	base := median(walls(plainPasses))
	layer["trace.span_overhead_frac"] = median(walls(spanPasses))/base - 1
	if flat != nil {
		merge(layer, flat.layer, "core.", "apps.")
		base = flat.wall.Seconds()
	}

	jobs, n := w.startJobs()
	ev := measure(ctx, &jobWorkload{jobs: jobs, workers: n}, events)
	all = append(all, ev)
	layer["sim.events"] = ev.layer["sim.events"]
	if e := layer["sim.events"]; e > 0 {
		layer["sim.host_ns_per_event"] = layer["core.parallel_ms"] * 1e6 / e
	}
	layer["trace.dispatch_overhead_frac"] = ev.wall.Seconds()/base - 1
	detail["event_pass_wall_s"] = ev.wall.Seconds()

	if len(spanPasses[0].kernel) > 0 { // sync-mix times its own kernels
		merge(layer, medians(spanPasses, func(p *passResult) map[string]float64 { return p.kernel }))
	} else {
		kp := measure(ctx, newSyncMix(class, ref), spans)
		all = append(all, kp)
		merge(layer, kp.kernel)
	}
	cp := checkpointProbe(ctx)
	all = append(all, cp)
	merge(layer, cp.layer)
	if _, ok := w.(*faultForkWorkload); !ok {
		sp := sweepProbe(ctx, class)
		all = append(all, sp)
		merge(layer, sp.layer, "sweep.", "fork.")
	}
	detail["passes"] = map[string]int{"plain": len(plainPasses), "spans": len(spanPasses)}
	detail["pass_wall_s"] = map[string][]float64{"plain": walls(plainPasses), "spans": walls(spanPasses)}
	detail["spans"] = spanSummary(spanPasses)

	return outcome(all, perLayerMetrics, layer, detail)
}

// medians returns, for every key of the maps f selects from ps, the
// median of its values over ps.
func medians(ps []*passResult, f func(*passResult) map[string]float64) map[string]float64 {
	vals := map[string][]float64{}
	for _, p := range ps {
		for k, v := range f(p) {
			vals[k] = append(vals[k], v)
		}
	}
	out := map[string]float64{}
	for k, vs := range vals {
		out[k] = median(vs)
	}
	return out
}

// merge copies into dst the entries of src whose keys start with one of
// prefixes, or all of them when none are given.
func merge(dst, src map[string]float64, prefixes ...string) {
	for k, v := range src {
		keep := len(prefixes) == 0
		for _, p := range prefixes {
			keep = keep || strings.HasPrefix(k, p)
		}
		if keep {
			dst[k] = v
		}
	}
}

func walls(ps []*passResult) []float64 {
	var out []float64
	for _, p := range ps {
		out = append(out, p.wall.Seconds())
	}
	return out
}

// outcome builds the result line: the attempted and failed runs of ps,
// and every metric of defs, 0 where values has none. It lists the first
// few failures in the detail line.
func outcome(ps []*passResult, defs []metricDef, values map[string]float64, detail map[string]any) result {
	res := result{Metrics: map[string]metric{}}
	for _, m := range defs {
		res.Metrics[m.name] = metric{values[m.name], m.unit}
	}
	var errs []string
	for _, p := range ps {
		res.Attempted += p.runs
		res.Failed += p.failed
		for _, e := range p.errs {
			if len(errs) < 8 {
				errs = append(errs, e.Error())
			}
		}
	}
	if len(errs) > 0 {
		detail["failures"] = errs
	}
	res.Correct = res.Failed == 0 && res.Attempted > 0
	return res
}

// spanSummary totals the span passes' spans by name: count and host ms.
func spanSummary(ps []*passResult) map[string]map[string]float64 {
	out := map[string]map[string]float64{}
	for _, p := range ps {
		for name, v := range p.spanMs {
			if out[name] == nil {
				out[name] = map[string]float64{}
			}
			out[name]["ms"] += v
			out[name]["count"] += float64(p.spanCount[name])
		}
	}
	return out
}

// stamp describes the build and host a result was measured on.
func stamp(name string, seed, class uint64, trace int) map[string]any {
	return map[string]any{
		"workload": name, "seed": seed, "seed_class": class, "trace": trace,
		"commit": commit(), "source_sha256": sourceDigest(),
		"go": runtime.Version(), "gomaxprocs": runtime.GOMAXPROCS(0),
		"nproc": runtime.NumCPU(), "cpu": cpuModel(),
	}
}

// commit is the revision the launcher found, if the checkout is a git
// repository; source_sha256 identifies the sources either way.
func commit() string {
	if c := os.Getenv("PERFBENCH_COMMIT"); c != "" {
		return c
	}
	return "unknown"
}

// sourceDigest hashes the simulator's Go sources and go.mod in the
// checkout (the working directory), skipping dot-directories and the
// benchmark itself, so two results can be matched to the same code.
func sourceDigest() string {
	var files []string
	_ = filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return nil
		}
		if d.IsDir() && path != "." && (strings.HasPrefix(d.Name(), ".") || d.Name() == "perfbench") {
			return filepath.SkipDir
		}
		if !d.IsDir() && (strings.HasSuffix(path, ".go") || path == "go.mod") {
			files = append(files, path)
		}
		return nil
	})
	sort.Strings(files)
	h := sha256.New()
	for _, f := range files {
		b, err := os.ReadFile(f)
		if err != nil {
			continue
		}
		fmt.Fprintf(h, "%s %d\n", f, len(b))
		h.Write(b)
	}
	return fmt.Sprintf("%x", h.Sum(nil))[:16]
}

// emit prints one JSON line on standard output.
func emit(v any) {
	b, _ := json.Marshal(v)
	fmt.Fprintln(os.Stdout, string(b))
}
