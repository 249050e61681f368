// Package sweep is the parallel experiment engine: it fans independent
// simulation runs out over a host-level worker pool while keeping every
// observable output deterministic.
//
// Each run is an independent virtual-time simulation (core.Machine holds no
// per-run state and identical configurations produce bit-identical
// results), so host parallelism is free correctness-wise. What the package
// adds on top is the bookkeeping that keeps it *observably* serial:
//
//   - a single-flight Memo so each configuration runs exactly once no
//     matter how many experiments or workers want it;
//   - a Sink that serializes progress/CSV output through one goroutine;
//   - ordered release — completed runs are emitted in canonical sweep
//     order regardless of completion order, so the output of a parallel
//     sweep is byte-identical to a serial one.
package sweep

import (
	"context"
	"errors"
	"fmt"
	"io"
	"runtime"
	"sync"
	"time"

	"dsmsim/internal/apps"
	"dsmsim/internal/core"
	"dsmsim/internal/metrics"
	"dsmsim/internal/network"
	"dsmsim/internal/sim"
)

// Key identifies one run configuration: one point of the evaluation
// cross-product, or an app's sequential baseline. It is the memoization
// key, so two Keys are the same run iff they are ==.
type Key struct {
	// App names a bundled application.
	App string
	// Protocol, Block, Notify, Nodes select the configuration. All are
	// ignored (and should be zero) when Sequential is set.
	Protocol string
	Block    int
	Notify   network.Notify
	Nodes    int
	// Sequential marks the uninstrumented one-node baseline run used as
	// the numerator of speedups.
	Sequential bool
	// Fault names the point's variant of the engine's fault grid
	// (Options.FaultGrid); empty outside grid sweeps. Points differing
	// only in Fault share their entire pre-fault warmup, which is what the
	// fork planner exploits.
	Fault string
}

// Seq returns the sequential-baseline key for app.
func Seq(app string) Key { return Key{App: app, Sequential: true} }

func (k Key) String() string {
	if k.Sequential {
		return fmt.Sprintf("%s/seq", k.App)
	}
	s := fmt.Sprintf("%s/%s/%d/%s/%dp", k.App, k.Protocol, k.Block, k.Notify, k.Nodes)
	if k.Fault != "" {
		s += "/" + k.Fault
	}
	return s
}

// Spec describes a cross-product of runs: every listed application under
// every protocol × granularity × notification combination. The zero value
// of a list field means "none" — callers fill defaults (the public
// dsmsim.Sweep defaults to the paper's full matrix).
type Spec struct {
	Apps          []string
	Protocols     []string
	Granularities []int
	Notifies      []network.Notify
	// Nodes is the cluster size for every point.
	Nodes int
	// Baselines additionally schedules each app's sequential baseline
	// (before the app's matrix points, so speedups can be derived).
	Baselines bool
	// Variants lists fault-grid variant names (Options.FaultGrid): each
	// matrix point expands into one run per variant, innermost, so a
	// prefix group's points are adjacent in canonical order.
	Variants []string
}

// Points expands the spec in canonical sweep order: for each app (baseline
// first, when requested), protocols × granularities × notification modes,
// each list in the order given. This order defines the deterministic
// output order of a parallel sweep.
func (s Spec) Points() []Key {
	var pts []Key
	for _, app := range s.Apps {
		if s.Baselines {
			pts = append(pts, Seq(app))
		}
		for _, p := range s.Protocols {
			for _, g := range s.Granularities {
				for _, n := range s.Notifies {
					k := Key{App: app, Protocol: p, Block: g, Notify: n, Nodes: s.Nodes}
					if len(s.Variants) == 0 {
						pts = append(pts, k)
						continue
					}
					for _, f := range s.Variants {
						k.Fault = f
						pts = append(pts, k)
					}
				}
			}
		}
	}
	return pts
}

// Dedupe returns keys with duplicates removed, keeping first occurrences
// (prefetch lists built from several experiments overlap heavily).
func Dedupe(keys []Key) []Key {
	seen := make(map[Key]bool, len(keys))
	out := keys[:0:0]
	for _, k := range keys {
		if !seen[k] {
			seen[k] = true
			out = append(out, k)
		}
	}
	return out
}

// Options configures an Engine.
type Options struct {
	// Size selects the problem scale for every run.
	Size apps.SizeClass
	// Workers bounds host parallelism; <= 0 means runtime.GOMAXPROCS(0).
	Workers int
	// Verify re-checks every run's numeric result against the sequential
	// reference.
	Verify bool
	// Config is the template every run starts from: its run settings
	// (Limit, Faults, SampleEvery, ShareProfile, CritPath, WhatIf, ...)
	// apply to every point, and each point stamps its own shape (nodes,
	// block size, protocol, notification) over it. A zero Limit means a
	// generous default. Sequential baselines measure the healthy machine:
	// the fault plan is cleared for them, and core ignores the profilers
	// and the what-if scale there.
	Config core.Config
	// Progress, if non-nil, receives one line per completed run.
	Progress io.Writer
	// CSV, if non-nil, receives one machine-readable record per completed
	// run. Header handling is automatic (written once, suppressed when the
	// writer is an append-mode file with existing content).
	CSV io.Writer
	// Histograms adds a latency-distribution line after each run record.
	Histograms bool
	// SampleCSV, if non-nil, receives each run's sampler series as CSV
	// rows prefixed with the run-key columns, in canonical sweep order —
	// like every other sink output, byte-identical at any parallelism.
	// Requires Config.SampleEvery.
	SampleCSV io.Writer
	// ProfCSV, if non-nil, receives each run's sharing profile as CSV
	// rows (one per region plus a total) prefixed with the run-key
	// columns, in canonical sweep order — byte-identical at any
	// parallelism. Requires Config.ShareProfile.
	ProfCSV io.Writer
	// CritCSV, if non-nil, receives each run's critical-path row
	// prefixed with the run-key columns, in canonical sweep order —
	// byte-identical at any parallelism. Requires Config.CritPath.
	CritCSV io.Writer
	// Metrics, if non-nil, receives live progress (point started/done,
	// wall-clock runtimes) for the HTTP exporter, and switches the
	// progress lines to the enriched format with a completion counter.
	// Wall-clock data never reaches the deterministic outputs.
	Metrics *metrics.Registry
	// FaultGrid holds the named fault variants grid points select with
	// Key.Fault. When a point carries a Fault name, its variant's plan
	// replaces Config.Faults for that run. With a grid attached, the CSV,
	// sample and profile sinks gain a fault column.
	FaultGrid []FaultVariant
	// Fork shares warmup prefixes across fault-grid points: each group of
	// points differing only in Fault runs its pre-fault prefix once (to a
	// checkpoint at the grid's earliest start barrier) and forks per
	// variant. Output is byte-identical to flat execution; points the
	// checkpointer cannot honor (non-resumable app, ungated plan, sharing
	// profiler attached) silently fall back to flat runs.
	Fork bool
}

// Engine runs sweeps. It owns the memo and the output sink, so one Engine
// shared across many sweeps (the harness Runner holds one for all its
// experiments) never repeats a run and never interleaves output.
type Engine struct {
	opts Options
	apps func(name string) (apps.Entry, error) // apps.Get; tests substitute fakes
	memo *Memo[Key, *core.Result]
	cps  *Memo[cpKey, *prefix]
	sink *Sink
}

// New builds an Engine from opts.
func New(opts Options) *Engine {
	if opts.Workers <= 0 {
		opts.Workers = runtime.GOMAXPROCS(0)
	}
	if opts.Config.Limit == 0 {
		opts.Config.Limit = 100000 * sim.Second
	}
	return &Engine{
		opts: opts,
		apps: apps.Get,
		memo: NewMemo[Key, *core.Result](),
		cps:  NewMemo[cpKey, *prefix](),
		sink: NewSink(opts),
	}
}

// Sink exposes the serializing output sink (experiment code routes its own
// progress lines through it so they cannot interleave with run records).
func (e *Engine) Sink() *Sink { return e.sink }

// Workers returns the configured worker-pool size.
func (e *Engine) Workers() int { return e.opts.Workers }

// Flush blocks until all output enqueued so far is written.
func (e *Engine) Flush() { e.sink.Flush() }

// runKey is the memoized run step shared by RunOne and Run's workers: it
// computes (or waits for) the key's result, reporting the point's lifetime
// and wall-clock runtime to the live metrics registry when one is attached.
func (e *Engine) runKey(ctx context.Context, k Key) (*core.Result, error, bool) {
	reg := e.opts.Metrics
	var began time.Time
	if reg != nil {
		reg.PointStarted(k.String())
		began = time.Now()
	}
	res, err, fresh := e.memo.Do(k, func() (*core.Result, error) { return e.compute(ctx, k) })
	if reg != nil {
		pr := metrics.PointResult{Key: k.String(), Wall: time.Since(began), Memoized: !fresh}
		if res != nil {
			pr.Virtual = res.Time
			pr.ReadFaults = res.Total.ReadFaults
			pr.WriteFaults = res.Total.WriteFaults
			pr.NetMsgs = res.NetMsgs
			pr.NetBytes = res.NetBytes
			if sh := res.Sharing; sh != nil {
				pr.Profiled = true
				pr.TrueSharing = sh.Total.TrueFaults
				pr.FalseSharing = sh.Total.FalseFaults
				pr.FalseFraction = sh.FalseSharingFraction()
			}
			pr.Crit = res.CritPath
		}
		reg.PointDone(pr)
		if e.opts.Fork {
			fs := e.ForkStats()
			reg.SetForkStats(fs.Prefixes, fs.ForkedRuns, fs.SavedWall)
		}
	}
	return res, err, fresh
}

// RunOne returns the (memoized) result for one key, emitting its progress
// line and CSV record if this call computed it.
func (e *Engine) RunOne(ctx context.Context, k Key) (*core.Result, error) {
	if reg := e.opts.Metrics; reg != nil {
		reg.AddTotal(1)
	}
	res, err, fresh := e.runKey(ctx, k)
	if err != nil {
		return nil, err
	}
	if fresh {
		e.sink.Emit(k, res)
	}
	return res, nil
}

// Run executes every key over the worker pool and returns results aligned
// with keys. Progress/CSV emission happens in the order of keys regardless
// of completion order, and only for keys whose computation this sweep
// performed (cache hits stay silent, exactly like the serial path). On
// error the remaining runs are cancelled and the first error in canonical
// order is returned; results computed before the failure are still
// returned and cached.
func (e *Engine) Run(ctx context.Context, keys []Key) ([]*core.Result, error) {
	ctx, cancel := context.WithCancel(ctx)
	defer cancel()

	if reg := e.opts.Metrics; reg != nil {
		reg.AddTotal(len(keys))
	}
	n := len(keys)
	results := make([]*core.Result, n)
	errs := make([]error, n)
	emitted := make([]bool, n) // fresh computations awaiting ordered emission

	var (
		mu   sync.Mutex
		next int
		done = make([]bool, n)
	)
	finish := func(i int, res *core.Result, err error, fresh bool) {
		mu.Lock()
		defer mu.Unlock()
		results[i], errs[i], done[i], emitted[i] = res, err, true, fresh
		for next < n && done[next] {
			if errs[next] == nil && emitted[next] {
				e.sink.Emit(keys[next], results[next])
			}
			next++
		}
	}

	idx := make(chan int)
	var wg sync.WaitGroup
	workers := min(e.opts.Workers, n)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range idx {
				res, err, fresh := e.runKey(ctx, keys[i])
				if err != nil {
					cancel() // abort the rest of the sweep promptly
				}
				finish(i, res, err, fresh)
			}
		}()
	}
feed:
	for i := 0; i < n; i++ {
		select {
		case idx <- i:
		case <-ctx.Done():
			break feed
		}
	}
	close(idx)
	wg.Wait()
	e.sink.Flush()

	// First error in canonical order, preferring a root cause over the
	// context errors that cascade from cancelling the rest of the sweep.
	var firstErr error
	for _, err := range errs {
		if err == nil {
			continue
		}
		if firstErr == nil {
			firstErr = err
		}
		if !errors.Is(err, context.Canceled) {
			return results, err
		}
	}
	if firstErr == nil {
		// Cancellation can stop the feed before any run reports an error;
		// an incomplete sweep must still fail.
		for _, d := range done {
			if !d {
				firstErr = ctx.Err()
				break
			}
		}
	}
	return results, firstErr
}

// compute executes one run, through a shared-prefix fork when the point is
// eligible and through the ordinary flat path otherwise.
func (e *Engine) compute(ctx context.Context, k Key) (*core.Result, error) {
	entry, err := e.apps(k.App)
	if err != nil {
		return nil, err
	}
	plan, err := e.planFor(k)
	if err != nil {
		return nil, err
	}
	cfg := e.opts.Config
	if k.Sequential {
		cfg.Sequential = true
		cfg.BlockSize = 4096
		// Baselines ignore the plan, and Config.Validate would check its
		// node ids against Nodes=1.
		cfg.Faults = nil
	} else {
		cfg.Nodes = k.Nodes
		cfg.BlockSize = k.Block
		cfg.Protocol = k.Protocol
		cfg.Notify = k.Notify
		cfg.Faults = plan
	}
	app := entry.New(e.opts.Size)
	if epoch := e.forkEpoch(); epoch > 0 && e.forkable(k, app, plan, epoch) {
		res, err := e.computeForked(ctx, k, cfg, app, epoch)
		if err == nil || ctx.Err() != nil {
			return res, err
		}
		// The fork path failed for a reason other than cancellation (the
		// app finished before the cut, events in flight at the barrier,
		// ...): rerun flat. The flat path is the correctness baseline, so
		// a genuine simulation error reproduces there.
	}
	m, err := core.NewMachine(cfg)
	if err != nil {
		return nil, err
	}
	res, err := m.Run(ctx, app)
	if err != nil {
		return nil, err
	}
	return e.verified(app, res)
}

// verified applies the engine's verify policy to a completed run.
func (e *Engine) verified(app core.App, res *core.Result) (*core.Result, error) {
	if e.opts.Verify {
		if err := core.Verify(app, res); err != nil {
			return nil, err
		}
	}
	return res, nil
}
