package dsmsim

import (
	"cmp"
	"io"

	"dsmsim/internal/sweep"
)

// FaultVariant names one fault plan of a WithFaultGrid grid. A nil Plan is
// the healthy-machine member of the grid.
type FaultVariant = sweep.FaultVariant

// options collects everything the functional options can configure. Start
// and Sweep share one option vocabulary: the run settings (fault plan,
// virtual-time limit, sampling, profilers, what-if, tracing) are written
// straight into the Config template the run or every sweep point starts
// from, and the rest apply to whichever call understands them and are
// ignored by the other. An option given a zero value leaves its Config
// field alone.
type options struct {
	sweep.Options
	verify *bool
}

// Option customizes a Start or Sweep call. All options are functional:
// pass any number to either entrypoint. Options that only apply to one of
// the two calls (tracing is per-run, parallelism is per-sweep) are
// silently ignored by the other.
type Option func(*options)

// collect applies opts, in order, on top of the caller's cfg.
func collect(cfg Config, opts []Option) options {
	c := options{Options: sweep.Options{Config: cfg}}
	for _, opt := range opts {
		opt(&c)
	}
	return c
}

// verifyOr resolves WithVerify against the caller's default policy.
func (c *options) verifyOr(def bool) bool {
	if c.verify != nil {
		return *c.verify
	}
	return def
}

// WithVerify enables result verification against the sequential
// reference. WithVerify() (no argument) turns verification on;
// WithVerify(false) forces it off. Without this option, Start runs
// unverified and Sweep verifies at Small size only (verification is slow
// at Paper size).
func WithVerify(v ...bool) Option {
	on := true
	if len(v) > 0 {
		on = v[0]
	}
	return func(c *options) { c.verify = &on }
}

// WithFaults applies a deterministic fault plan — seeded link drops,
// duplicates, delay jitter, timed partitions, straggler windows — to the
// run (Start) or to every non-sequential run of the sweep. Build plans
// with NewFaultPlan and the rule constructors (Drop, Partition,
// Straggler, …) or from a flag string with ParseFaults. A nil or inactive
// plan leaves the machine byte-identical to the fault-free one; the same
// plan (same FaultSeed) reproduces a run bit-for-bit.
func WithFaults(p *FaultPlan) Option {
	return func(c *options) { c.Config.Faults = cmp.Or(p, c.Config.Faults) }
}

// WithFaultGrid expands every matrix point of the sweep into one run per
// named fault variant (fault-sensitivity studies: the same configuration
// under "none", "lossy", "jittery", ... plans). Variant names must be
// unique and non-empty; a nil plan is the healthy-machine member. With a
// grid attached, the CSV, sample and profile schemas gain a trailing
// fault column, progress lines a f=<name> tag, and WithFaults is ignored
// for grid points. Sweep only.
func WithFaultGrid(variants ...FaultVariant) Option {
	return func(c *options) { c.FaultGrid = variants }
}

// WithFork shares warmup prefixes across WithFaultGrid points: each group
// of runs differing only in the fault variant executes its pre-fault
// prefix once — to a checkpoint at the grid's earliest start barrier
// (plans gated with start=K are dormant before their K-th barrier) — and
// forks the checkpoint per variant. All output stays byte-identical to
// flat execution at any parallelism; points the checkpoint machinery
// cannot honor (non-barrier-structured app, ungated plan, sharing
// profiler attached) silently run flat. Sweep only; requires
// WithFaultGrid with at least two forkable variants to have any effect.
func WithFork() Option { return func(c *options) { c.Fork = true } }

// WithLimit bounds each run's virtual time (0 keeps the generous
// default).
func WithLimit(t Time) Option {
	return func(c *options) {
		if t > 0 {
			c.Config.Limit = t
		}
	}
}

// WithSampleEvery attaches the virtual-time metrics sampler,
// snapshotting per-interval deltas of the node counters. Sampling is
// strictly observational: results, progress lines and CSV records are
// unchanged. Each run's series is available as Result.Samples.
func WithSampleEvery(every Time) Option {
	return func(c *options) { c.Config.SampleEvery = cmp.Or(every, c.Config.SampleEvery) }
}

// WithShareProfile attaches the sharing-pattern profiler to the run
// (Start) or to every non-sequential run of the sweep: each touched block
// is classified into the paper's sharing taxonomy (private, read-only,
// producer-consumer, migratory, write-shared) and every fault and
// invalidation attributed as cold, true sharing, false sharing or
// upgrade, aggregated over the application's named heap regions into
// Result.Sharing. Profiling is strictly observational: virtual time and
// every other Result field are byte-identical to an unprofiled run.
func WithShareProfile() Option { return func(c *options) { c.Config.ShareProfile = true } }

// WithProfCSV streams every run's sharing profile to w as CSV rows (one
// per region plus a total) prefixed with the run-key columns, in
// canonical sweep order — byte-identical at any parallelism. Sweep only;
// requires WithShareProfile.
func WithProfCSV(w io.Writer) Option { return func(c *options) { c.ProfCSV = w } }

// WithCritPath attaches the critical-path profiler to the run (Start) or
// to every non-sequential run of the sweep: the exact longest dependency
// chain of the execution is recovered — its segments sum to the run's
// completion time to the nanosecond — and attributed per component
// (compute, straggler dilation, runtime overhead, message wire, message
// service, lock wait, barrier wait, home forwarding, retransmission), per
// node and per heap region, into Result.CritPath. Profiling is strictly
// observational: virtual time and every other Result field are
// byte-identical to an unprofiled run.
func WithCritPath() Option { return func(c *options) { c.Config.CritPath = true } }

// WithCritCSV streams every run's critical-path component row to w,
// prefixed with the run-key columns, in canonical sweep order —
// byte-identical at any parallelism. Sweep only; requires WithCritPath.
func WithCritCSV(w io.Writer) Option { return func(c *options) { c.CritCSV = w } }

// WithWhatIf rescales one cost class of the machine — compute, message
// wire latency, message service occupancy, lock traffic, barrier traffic
// — by the scale's factor and re-simulates exactly (COZ-style causal
// profiling, but with the true counterfactual executed rather than
// estimated). Compare the rescaled run's time against the baseline's
// CritPath.Predict to separate what the critical path predicts from what
// the full dependency structure delivers. Build scales with ParseWhatIf
// ("lock=0.5", "msg=0"). Applies to Start and to every non-sequential
// run of the sweep.
func WithWhatIf(s *CritScale) Option {
	return func(c *options) { c.Config.WhatIf = cmp.Or(s, c.Config.WhatIf) }
}

// WithTrace streams the run's deterministic line-format event log to w:
// every fault, synchronization operation, message send/service — and,
// under a fault plan, every wire drop, duplicate and retransmission —
// with virtual timestamps. Start only; ignored by Sweep.
func WithTrace(w io.Writer) Option {
	return func(c *options) { c.Config.Trace = cmp.Or(w, c.Config.Trace) }
}

// WithTraceJSON streams the same events as a Chrome trace-event JSON
// array (load in Perfetto or chrome://tracing). Start only; ignored by
// Sweep.
func WithTraceJSON(w io.Writer) Option {
	return func(c *options) { c.Config.TraceJSON = cmp.Or(w, c.Config.TraceJSON) }
}

// WithParallelism bounds the sweep worker pool. n <= 0 (and the default)
// means one worker per available CPU (GOMAXPROCS); 1 recovers fully
// serial execution. Output is byte-identical at every setting.
func WithParallelism(n int) Option { return func(c *options) { c.Workers = n } }

// WithProgress streams one line per completed run to w, in canonical
// sweep order regardless of completion order.
func WithProgress(w io.Writer) Option { return func(c *options) { c.Progress = w } }

// WithCSV streams one machine-readable record per completed run to w. The
// header is written exactly once, and suppressed automatically when w is
// an append-mode file that already holds records.
func WithCSV(w io.Writer) Option { return func(c *options) { c.CSV = w } }

// WithHistograms adds a latency-distribution summary line (fault service
// time, message latency, lock wait) after each run's progress line.
func WithHistograms() Option { return func(c *options) { c.Histograms = true } }

// WithSampleCSV streams every run's sampler time-series to w as CSV rows
// prefixed with the run-key columns, in canonical sweep order — like all
// sweep output, byte-identical at any parallelism. Requires
// WithSampleEvery.
func WithSampleCSV(w io.Writer) Option { return func(c *options) { c.SampleCSV = w } }

// WithMetrics attaches a live metrics registry: the sweep reports point
// lifecycle and wall-clock runtimes to m (servable over HTTP with
// Metrics.Serve), and progress lines switch to an enriched format with a
// completion counter and per-run fault/traffic fields. Wall-clock data
// stays on the live surface only; deterministic outputs are unaffected.
func WithMetrics(m *Metrics) Option { return func(c *options) { c.Metrics = m } }
