package dsmsim

import (
	"context"
	"fmt"

	"dsmsim/internal/sweep"
)

// SweepPoint identifies one run of a sweep: one point of the evaluation
// cross-product, or an application's sequential baseline.
type SweepPoint = sweep.Key

// SweepSpec describes a cross-product of runs: every listed application
// under every protocol × granularity × notification combination. Zero
// fields default to the paper's evaluation matrix: all bundled
// applications, the paper's three protocols, its four granularities,
// polling notification, 16 nodes, Small problem sizes, with sequential
// baselines included.
type SweepSpec struct {
	// Apps lists bundled application names (default: all twelve).
	Apps []string
	// Protocols lists protocol names (default: SC, SWLRC, HLRC).
	Protocols []string
	// Granularities lists coherence block sizes (default: 64…4096).
	Granularities []int
	// Notify lists notification mechanisms (default: Polling).
	Notify []Notify
	// Nodes is the cluster size (default: 16).
	Nodes int
	// Size selects problem scale (default: Small).
	Size SizeClass
	// SkipBaselines drops the per-app sequential baseline runs (and with
	// them SweepResult.Speedup).
	SkipBaselines bool
}

// SweepRun pairs one point with its result.
type SweepRun struct {
	Point  SweepPoint
	Result *Result
}

// ForkStats summarizes what WithFork bought a sweep: distinct warmup
// prefixes simulated, runs forked from them, and an estimate of the
// warmup re-simulation wall time avoided.
type ForkStats = sweep.ForkStats

// SweepResult is the outcome of a sweep, in canonical sweep order
// (per app: baseline first, then protocols × granularities × notify modes).
type SweepResult struct {
	Runs []SweepRun

	// Fork holds the prefix-sharing counters when WithFork was in effect
	// (zero otherwise — including when forking was on but never engaged).
	Fork ForkStats

	baselines map[string]Time
}

// Baseline returns the sequential-baseline time for app (0 if the sweep
// skipped baselines).
func (r *SweepResult) Baseline(app string) Time { return r.baselines[app] }

// Speedup returns T_seq / T_par for one run (0 if baselines were skipped).
func (r *SweepResult) Speedup(run SweepRun) float64 {
	seq := r.baselines[run.Point.App]
	if seq == 0 || run.Result == nil || run.Result.Time == 0 {
		return 0
	}
	return float64(seq) / float64(run.Result.Time)
}

// Get returns the result for one configuration, or nil if the sweep did
// not include it. Under a fault grid it returns the first variant's run;
// use GetFault to select a specific variant.
func (r *SweepResult) Get(app, protocol string, block int, notify Notify) *Result {
	for _, run := range r.Runs {
		p := run.Point
		if !p.Sequential && p.App == app && p.Protocol == protocol && p.Block == block && p.Notify == notify {
			return run.Result
		}
	}
	return nil
}

// GetFault returns the result for one configuration under one fault-grid
// variant, or nil if the sweep did not include it.
func (r *SweepResult) GetFault(app, protocol string, block int, notify Notify, fault string) *Result {
	for _, run := range r.Runs {
		p := run.Point
		if !p.Sequential && p.App == app && p.Protocol == protocol && p.Block == block &&
			p.Notify == notify && p.Fault == fault {
			return run.Result
		}
	}
	return nil
}

// Sweep runs the spec's cross-product of simulations, fanning independent
// runs out over a host-level worker pool. Every run is an independent
// deterministic virtual-time simulation, so parallel execution cannot
// perturb results, and all observable output — result order, progress
// lines, CSV records — is emitted in canonical sweep order regardless of
// completion order: a parallel sweep is byte-identical to a serial one.
//
// ctx cancels the sweep between virtual-time steps of the in-flight runs;
// Sweep then returns ctx.Err().
//
//	res, err := dsmsim.Sweep(ctx, dsmsim.SweepSpec{
//	    Apps:  []string{"lu", "raytrace"},
//	    Nodes: 16,
//	}, dsmsim.WithProgress(os.Stderr))
func Sweep(ctx context.Context, spec SweepSpec, opts ...Option) (*SweepResult, error) {
	c := collect(Config{}, opts)
	if len(spec.Apps) == 0 {
		spec.Apps = AppNames()
	}
	if len(spec.Protocols) == 0 {
		spec.Protocols = Protocols
	}
	if len(spec.Granularities) == 0 {
		spec.Granularities = Granularities
	}
	if len(spec.Notify) == 0 {
		spec.Notify = []Notify{Polling}
	}
	if spec.Nodes == 0 {
		spec.Nodes = 16
	}
	var faultNames []string
	if len(c.FaultGrid) > 0 {
		seen := map[string]bool{}
		for _, v := range c.FaultGrid {
			if v.Name == "" {
				return nil, fmt.Errorf("dsmsim: sweep: fault-grid variant with empty name")
			}
			if seen[v.Name] {
				return nil, fmt.Errorf("dsmsim: sweep: duplicate fault-grid variant %q", v.Name)
			}
			seen[v.Name] = true
			faultNames = append(faultNames, v.Name)
		}
	}
	eng := sweep.New(c.sweepOptions(spec.Size))
	points := sweep.Dedupe(sweep.Spec{
		Apps:          spec.Apps,
		Protocols:     spec.Protocols,
		Granularities: spec.Granularities,
		Notifies:      spec.Notify,
		Nodes:         spec.Nodes,
		Baselines:     !spec.SkipBaselines,
		Variants:      faultNames,
	}.Points())
	results, err := eng.Run(ctx, points)
	if err != nil {
		return nil, fmt.Errorf("dsmsim: sweep: %w", err)
	}
	out := &SweepResult{Fork: eng.ForkStats(), baselines: map[string]Time{}}
	for i, p := range points {
		out.Runs = append(out.Runs, SweepRun{Point: p, Result: results[i]})
		if p.Sequential && results[i] != nil {
			out.baselines[p.App] = results[i].Time
		}
	}
	return out, nil
}

// sweepOptions resolves the engine options of a Sweep at size: WithVerify
// when given, else verification at Small size only (it is slow at Paper
// size). Per-run trace writers are dropped: parallel runs would interleave
// on one writer.
func (c *options) sweepOptions(size SizeClass) sweep.Options {
	o := c.Options
	o.Size = size
	o.Verify = c.verifyOr(size == Small)
	o.Config.Trace, o.Config.TraceJSON = nil, nil
	return o
}
