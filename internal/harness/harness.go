// Package harness regenerates every table and figure of the paper's
// evaluation (§5): the speedup curves of Figure 1 and Figure 2, the
// classification of Table 2, the per-application fault-count tables, the
// Barnes data-traffic comparison, and the relative-efficiency harmonic
// means of Tables 16 and 17.
//
// All runs go through the sweep engine (internal/sweep): results are
// memoized so experiments share them (the fault tables reuse Figure 1's
// runs, for example), progress and CSV output is serialized through one
// goroutine, and Prefetch fans an experiment's whole point set out over a
// worker pool before the table renders — with output identical, byte for
// byte, to fully serial execution.
package harness

import (
	"context"
	"fmt"
	"io"
	"sort"

	"dsmsim"
	"dsmsim/internal/apps"
	"dsmsim/internal/core"
	"dsmsim/internal/network"
	"dsmsim/internal/sim"
	"dsmsim/internal/sweep"
)

// Options configures a Runner. The embedded sweep options configure the
// engine every matrix run goes through: Size, Workers (the Prefetch worker
// pool; <= 0 means one worker per available CPU, and rendered output is
// byte-identical at every setting), Verify, the Config run template (a
// fault plan, profilers, sampler or what-if scale applies to every
// non-sequential matrix run) and the output sinks. Under a FaultGrid,
// tables render the FIRST variant's runs; all variants reach the progress
// and CSV streams, tagged with the variant name. The sharing and critpath
// experiments profile their own runs, and the degradation experiment
// sweeps its own loss rates, whatever the template says.
type Options struct {
	sweep.Options
	// Nodes is the cluster size (the paper uses 16).
	Nodes int
	// Out receives the rendered tables.
	Out io.Writer
	// Protocols overrides the protocol set the matrix experiments sweep
	// and render. Nil keeps the paper's three-protocol reproduction
	// matrix (core.Protocols); any registered name is accepted — see
	// core.ProtocolNames for the registry's catalog.
	Protocols []string
}

// protocols resolves the runner's protocol set: the override when given,
// the paper's reproduction matrix otherwise.
func (o Options) protocols() []string {
	if len(o.Protocols) > 0 {
		return o.Protocols
	}
	return core.Protocols
}

// Runner executes and caches simulation runs via the sweep engine.
type Runner struct {
	opts Options
	eng  *sweep.Engine
}

// New creates a Runner. Verification is on when Options.Verify is set or
// the problem size is Small (it is slow at Paper size), for matrix and
// out-of-matrix runs alike.
func New(opts Options) *Runner {
	if opts.Nodes == 0 {
		opts.Nodes = 16
	}
	if opts.Config.Limit == 0 {
		opts.Config.Limit = 100000 * sim.Second
	}
	opts.Verify = opts.Verify || opts.Size == apps.Small
	return &Runner{opts: opts, eng: sweep.New(opts.Options)}
}

// key builds the sweep key for one configuration at this runner's scale.
// Under a fault grid, tables consume the first variant's runs.
func (r *Runner) key(app, proto string, block int, notify network.Notify) sweep.Key {
	k := sweep.Key{App: app, Protocol: proto, Block: block, Notify: notify, Nodes: r.opts.Nodes}
	if len(r.opts.FaultGrid) > 0 {
		k.Fault = r.opts.FaultGrid[0].Name
	}
	return k
}

// ForkStats reports the engine's prefix-sharing counters (zero unless
// Options.Fork engaged).
func (r *Runner) ForkStats() sweep.ForkStats { return r.eng.ForkStats() }

// Sequential returns the uninstrumented one-node baseline time for app.
func (r *Runner) Sequential(app string) (sim.Time, error) {
	res, err := r.eng.RunOne(context.Background(), sweep.Seq(app))
	if err != nil {
		return 0, err
	}
	return res.Time, nil
}

// Result runs (or returns the memoized run of) one configuration.
func (r *Runner) Result(app, proto string, block int, notify network.Notify) (*core.Result, error) {
	return r.eng.RunOne(context.Background(), r.key(app, proto, block, notify))
}

// Prefetch computes every key over the runner's worker pool, filling the
// memo so subsequent Result/Sequential calls are cache hits. Progress and
// CSV records are emitted in the order of keys regardless of completion
// order, so a parallel prefetch is byte-identical to a serial one.
func (r *Runner) Prefetch(ctx context.Context, keys []sweep.Key) error {
	_, err := r.eng.Run(ctx, sweep.Dedupe(keys))
	return err
}

// Flush blocks until all progress/CSV output enqueued so far is written.
// Call before inspecting the Progress or CSV writers.
func (r *Runner) Flush() { r.eng.Flush() }

// Speedup returns T_seq / T_par for one configuration.
func (r *Runner) Speedup(app, proto string, block int, notify network.Notify) (float64, error) {
	seq, err := r.Sequential(app)
	if err != nil {
		return 0, err
	}
	res, err := r.Result(app, proto, block, notify)
	if err != nil {
		return 0, err
	}
	return float64(seq) / float64(res.Time), nil
}

// runConfig executes an out-of-matrix configuration (custom node counts,
// software access checks) under the runner's verify policy, through the
// public Start entrypoint. These runs are not memoized.
func (r *Runner) runConfig(cfg core.Config, entry apps.Entry) (*core.Result, error) {
	return dsmsim.Start(context.Background(), cfg, entry.New(r.opts.Size), dsmsim.WithVerify(r.opts.Verify))
}

// progress emits one custom progress line through the serializing sink.
func (r *Runner) progress(format string, args ...any) {
	if r.opts.Progress != nil {
		r.eng.Sink().Logf(format, args...)
	}
}

func (r *Runner) printf(format string, args ...any) {
	fmt.Fprintf(r.opts.Out, format, args...)
}

// harmonicMean returns the harmonic mean of xs.
func harmonicMean(xs []float64) float64 {
	s := 0.0
	for _, x := range xs {
		s += 1 / x
	}
	return float64(len(xs)) / s
}

// Experiment names one regenerable table or figure.
type Experiment struct {
	Name string
	Desc string
	// Points lists the matrix runs the experiment will consume, for
	// parallel prefetch; nil for experiments built from out-of-matrix
	// configurations (custom node counts, software access checks).
	Points func(o Options) []sweep.Key
	// Run renders the experiment (drawing on prefetched runs when the
	// caller prefetched; computing serially otherwise).
	Run func(r *Runner) error
}

// matrix builds keys for apps × protos × grans × notifies at o's scale,
// optionally preceded by each app's sequential baseline — the canonical
// order prefetch emission follows.
func (o Options) matrix(appNames, protos []string, grans []int, notifies []network.Notify, baselines bool) []sweep.Key {
	nodes := o.Nodes
	if nodes == 0 {
		nodes = 16
	}
	var faultNames []string
	for _, v := range o.FaultGrid {
		faultNames = append(faultNames, v.Name)
	}
	s := sweep.Spec{
		Apps: appNames, Protocols: protos, Granularities: grans,
		Notifies: notifies, Nodes: nodes, Baselines: baselines,
		Variants: faultNames,
	}
	return s.Points()
}

var polling = []network.Notify{network.Polling}

// Experiments lists every experiment in paper order.
func Experiments() []Experiment {
	exps := []Experiment{
		{"table1", "Benchmarks, problem sizes, sequential execution times",
			func(o Options) []sweep.Key {
				var pts []sweep.Key
				for _, app := range apps.Originals() {
					pts = append(pts, sweep.Seq(app))
				}
				return pts
			},
			(*Runner).Table1},
		{"fig1", "Speedups: 12 apps × 3 protocols × 4 granularities (polling)",
			func(o Options) []sweep.Key {
				return o.matrix(apps.Names(), o.protocols(), core.Granularities, polling, true)
			},
			(*Runner).Fig1},
		{"table2", "Classification of sharing patterns and synchronization granularity",
			func(o Options) []sweep.Key {
				return o.matrix(apps.Names(), o.protocols(), core.Granularities, polling, true)
			},
			(*Runner).Table2},
	}
	faultApps := []struct{ exp, app string }{
		{"table3", "lu"}, {"table4", "ocean-rowwise"}, {"table5", "ocean-original"},
		{"table6", "fft"}, {"table7", "water-nsquared"}, {"table8", "volrend-rowwise"},
		{"table9", "volrend-original"}, {"table10", "water-spatial"}, {"table11", "raytrace"},
		{"table12", "barnes-spatial"}, {"table13", "barnes-original"}, {"table14", "barnes-partree"},
	}
	for _, fa := range faultApps {
		fa := fa
		exps = append(exps, Experiment{
			fa.exp, fmt.Sprintf("Read/write fault counts for %s", fa.app),
			func(o Options) []sweep.Key {
				return o.matrix([]string{fa.app}, o.protocols(), core.Granularities, polling, false)
			},
			func(r *Runner) error { return r.FaultTable(fa.app) },
		})
	}
	exps = append(exps,
		Experiment{"table15", "Barnes-Original data traffic by protocol and granularity",
			func(o Options) []sweep.Key {
				return o.matrix([]string{"barnes-original"}, o.protocols(), core.Granularities, polling, false)
			},
			(*Runner).Table15},
		Experiment{"table16", "HM of relative efficiency, original applications",
			func(o Options) []sweep.Key {
				return o.matrix(apps.Originals(), o.protocols(), core.Granularities, polling, true)
			},
			(*Runner).Table16},
		Experiment{"table17", "HM of relative efficiency, best version per combination",
			func(o Options) []sweep.Key {
				return o.matrix(apps.Names(), o.protocols(), core.Granularities, polling, true)
			},
			(*Runner).Table17},
		Experiment{"fig2", "Speedups of LU and Water-Nsquared with the interrupt mechanism",
			func(o Options) []sweep.Key {
				return o.matrix([]string{"lu", "water-nsquared"}, o.protocols(), core.Granularities,
					[]network.Notify{network.Interrupt}, true)
			},
			(*Runner).Fig2},
	)
	exps = append(exps, extensions...)
	return exps
}

// Get returns the named experiment.
func Get(name string) (Experiment, error) {
	for _, e := range Experiments() {
		if e.Name == name {
			return e, nil
		}
	}
	var names []string
	for _, e := range Experiments() {
		names = append(names, e.Name)
	}
	sort.Strings(names)
	return Experiment{}, fmt.Errorf("harness: unknown experiment %q (have %v)", name, names)
}

// PointsFor unions (and dedupes) the prefetchable point sets of the given
// experiments, preserving experiment order — the deterministic emission
// order of a prefetch covering them.
func PointsFor(o Options, exps []Experiment) []sweep.Key {
	var pts []sweep.Key
	for _, e := range exps {
		if e.Points != nil {
			pts = append(pts, e.Points(o)...)
		}
	}
	return sweep.Dedupe(pts)
}
