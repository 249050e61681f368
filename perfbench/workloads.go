package main

import (
	"context"
	"fmt"
	"time"

	"dsmsim"
)

// The four workloads. Each one puts most of the work on the layers one
// ROADMAP item targets and little on another; README.md records why each
// was chosen and which metric each layer should move on which workload.
const (
	paperMatrix = "paper-matrix"
	scale1024   = "scale-1024"
	faultFork   = "fault-fork"
	syncMix     = "sync-mix"
)

var workloadNames = []string{paperMatrix, scale1024, faultFork, syncMix}

// workers is the host worker pool every workload uses at most: the
// benchmark host has two cores, and GOMAXPROCS is capped to match.
const workers = 2

// seedClasses is how many distinct inputs the seeded workloads generate:
// the seed is taken modulo this, so every input has a recorded reference
// digest.
const seedClasses = 32

// paperProtocols are the paper's three protocols, fixed here rather than
// read from the registry so the workloads stay the same inputs when a
// protocol is registered later.
var paperProtocols = []string{dsmsim.SC, dsmsim.SWLRC, dsmsim.HLRC}

// allProtocols are the five protocols registered when the benchmark was
// defined: the paper's three plus the dc and tlc extensions.
var allProtocols = []string{dsmsim.SC, dsmsim.SWLRC, dsmsim.HLRC, dsmsim.DC, dsmsim.TLC}

var granularities = []int{64, 256, 1024, 4096}

// workload is one set of inputs the benchmark times.
type workload interface {
	// warmup runs a reduced slice of the workload so lazily built state
	// and the runtime's heap are in place before the first timed pass.
	warmup(ctx context.Context)
	// pass runs the whole workload once in mode m, filling p's runs,
	// failures and per-layer values.
	pass(ctx context.Context, m mode, p *passResult)
	// startJobs returns the workload's runs as individual Start runs and
	// the workers to run them on, for the event-counting pass.
	startJobs() ([]*job, int)
}

// bundled returns a job factory for a bundled application at Small size.
func bundled(name string) func(*spanLog) dsmsim.App {
	return func(*spanLog) dsmsim.App {
		app, err := dsmsim.NewApp(name, dsmsim.Small)
		if err != nil {
			panic(err) // names come from dsmsim.AppNames or constants above
		}
		return app
	}
}

// refWant returns a digest check against the reference entry for key.
func refWant(ref reference, workload, key string) func(uint64) error {
	if ref == nil {
		return nil
	}
	return func(d uint64) error { return ref.check(workload, key, d) }
}

// jobWorkload is a workload made of independent Start runs.
type jobWorkload struct {
	jobs    []*job
	warm    []*job
	workers int
}

// warmup discards its runs' outcomes: a failing run fails again in every
// timed pass, where it is counted.
func (w *jobWorkload) warmup(ctx context.Context) {
	runJobs(ctx, w.warm, w.workers, plain)
}

func (w *jobWorkload) pass(ctx context.Context, m mode, p *passResult) {
	p.tally(runJobs(ctx, w.jobs, w.workers, m), m)
}

func (w *jobWorkload) startJobs() ([]*job, int) { return w.jobs, w.workers }

// newPaperMatrix is the paper's evaluation as users run it: 12 apps ×
// {sc, swlrc, hlrc} × 4 granularities × {polling, interrupt} at 16 nodes,
// Small size, verified, plus the 12 sequential baselines — 300 runs on two
// workers. Its inputs do not depend on the seed.
func newPaperMatrix(ref reference) *jobWorkload {
	w := &jobWorkload{workers: workers}
	for _, name := range dsmsim.AppNames() {
		seq := dsmsim.SweepPoint{App: name, Sequential: true}.String()
		w.jobs = append(w.jobs, &job{
			key: seq, cfg: dsmsim.Config{Sequential: true, BlockSize: 4096},
			newApp: bundled(name), want: refWant(ref, paperMatrix, seq),
		})
		for _, p := range paperProtocols {
			for _, g := range granularities {
				for _, n := range []dsmsim.Notify{dsmsim.Polling, dsmsim.Interrupt} {
					k := dsmsim.SweepPoint{App: name, Protocol: p, Block: g, Notify: n, Nodes: 16}.String()
					w.jobs = append(w.jobs, &job{
						key: k, proto: p,
						cfg:    dsmsim.Config{Nodes: 16, BlockSize: g, Protocol: p, Notify: n},
						newApp: bundled(name), want: refWant(ref, paperMatrix, k),
					})
				}
			}
		}
	}
	// Warm-up: every app's baseline and its 4 KB polling runs.
	for _, j := range w.jobs {
		if j.cfg.Sequential || (j.cfg.BlockSize == 4096 && j.cfg.Notify == dsmsim.Polling) {
			w.warm = append(w.warm, j)
		}
	}
	return w
}

// newScale1024 runs fft and lu under the paper's protocols at 256 and 1024
// nodes with 4 KB blocks, verified, one run at a time: the regime where
// per-run set-up, teardown and memory grow with nodes × heap, and where
// 1024 procs stress the hand-off. Its inputs do not depend on the seed.
func newScale1024(ref reference) *jobWorkload {
	w := &jobWorkload{workers: 1}
	for _, nodes := range []int{256, 1024} {
		for _, name := range []string{"fft", "lu"} {
			for _, p := range paperProtocols {
				k := dsmsim.SweepPoint{App: name, Protocol: p, Block: 4096, Notify: dsmsim.Polling, Nodes: nodes}.String()
				w.jobs = append(w.jobs, &job{
					key: k, proto: p,
					cfg:    dsmsim.Config{Nodes: nodes, BlockSize: 4096, Protocol: p},
					newApp: bundled(name), want: refWant(ref, scale1024, k),
				})
			}
		}
	}
	w.warm = w.jobs[:3] // fft at 256 nodes
	return w
}

// splitmix64 is the seed mixer for every seeded input.
func splitmix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// faultStart is the barrier at which the grid's drop plans start, and so
// the epoch at which the fork planner cuts the shared prefix.
const faultStart = 6

// forkApps are the resumable bundled applications.
var forkApps = []string{"fft", "lu", "ocean-rowwise"}

// faultForkWorkload is dsmsim.Sweep over fft, lu and ocean-rowwise × the
// paper's protocols × 4 granularities under a 12-variant fault grid — one
// healthy variant and eleven seeded 2%-drop plans started at barrier 6 —
// with WithFork, WithParallelism(2) and WithMetrics: 432 runs. The only
// workload where checkpoint capture and restore, the fork planner, the
// sweep memo and sink, and the ARQ retransmit path do most of the work.
type faultForkWorkload struct {
	class uint64
	grid  []dsmsim.FaultVariant
	spec  dsmsim.SweepSpec
	ref   reference
	// flat holds each point's digest from a flat (unforked) run of the
	// same input, computed once by checkFlat; every forked run must match
	// its flat twin. badVariant marks variants whose flat runs failed or
	// disagree with the reference.
	flat       map[string]uint64
	badVariant map[string]error
}

// faultGrid is the seeded 12-variant grid.
func faultGrid(class uint64) []dsmsim.FaultVariant {
	grid := []dsmsim.FaultVariant{{Name: "none"}}
	for i := uint64(1); i <= 11; i++ {
		grid = append(grid, dsmsim.FaultVariant{
			Name: fmt.Sprintf("s%d", i),
			Plan: dsmsim.NewFaultPlan(dsmsim.Drop(0.02),
				dsmsim.FaultSeed(splitmix64(class<<8|i)), dsmsim.StartAtBarrier(faultStart)),
		})
	}
	return grid
}

func newFaultFork(class uint64, ref reference) *faultForkWorkload {
	return &faultForkWorkload{
		class: class, grid: faultGrid(class), ref: ref,
		spec: dsmsim.SweepSpec{
			Apps: forkApps, Protocols: paperProtocols, Granularities: granularities,
			Nodes: 16, SkipBaselines: true,
		},
	}
}

// flatJobs are the grid's points as individual flat Start runs, in the
// sweep's canonical order (per app: protocols × granularities × variants).
func (w *faultForkWorkload) flatJobs() []*job {
	var jobs []*job
	for _, name := range w.spec.Apps {
		for _, p := range w.spec.Protocols {
			for _, g := range w.spec.Granularities {
				for _, v := range w.grid {
					k := dsmsim.SweepPoint{App: name, Protocol: p, Block: g, Notify: dsmsim.Polling, Nodes: 16, Fault: v.Name}
					jobs = append(jobs, &job{
						key: k.String(), proto: p,
						cfg:    dsmsim.Config{Nodes: 16, BlockSize: g, Protocol: p},
						faults: v.Plan, newApp: bundled(name),
					})
				}
			}
		}
	}
	return jobs
}

// variantDigests folds the flat runs' digests per variant, in run order.
func variantDigests(grid []dsmsim.FaultVariant, outs []runOut) map[string]uint64 {
	per := map[string][]uint64{}
	for i, o := range outs {
		v := grid[i%len(grid)].Name
		per[v] = append(per[v], o.digest)
	}
	out := map[string]uint64{}
	for v, ds := range per {
		out[v] = combine(ds)
	}
	return out
}

func (w *faultForkWorkload) refKey(variant string) string {
	return fmt.Sprintf("c%d/%s", w.class, variant)
}

// checkFlat runs every point flat through Start in mode m and records each
// point's digest; with a reference, it also checks each variant's folded
// digest against it. It is the correctness baseline of the forked passes,
// not part of set-up or of any timed pass. The returned pass holds the
// flat runs' wall and, in spans mode, their lifecycle split.
func (w *faultForkWorkload) checkFlat(ctx context.Context, m mode) *passResult {
	p := newPass()
	t0 := time.Now()
	outs := runJobs(ctx, w.flatJobs(), workers, m)
	p.wall = time.Since(t0)
	p.tally(outs, m)
	w.flat = map[string]uint64{}
	w.badVariant = map[string]error{}
	for i, o := range outs {
		v := w.grid[i%len(w.grid)].Name
		if o.err != nil {
			if w.badVariant[v] == nil {
				w.badVariant[v] = o.err
			}
			continue
		}
		w.flat[o.job.key] = o.digest
	}
	if w.ref == nil {
		return p
	}
	for v, d := range variantDigests(w.grid, outs) {
		if w.badVariant[v] != nil {
			continue
		}
		if err := w.ref.check(faultFork, w.refKey(v), d); err != nil {
			w.badVariant[v] = err
		}
	}
	return p
}

// startJobs returns the flat twins: Sweep runs no tracer.
func (w *faultForkWorkload) startJobs() ([]*job, int) { return w.flatJobs(), workers }

func (w *faultForkWorkload) sweep(ctx context.Context, spec dsmsim.SweepSpec, reg *dsmsim.Metrics) (*dsmsim.SweepResult, error) {
	return dsmsim.Sweep(ctx, spec, dsmsim.WithFaultGrid(w.grid...), dsmsim.WithFork(),
		dsmsim.WithParallelism(workers), dsmsim.WithMetrics(reg))
}

func (w *faultForkWorkload) warmup(ctx context.Context) {
	spec := w.spec
	spec.Apps, spec.Granularities = []string{"fft", "lu"}, []int{4096}
	_, _ = w.sweep(ctx, spec, dsmsim.NewMetrics()) // failures are counted by the passes
}

func (w *faultForkWorkload) pass(ctx context.Context, _ mode, p *passResult) {
	reg := dsmsim.NewMetrics()
	t0 := time.Now()
	res, err := w.sweep(ctx, w.spec, reg)
	wall := time.Since(t0)
	if err != nil {
		// One failed run aborts the sweep, so every point counts as failed.
		n := len(w.spec.Apps) * len(w.spec.Protocols) * len(w.spec.Granularities) * len(w.grid)
		p.runs += n
		p.failed += n
		p.errs = append(p.errs, err)
		return
	}
	walls := map[string]float64{}
	for _, pt := range reg.Snapshot().Points {
		walls[pt.Key] = pt.WallSeconds * 1e3
	}
	var pointMs []float64
	var busy float64
	outs := make([]runOut, 0, len(res.Runs))
	for _, r := range res.Runs {
		k := r.Point.String()
		o := runOut{job: &job{key: k, proto: r.Point.Protocol}, wall: time.Duration(walls[k] * 1e6)}
		o.counts = countsOf(r.Result)
		o.digest = digest(r.Result)
		if err := w.badVariant[r.Point.Fault]; err != nil {
			o.err = fmt.Errorf("%s: flat twin: %w", k, err)
		} else if want, ok := w.flat[k]; !ok || want != o.digest {
			o.err = fmt.Errorf("%s: forked digest %016x, flat twin %016x", k, o.digest, want)
		}
		outs = append(outs, o)
		pointMs = append(pointMs, walls[k])
		busy += walls[k]
	}
	p.tally(outs, plain)
	p.layer["sweep.point_ms_p50"] = quantile(pointMs, 0.5)
	p.layer["sweep.point_ms_p90"] = quantile(pointMs, 0.9)
	p.layer["sweep.busy_frac"] = busy / 1e3 / (workers * wall.Seconds())
	p.layer["fork.prefixes"] = float64(res.Fork.Prefixes)
	p.layer["fork.forked_runs"] = float64(res.Fork.ForkedRuns)
	p.layer["fork.saved_s"] = res.Fork.SavedWall.Seconds()
}
