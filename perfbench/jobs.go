package main

import (
	"bytes"
	"context"
	"fmt"
	"sync"
	"time"

	"dsmsim"
)

// mode selects how much a pass observes.
type mode int

const (
	// plain runs with no instrumentation: the end-to-end timings.
	plain mode = iota
	// spans wraps every app and times the benchmark's own calls into the
	// simulator: the per-layer timings.
	spans
	// events also attaches the engine's line tracer with dispatch logging
	// to a writer that counts dispatch lines: the engine event count.
	events
)

// job is one simulated run driven through dsmsim.Start, verified.
type job struct {
	key    string // canonical run key (dsmsim.SweepPoint's form)
	proto  string // protocol name, "" for a sequential baseline
	kernel string // sync-mix kernel, "" for bundled apps
	cfg    dsmsim.Config
	faults *dsmsim.FaultPlan
	// newApp builds a fresh app instance; log is nil unless the pass
	// records spans, and only the sync-mix kernels use it.
	newApp func(log *spanLog) dsmsim.App
	// check, when set, is the run's self-check against its counters.
	check func(r *dsmsim.Result) error
	// want, when set, checks the run's digest.
	want func(d uint64) error
}

// runOut is what one run leaves behind: its host wall time, its counters
// and digest (the Result itself is dropped, since at 1024 nodes it holds
// megabytes), the failure if any, and its spans or event count.
type runOut struct {
	job    *job
	wall   time.Duration
	counts counts
	digest uint64
	err    error
	log    *spanLog
	events int64
}

// counts are the deterministic per-run counters the per-layer metrics sum.
type counts struct {
	readFaults, writeFaults, invalidations, diffs int64
	lockAcquires, barrierEntries                  int64
	msgs, bytes, retransmits, timeouts            int64
	wireDrops, duplicates                         int64
}

func countsOf(r *dsmsim.Result) counts {
	t := &r.Total
	return counts{
		readFaults: t.ReadFaults, writeFaults: t.WriteFaults,
		invalidations: t.Invalidations, diffs: t.DiffsCreated,
		lockAcquires: t.LockAcquires, barrierEntries: t.BarrierEntries,
		msgs: r.NetMsgs, bytes: r.NetBytes, retransmits: r.Retransmits,
		timeouts: r.Timeouts, wireDrops: r.WireDrops, duplicates: r.Duplicates,
	}
}

// runJobs executes jobs over a fixed pool of workers and returns their
// outcomes in job order.
func runJobs(ctx context.Context, jobs []*job, workers int, m mode) []runOut {
	out := make([]runOut, len(jobs))
	idx := make(chan int)
	var wg sync.WaitGroup
	for w := 0; w < min(workers, len(jobs)); w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range idx {
				out[i] = runJob(ctx, jobs[i], m)
			}
		}()
	}
	for i := range jobs {
		idx <- i
	}
	close(idx)
	wg.Wait()
	return out
}

func runJob(ctx context.Context, j *job, m mode) runOut {
	o := runOut{job: j}
	cfg := j.cfg
	opts := []dsmsim.Option{dsmsim.WithVerify()}
	if j.faults != nil {
		opts = append(opts, dsmsim.WithFaults(j.faults))
	}
	var ec *eventCounter
	if m == events {
		ec = &eventCounter{}
		cfg.TraceDispatch = true
		opts = append(opts, dsmsim.WithTrace(ec))
	}
	var app dsmsim.App
	if m == spans {
		o.log = newSpanLog()
		o.log.open("start", -1)
		app = wrap(j.newApp(o.log), o.log)
	} else {
		app = j.newApp(nil)
	}
	t0 := time.Now()
	res, err := dsmsim.Start(ctx, cfg, app, opts...)
	o.wall = time.Since(t0)
	if o.log != nil {
		o.log.close(0)
	}
	if ec != nil {
		o.events = ec.n
	}
	if err != nil {
		o.err = fmt.Errorf("%s: %w", j.key, err)
		return o
	}
	o.counts = countsOf(res)
	o.digest = digest(res)
	if j.check != nil {
		if err := j.check(res); err != nil {
			o.err = fmt.Errorf("%s: self-check: %w", j.key, err)
			return o
		}
	}
	if j.want != nil {
		o.err = j.want(o.digest)
	}
	return o
}

// eventCounter is an io.Writer that counts the engine's dispatch lines in
// the line-format trace and discards everything else. A line may be split
// across writes, so the tail of each write is carried into the next.
type eventCounter struct {
	n    int64
	tail []byte
}

var dispatchTag = []byte(" dispatch queued=")

func (w *eventCounter) Write(p []byte) (int, error) {
	buf := append(w.tail, p...)
	w.n += int64(bytes.Count(buf, dispatchTag))
	// Keep enough of the end to complete a tag the next write finishes,
	// but never a whole tag, which was already counted.
	keep := min(len(buf), len(dispatchTag)-1)
	w.tail = append(w.tail[:0], buf[len(buf)-keep:]...)
	return len(p), nil
}
