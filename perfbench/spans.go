package main

import (
	"time"

	"dsmsim"
)

// span is one timed interval recorded by the benchmark's own code around a
// call into the simulator: its name, start and end (host time since the
// run's start) and the index of the span that caused it (-1 for a root).
type span struct {
	name       string
	start, end time.Duration
	parent     int32
}

// spanLog holds the spans of one run. Procs of one simulation hand off to
// each other over channels, so only one goroutine appends at a time and
// each hand-off orders the appends; concurrent runs use separate logs.
type spanLog struct {
	t0    time.Time
	spans []span
	// node[i] is the index of node i's open app.run span, the parent of
	// every Ctx call a kernel times on that node.
	node []int32
}

func newSpanLog() *spanLog { return &spanLog{t0: time.Now()} }

func (l *spanLog) now() time.Duration { return time.Since(l.t0) }

// open starts a span and returns its index.
func (l *spanLog) open(name string, parent int32) int32 {
	l.spans = append(l.spans, span{name: name, start: l.now(), end: -1, parent: parent})
	return int32(len(l.spans) - 1)
}

// close ends span i.
func (l *spanLog) close(i int32) { l.spans[i].end = l.now() }

// add records a span whose bounds the caller measured.
func (l *spanLog) add(name string, start, end time.Duration, parent int32) {
	l.spans = append(l.spans, span{name: name, start: start, end: end, parent: parent})
}

// lifecycle is one run's host-time split, in the terms of the per-layer
// table: set-up inside the core (Start to the first App.Run entry, less
// the app's own Setup), the parallel phase (first Run entry to last Run
// exit), teardown (last exit to Start's return, less Verify), and the
// app's Setup and Verify.
type lifecycle struct {
	coreSetup, parallel, teardown, appSetup, appVerify time.Duration
}

// lifecycleOf derives the split from a run's spans: the root "start" span,
// its "app.setup" and "app.verify" children and one "app.run" per node.
func lifecycleOf(l *spanLog) (lifecycle, bool) {
	var lc lifecycle
	var root *span
	first, last := time.Duration(-1), time.Duration(-1)
	for i := range l.spans {
		s := &l.spans[i]
		switch s.name {
		case "start":
			root = s
		case "app.setup":
			lc.appSetup += s.end - s.start
		case "app.verify":
			lc.appVerify += s.end - s.start
		case "app.run":
			if first < 0 || s.start < first {
				first = s.start
			}
			if s.end > last {
				last = s.end
			}
		}
	}
	if root == nil || first < 0 || root.end < 0 {
		return lc, false
	}
	lc.coreSetup = first - root.start - lc.appSetup
	lc.parallel = last - first
	lc.teardown = root.end - last - lc.appVerify
	return lc, true
}

// timedApp wraps an App and stamps its lifecycle into a spanLog: Setup,
// every node's Run (or RunFrom) entry and exit, and Verify. A node's exit
// is stamped by a deferred call, so a proc unwound at a checkpoint cut is
// stamped at the moment it unwinds.
type timedApp struct {
	inner dsmsim.App
	log   *spanLog
}

// timedResumable is timedApp for an app that can resume from a
// checkpoint; RunFromCheckpoint requires the wrapper to keep that method.
type timedResumable struct {
	timedApp
	resume interface{ RunFrom(*dsmsim.Ctx, int) }
}

// wrap returns app instrumented to log, keeping its resumability.
func wrap(app dsmsim.App, log *spanLog) dsmsim.App {
	t := timedApp{inner: app, log: log}
	if r, ok := app.(interface{ RunFrom(*dsmsim.Ctx, int) }); ok {
		return &timedResumable{timedApp: t, resume: r}
	}
	return &t
}

func (a *timedApp) Info() dsmsim.AppInfo { return a.inner.Info() }

func (a *timedApp) Setup(h *dsmsim.Heap) {
	i := a.log.open("app.setup", 0)
	a.inner.Setup(h)
	a.log.close(i)
}

func (a *timedApp) Run(c *dsmsim.Ctx) {
	defer a.enter(c)()
	a.inner.Run(c)
}

func (a *timedResumable) RunFrom(c *dsmsim.Ctx, epoch int) {
	defer a.enter(c)()
	a.resume.RunFrom(c, epoch)
}

// enter opens node c's app.run span and returns the call that closes it.
func (a *timedApp) enter(c *dsmsim.Ctx) func() {
	if a.log.node == nil {
		a.log.node = make([]int32, c.NP())
	}
	i := a.log.open("app.run", 0)
	a.log.node[c.ID()] = i
	return func() { a.log.close(i) }
}

func (a *timedApp) Verify(h *dsmsim.Heap) error {
	i := a.log.open("app.verify", 0)
	defer a.log.close(i)
	return a.inner.Verify(h)
}
