package main

import (
	"context"
	"runtime"
	"time"
)

// passResult is one timed pass over a workload.
type passResult struct {
	wall, cpu time.Duration
	mem       memSnap // deltas over the pass
	peakRSS   uint64
	runs      int
	failed    int
	errs      []error
	runMs     []float64 // host ms per simulated run
	// layer holds this pass's per-layer values by metric name, and kernel
	// the per-call costs the sync-mix kernels' spans give.
	layer, kernel map[string]float64
	// spans sums span durations and counts by name (spans passes only).
	spanMs    map[string]float64
	spanCount map[string]int
}

func ms(d time.Duration) float64 { return float64(d) / 1e6 }

func newPass() *passResult {
	return &passResult{layer: map[string]float64{}, kernel: map[string]float64{},
		spanMs: map[string]float64{}, spanCount: map[string]int{}}
}

// measure runs one pass of w in mode m with a collected heap and process
// counters around it.
func measure(ctx context.Context, w workload, m mode) *passResult {
	p := newPass()
	runtime.GC()
	m0, c0 := readMem(), cpuTime()
	rss := startRSS()
	t0 := time.Now()
	w.pass(ctx, m, p)
	p.wall = time.Since(t0)
	p.peakRSS = rss.finish()
	m1 := readMem()
	p.cpu = cpuTime() - c0
	p.mem = memSnap{
		totalAlloc: m1.totalAlloc - m0.totalAlloc, mallocs: m1.mallocs - m0.mallocs,
		numGC: m1.numGC - m0.numGC, pauseNs: m1.pauseNs - m0.pauseNs,
	}
	return p
}

// tally folds the outcomes of a pass's runs into p: run count, failures,
// per-run walls, the per-protocol and network counters and, for spans and
// events passes, the lifecycle split, kernel timings and event count.
func (p *passResult) tally(outs []runOut, m mode) {
	var lc lifecycle
	var nlc, succeeded int
	var ev int64
	ks := kernelSums{}
	var c counts
	for i := range outs {
		o := &outs[i]
		p.runs++
		p.runMs = append(p.runMs, ms(o.wall))
		if o.err != nil {
			p.failed++
			p.errs = append(p.errs, o.err)
			continue
		}
		succeeded++
		p.addCounts(o.job.proto, o.counts)
		c.add(o.counts)
		ev += o.events
		if o.log == nil {
			continue
		}
		for _, s := range o.log.spans {
			p.spanMs[s.name] += ms(s.end - s.start)
			p.spanCount[s.name]++
		}
		if l, ok := lifecycleOf(o.log); ok {
			lc.coreSetup += l.coreSetup
			lc.parallel += l.parallel
			lc.teardown += l.teardown
			lc.appSetup += l.appSetup
			lc.appVerify += l.appVerify
			nlc++
		}
		ks.add(o)
	}
	l := p.layer
	l["network.msgs"] += float64(c.msgs)
	l["network.bytes"] += float64(c.bytes)
	l["network.retransmits"] += float64(c.retransmits)
	l["network.timeouts"] += float64(c.timeouts)
	l["network.wire_drops"] += float64(c.wireDrops)
	l["network.duplicates"] += float64(c.duplicates)
	if den := c.msgs + c.retransmits + c.duplicates; den > 0 {
		l["network.useful_frac"] = float64(c.msgs) / float64(den)
	}
	if nlc > 0 {
		n := float64(nlc)
		l["core.setup_ms"] = ms(lc.coreSetup) / n
		l["core.parallel_ms"] = ms(lc.parallel) / n
		l["core.teardown_ms"] = ms(lc.teardown) / n
		l["apps.setup_ms"] = ms(lc.appSetup) / n
		l["apps.verify_ms"] = ms(lc.appVerify) / n
	}
	if m == events && succeeded > 0 {
		l["sim.events"] = float64(ev) / float64(succeeded)
	}
	ks.finish(p.kernel)
}

func (c *counts) add(o counts) {
	c.readFaults += o.readFaults
	c.writeFaults += o.writeFaults
	c.invalidations += o.invalidations
	c.diffs += o.diffs
	c.lockAcquires += o.lockAcquires
	c.barrierEntries += o.barrierEntries
	c.msgs += o.msgs
	c.bytes += o.bytes
	c.retransmits += o.retransmits
	c.timeouts += o.timeouts
	c.wireDrops += o.wireDrops
	c.duplicates += o.duplicates
}

// addCounts adds one run's protocol and synchronization counters under its
// protocol's name; sequential baselines have none.
func (p *passResult) addCounts(proto string, c counts) {
	if proto == "" {
		return
	}
	l := p.layer
	l["proto."+proto+".read_faults"] += float64(c.readFaults)
	l["proto."+proto+".write_faults"] += float64(c.writeFaults)
	l["proto."+proto+".invalidations"] += float64(c.invalidations)
	l["proto."+proto+".diffs"] += float64(c.diffs)
	l["synch."+proto+".lock_acquires"] += float64(c.lockAcquires)
	l["synch."+proto+".barrier_entries"] += float64(c.barrierEntries)
}
