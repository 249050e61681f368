package main

import (
	"context"
	"fmt"
	"time"

	"dsmsim"
)

// probeReps is how many times the checkpoint probe times each
// configuration; it reports the mean over configurations of each one's
// median, so a collection landing in one measurement does not move it.
const probeReps = 3

// checkpointProbe times checkpoint restore and capture directly through
// Machine.RunToBarrier and RunFromCheckpoint, at every healthy prefix the
// fault-fork sweep forks from (fft, lu, ocean-rowwise × the paper's
// protocols × 4 granularities, cut at barrier faultStart).
//
// Restore is timed on the bundled app: from the RunFromCheckpoint call to
// the first node entering RunFrom. Each restored run is verified and must
// digest equal to a flat, verified Start run of the same configuration.
//
// Capture cannot be bracketed from outside on a bundled app, whose
// barrier calls are not visible. It is timed on ckptApp, a resumable app
// with the same heap size whose nodes each touch their own and their
// neighbour's partition between barriers: from the last node entering
// the cut barrier to the first node unwinding after the capture.
func checkpointProbe(ctx context.Context) *passResult {
	p := newPass()
	t0 := time.Now()
	flat := map[string]uint64{}
	var capSum, resSum float64
	n := 0
	for _, name := range forkApps {
		for _, proto := range paperProtocols {
			for _, g := range granularities {
				var caps, ress []float64
				for rep := 0; rep < probeReps; rep++ {
					c, r, err := probeOne(ctx, name, proto, g, flat)
					p.runs++
					if err != nil {
						p.failed++
						p.errs = append(p.errs, err)
						continue
					}
					caps = append(caps, ms(c))
					ress = append(ress, ms(r))
				}
				if len(caps) > 0 {
					capSum += median(caps)
					resSum += median(ress)
					n++
				}
			}
		}
	}
	p.wall = time.Since(t0)
	if n > 0 {
		p.layer["core.checkpoint_capture_ms"] = capSum / float64(n)
		p.layer["core.checkpoint_restore_ms"] = resSum / float64(n)
	}
	return p
}

// probeOne times one configuration. flat caches the flat runs' digests
// across repetitions.
func probeOne(ctx context.Context, name, proto string, block int, flat map[string]uint64) (capture, restore time.Duration, err error) {
	key := dsmsim.SweepPoint{App: name, Protocol: proto, Block: block, Notify: dsmsim.Polling, Nodes: 16}.String()
	cfg := dsmsim.Config{Nodes: 16, BlockSize: block, Protocol: proto}
	if _, ok := flat[key]; !ok {
		res, err := dsmsim.Start(ctx, cfg, bundled(name)(nil), dsmsim.WithVerify())
		if err != nil {
			return 0, 0, fmt.Errorf("%s: flat run: %w", key, err)
		}
		flat[key] = digest(res)
	}
	m, err := dsmsim.NewMachine(cfg)
	if err != nil {
		return 0, 0, err
	}
	cp, err := m.RunToBarrier(ctx, bundled(name)(nil), faultStart)
	if err != nil {
		return 0, 0, fmt.Errorf("%s: prefix: %w", key, err)
	}
	log := newSpanLog()
	log.open("start", -1)
	app := wrap(bundled(name)(nil), log)
	res, err := m.RunFromCheckpoint(ctx, cp, app)
	log.close(0)
	if err != nil {
		return 0, 0, fmt.Errorf("%s: restore: %w", key, err)
	}
	if err := app.Verify(res.Heap); err != nil {
		return 0, 0, fmt.Errorf("%s: restored run: verify: %w", key, err)
	}
	if d, want := digest(res), flat[key]; d != want {
		return 0, 0, fmt.Errorf("%s: restored run digest %016x, flat twin %016x", key, d, want)
	}
	restore = firstSpan(log, "app.run").start - log.spans[0].start

	heap := bundled(name)(nil).Info().HeapBytes
	plog := newSpanLog()
	if _, err := m.RunToBarrier(ctx, wrap(&ckptApp{heapBytes: heap, block: block, log: plog}, plog), faultStart); err != nil {
		return 0, 0, fmt.Errorf("%s: capture probe: %w", key, err)
	}
	var cut, unwind time.Duration = -1, -1
	for _, s := range plog.spans {
		switch {
		case s.name == "ctx.barrier.cut" && s.start > cut:
			cut = s.start
		case s.name == "app.run" && (unwind < 0 || s.end < unwind):
			unwind = s.end
		}
	}
	if cut < 0 || unwind < cut {
		return 0, 0, fmt.Errorf("%s: capture probe: no cut recorded", key)
	}
	return unwind - cut, restore, nil
}

// firstSpan returns the earliest-starting span named name.
func firstSpan(l *spanLog, name string) span {
	best := span{start: -1}
	for _, s := range l.spans {
		if s.name == name && (best.start < 0 || s.start < best.start) {
			best = s
		}
	}
	return best
}

// ckptApp is the capture probe: a resumable app whose nodes each write one
// word per block of their own heap partition and read one per block of
// their neighbour's, then meet at a barrier, for faultStart+1 epochs. It
// logs each node's entry into the faultStart-th barrier, the cut.
type ckptApp struct {
	heapBytes, block int
	log              *spanLog
	base, part       int
}

func (a *ckptApp) Info() dsmsim.AppInfo {
	return dsmsim.AppInfo{Name: "ckpt-probe", HeapBytes: a.heapBytes}
}

func (a *ckptApp) Setup(h *dsmsim.Heap) {
	a.part = max(a.block, (a.heapBytes-4096)/16/a.block*a.block)
	a.base = h.AllocPage(16 * a.part)
}

func (a *ckptApp) Run(c *dsmsim.Ctx) { a.RunFrom(c, 0) }

func (a *ckptApp) RunFrom(c *dsmsim.Ctx, epoch int) {
	me, np := c.ID(), c.NP()
	mine, next := a.base+me*a.part, a.base+(me+1)%np*a.part
	for e := epoch; e <= faultStart; e++ {
		for off := 0; off < a.part; off += a.block {
			c.WriteF64(mine+off, float64(e))
			_ = c.ReadF64(next + off)
		}
		if e == faultStart-1 {
			t := a.log.now()
			a.log.add("ctx.barrier.cut", t, t, a.log.node[me])
		}
		c.Barrier()
	}
}

func (a *ckptApp) Verify(*dsmsim.Heap) error { return nil }

// sweepProbe runs the fault-fork machinery on a slice of its grid — fft at
// 4 KB under the paper's protocols and all 12 variants, 36 forked runs
// checked against their flat twins — for workloads that bypass the sweep
// layer.
func sweepProbe(ctx context.Context, class uint64) *passResult {
	w := newFaultFork(class, nil)
	w.spec.Apps, w.spec.Granularities = []string{"fft"}, []int{4096}
	w.checkFlat(ctx, plain)
	return measure(ctx, w, plain)
}
