package main

import (
	"fmt"

	"dsmsim"
)

// The sync-mix kernels. Bundled apps take *Ctx directly, so this is the
// only place the per-call costs of the access path, the protocols'
// faults, locks, barriers and Compute can be timed from outside the
// simulator. Each kernel is its own run, so the run's counters describe
// that kernel alone and its self-check can hold it to what its span names
// claim.
const (
	kHit       = "hit"       // reads and writes of blocks the node holds valid
	kProdCons  = "prodcons"  // each node writes its slice; barrier; every node reads the others'
	kMigratory = "migratory" // lock-protected read-modify-write of one shared counter
	kBarrier   = "barrier"   // back-to-back barrier episodes
	kCompute   = "compute"   // Ctx.Compute calls
	kARQ       = "arq-read"  // prodcons under a seeded 2% drop plan
)

var kernels = []string{kHit, kProdCons, kMigratory, kBarrier, kCompute, kARQ}

const (
	mixNodes        = 16
	sliceBytes      = 1024 // per node; rounded up to one block
	pcRounds        = 4
	migIters        = 8 // per node
	barrierEpisodes = 32
	computeCalls    = 512 // per node
	computeBatch    = 128
	computeDur      = 100 * dsmsim.Time(1) // ns of simulated compute per call
	hitPairs        = 4096                 // read+write pairs per node
	hitBatch        = 512                  // pairs per timed batch
)

// layout is the seed-driven part of the kernels' inputs: where each node's
// slice sits, the order consumers visit producers, which word of a block
// is used, the lock and counter placement, and the drop plan's seed.
type layout struct {
	perm      []int
	rot       int
	word      int // word index inside a 64-byte block, 0..7
	lock      int
	counter   int // counter word index inside its page
	faultSeed uint64
}

func newLayout(class uint64) layout {
	x := splitmix64(class ^ 0x5e1f)
	next := func(n int) int {
		x = splitmix64(x)
		return int(x % uint64(n))
	}
	perm := make([]int, mixNodes)
	for i := range perm {
		perm[i] = i
	}
	for i := len(perm) - 1; i > 0; i-- {
		j := next(i + 1)
		perm[i], perm[j] = perm[j], perm[i]
	}
	return layout{
		perm: perm, rot: 1 + next(mixNodes-1), word: next(8),
		lock: next(16), counter: next(512), faultSeed: splitmix64(x),
	}
}

// mixApp runs one kernel on every node.
type mixApp struct {
	kernel string
	block  int
	lay    layout
	log    *spanLog
	slice  int // bytes per node's slice
	base   int // address of slot 0
	ctr    int // address of the migratory counter
	bad    error
}

func newMixApp(kernel string, block int, lay layout, log *spanLog) *mixApp {
	return &mixApp{kernel: kernel, block: block, lay: lay, log: log, slice: max(block, sliceBytes)}
}

func (a *mixApp) Info() dsmsim.AppInfo {
	return dsmsim.AppInfo{Name: "syncmix-" + a.kernel, HeapBytes: mixNodes*a.slice + 2*4096}
}

func (a *mixApp) Setup(h *dsmsim.Heap) {
	h.Label("slices")
	a.base = h.AllocPage(mixNodes * a.slice)
	h.Label("counter")
	a.ctr = h.AllocPage(4096) + 8*a.lay.counter
}

// slot returns the address of node n's slice.
func (a *mixApp) slot(n int) int { return a.base + a.lay.perm[n]*a.slice }

// blocks is the number of coherence blocks in one slice.
func (a *mixApp) blocks() int { return a.slice / a.block }

// word returns the address of the kernel's word in block b of node n's slice.
func (a *mixApp) word(n, b int) int { return a.slot(n) + b*a.block + 8*a.lay.word }

// value is what node n writes to block b in round r.
func value(r, n, b int) float64 { return float64(r*1_000_000 + n*1_000 + b) }

// timed runs f and, when spans are on, records it as a span under the
// calling node's app.run span.
func (a *mixApp) timed(c *dsmsim.Ctx, name string, f func()) {
	if a.log == nil {
		f()
		return
	}
	t0 := a.log.now()
	f()
	a.log.add(name, t0, a.log.now(), a.log.node[c.ID()])
}

func (a *mixApp) Run(c *dsmsim.Ctx) {
	me, np := c.ID(), c.NP()
	switch a.kernel {
	case kHit:
		s, n := a.slot(me), a.slice/8
		for i := 0; i < n; i++ {
			c.WriteF64(s+8*i, 0)
		}
		for b := 0; b < hitPairs/hitBatch; b++ {
			a.timed(c, "ctx.hit", func() {
				for j := 0; j < hitBatch; j++ {
					addr := s + 8*((b*hitBatch+j*7)%n)
					c.WriteF64(addr, c.ReadF64(addr)+1)
				}
			})
		}
	case kProdCons, kARQ:
		for r := 0; r < pcRounds; r++ {
			for b := 0; b < a.blocks(); b++ {
				a.timed(c, "ctx.write", func() { c.WriteF64(a.word(me, b), value(r, me, b)) })
			}
			c.Barrier()
			for q := 0; q < np; q++ {
				p := (me + a.lay.rot + q) % np
				if p == me {
					continue
				}
				for b := 0; b < a.blocks(); b++ {
					var v float64
					a.timed(c, "ctx.read", func() { v = c.ReadF64(a.word(p, b)) })
					if want := value(r, p, b); v != want && a.bad == nil {
						a.bad = fmt.Errorf("node %d round %d read %v from node %d block %d, want %v", me, r, v, p, b, want)
					}
				}
			}
			c.Barrier()
		}
	case kMigratory:
		for i := 0; i < migIters; i++ {
			a.timed(c, "ctx.lock", func() { c.Lock(a.lay.lock) })
			var v int64
			a.timed(c, "ctx.read", func() { v = c.ReadI64(a.ctr) })
			a.timed(c, "ctx.write", func() { c.WriteI64(a.ctr, v+1) })
			a.timed(c, "ctx.unlock", func() { c.Unlock(a.lay.lock) })
		}
	case kBarrier:
		for i := 0; i < barrierEpisodes; i++ {
			a.timed(c, "ctx.barrier", c.Barrier)
		}
	case kCompute:
		for b := 0; b < computeCalls/computeBatch; b++ {
			a.timed(c, "ctx.compute", func() {
				for j := 0; j < computeBatch; j++ {
					c.Compute(computeDur)
				}
			})
		}
	}
}

func (a *mixApp) Verify(h *dsmsim.Heap) error {
	if a.bad != nil {
		return a.bad
	}
	switch a.kernel {
	case kHit:
		var sum float64
		for _, v := range h.F64s(a.base, mixNodes*a.slice/8) {
			sum += v
		}
		if want := float64(mixNodes * hitPairs); sum != want {
			return fmt.Errorf("hit: slice sum %v, want %v", sum, want)
		}
	case kProdCons, kARQ:
		for n := 0; n < mixNodes; n++ {
			for b := 0; b < a.blocks(); b++ {
				if v, want := h.F64s(a.word(n, b), 1)[0], value(pcRounds-1, n, b); v != want {
					return fmt.Errorf("%s: node %d block %d holds %v, want %v", a.kernel, n, b, v, want)
				}
			}
		}
	case kMigratory:
		if v, want := h.I64s(a.ctr, 1)[0], int64(mixNodes*migIters); v != want {
			return fmt.Errorf("migratory: counter %d, want %d", v, want)
		}
	}
	return nil
}

// selfCheck holds a kernel run to what its span names claim, from the
// run's counters.
func selfCheck(kernel string, block int) func(r *dsmsim.Result) error {
	blocks := max(block, sliceBytes) / block
	return func(r *dsmsim.Result) error {
		t := &r.Total
		switch kernel {
		case kHit:
			// Only the first touch of each block may fault; every timed
			// access is a hit.
			if cold := int64(2 * mixNodes * blocks); t.ReadFaults+t.WriteFaults > cold {
				return fmt.Errorf("hit: %d faults, at most %d cold faults expected",
					t.ReadFaults+t.WriteFaults, cold)
			}
		case kProdCons, kARQ:
			// Every consumer read is of a block another node wrote since
			// the reader last held it, so each must fault.
			if want := int64(pcRounds * mixNodes * (mixNodes - 1) * blocks); t.ReadFaults < want {
				return fmt.Errorf("%s: %d read faults, want >= %d (one per timed read)", kernel, t.ReadFaults, want)
			}
			if kernel == kARQ && (r.WireDrops == 0 || r.Retransmits == 0) {
				return fmt.Errorf("arq-read: %d wire drops, %d retransmits; the drop plan did not engage",
					r.WireDrops, r.Retransmits)
			}
		case kMigratory:
			if want := int64(mixNodes * migIters); t.LockAcquires != want {
				return fmt.Errorf("migratory: %d lock acquires, want %d", t.LockAcquires, want)
			}
		case kBarrier:
			if want := int64(mixNodes * barrierEpisodes); t.BarrierEntries != want {
				return fmt.Errorf("barrier: %d barrier entries, want %d", t.BarrierEntries, want)
			}
		case kCompute:
			if want := dsmsim.Time(mixNodes*computeCalls) * computeDur; t.Compute < want {
				return fmt.Errorf("compute: %v simulated compute, want >= %v", t.Compute, want)
			}
		}
		return nil
	}
}

// newSyncMix builds the kernels' runs: every kernel under each of the
// five registered protocols at 64 B and 4096 B, 16 nodes, on two workers.
func newSyncMix(class uint64, ref reference) *jobWorkload {
	w := &jobWorkload{workers: workers}
	lay := newLayout(class)
	for _, k := range kernels {
		for _, p := range allProtocols {
			for _, g := range []int{64, 4096} {
				k, g := k, g
				key := fmt.Sprintf("c%d/%s/%s/%d", class, k, p, g)
				j := &job{
					key: key, proto: p, kernel: k,
					cfg:    dsmsim.Config{Nodes: mixNodes, BlockSize: g, Protocol: p},
					newApp: func(log *spanLog) dsmsim.App { return newMixApp(k, g, lay, log) },
					check:  selfCheck(k, g),
					want:   refWant(ref, syncMix, key),
				}
				if k == kARQ {
					j.faults = dsmsim.NewFaultPlan(dsmsim.Drop(0.02), dsmsim.FaultSeed(lay.faultSeed))
				}
				w.jobs = append(w.jobs, j)
			}
		}
	}
	for _, j := range w.jobs {
		if j.cfg.BlockSize == 4096 {
			w.warm = append(w.warm, j)
		}
	}
	return w
}

// kernelSums accumulates the sync-mix spans into per-call costs.
type kernelSums struct {
	sum   map[string]float64 // metric → summed span ms
	denom map[string]float64 // metric → calls or faults
}

func (k *kernelSums) put(metric string, spanMs, denom float64) {
	if k.sum == nil {
		k.sum, k.denom = map[string]float64{}, map[string]float64{}
	}
	k.sum[metric] += spanMs
	k.denom[metric] += denom
}

// add folds one kernel run. Fault costs are the timed calls' total wall
// over the faults the run counted: hits cost nanoseconds, so the total is
// the faulting calls' cost.
func (k *kernelSums) add(o *runOut) {
	if o.job.kernel == "" {
		return
	}
	total := map[string]float64{}
	calls := map[string]float64{}
	for _, s := range o.log.spans {
		total[s.name] += ms(s.end - s.start)
		calls[s.name]++
	}
	p := o.job.proto
	switch o.job.kernel {
	case kHit:
		k.put("core.access_hit_ns", total["ctx.hit"]*1e6, calls["ctx.hit"]*2*hitBatch)
	case kCompute:
		// All nodes compute at once and each call yields to the others, so
		// a call's own wall would count its siblings' work: the cost per
		// call is the parallel phase over every node's calls.
		if lc, ok := lifecycleOf(o.log); ok {
			k.put("sim.compute_ns", float64(lc.parallel), mixNodes*computeCalls)
		}
	case kBarrier:
		k.put("synch."+p+".barrier_us", total["ctx.barrier"]*1e3, calls["ctx.barrier"])
	case kARQ:
		k.put("network.arq_read_fault_us", total["ctx.read"]*1e3, float64(o.counts.readFaults))
	case kMigratory:
		k.put("synch."+p+".lock_us", total["ctx.lock"]*1e3, calls["ctx.lock"])
		k.put("synch."+p+".unlock_us", total["ctx.unlock"]*1e3, calls["ctx.unlock"])
		fallthrough
	case kProdCons:
		k.put("proto."+p+".read_fault_us", total["ctx.read"]*1e3, float64(o.counts.readFaults))
		k.put("proto."+p+".write_fault_us", total["ctx.write"]*1e3, float64(o.counts.writeFaults))
	}
}

func (k *kernelSums) finish(layer map[string]float64) {
	for m, s := range k.sum {
		if d := k.denom[m]; d > 0 {
			layer[m] = s / d
		}
	}
}
