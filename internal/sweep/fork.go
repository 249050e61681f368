package sweep

import (
	"context"
	"fmt"
	"sync/atomic"
	"time"

	"dsmsim/internal/core"
	"dsmsim/internal/faults"
)

// FaultVariant names one fault plan of a fault grid. A sweep with a grid
// attached (Options.FaultGrid) runs every matrix point once per variant;
// a nil Plan is the healthy-machine member of the grid.
type FaultVariant struct {
	Name string
	Plan *faults.Plan
}

// planFor resolves the fault plan one point runs under: its grid variant
// when the point carries a Fault name, the sweep-wide plan otherwise.
func (e *Engine) planFor(k Key) (*faults.Plan, error) {
	if k.Fault == "" || k.Sequential {
		return e.opts.Config.Faults, nil
	}
	for _, v := range e.opts.FaultGrid {
		if v.Name == k.Fault {
			return v.Plan, nil
		}
	}
	return nil, fmt.Errorf("sweep: %s: no fault variant %q in the grid", k, k.Fault)
}

// forkEpoch decides whether prefix sharing is on and, if so, the barrier
// epoch at which every shared prefix is cut: the earliest start barrier of
// the grid's gated plans. Up to that epoch all variants of a prefix group
// are byte-identical (plans are dormant until their start barrier), so one
// fault-free prefix run stands in for all of them. Returns 0 when forking
// is off or cannot help: fewer than two forkable variants, an engine-wide
// sharing profiler (checkpoints don't carry it), or no gated plan at all.
func (e *Engine) forkEpoch() int {
	if !e.opts.Fork || len(e.opts.FaultGrid) < 2 || e.opts.Config.ShareProfile {
		return 0
	}
	epoch, forkable := 0, 0
	for _, v := range e.opts.FaultGrid {
		if v.Plan == nil {
			forkable++ // the healthy variant forks from any prefix
			continue
		}
		sb := v.Plan.StartBarrier()
		if sb <= 0 {
			continue // ungated plans diverge from time zero: flat only
		}
		forkable++
		if epoch == 0 || sb < epoch {
			epoch = sb
		}
	}
	if epoch == 0 || forkable < 2 {
		return 0
	}
	return epoch
}

// forkable reports whether one point can take the fork path at the given
// cut epoch. Sequential baselines, non-resumable apps and points whose plan
// is not gated at or after the cut always run flat.
func (e *Engine) forkable(k Key, app core.App, plan *faults.Plan, epoch int) bool {
	if k.Sequential || k.Fault == "" {
		return false
	}
	if _, ok := app.(core.ResumableApp); !ok {
		return false
	}
	return plan == nil || plan.StartBarrier() >= epoch
}

// cpKey identifies one shared warmup prefix: the grid point with the fault
// dimension cleared, plus the barrier epoch of the cut.
type cpKey struct {
	Key
	Epoch int
}

// prefix is one shared warmup prefix: its checkpoint, the host time the
// leader spent simulating it, and how many runs were forked from it.
type prefix struct {
	cp    *core.Checkpoint
	wall  time.Duration
	forks atomic.Int64
}

// computeForked runs one grid point through the shared-prefix path: obtain
// (or join the single computation of) the group's fault-free prefix
// checkpoint, then fork it under the point's own fault plan. The result is
// byte-identical to the flat run of the same configuration — that is the
// checkpoint machinery's contract, enforced by the core equivalence tests
// and the golden sweep tests. Prefixes are retained for the engine's
// lifetime, like results — a later sweep over the same grid reuses them.
func (e *Engine) computeForked(ctx context.Context, k Key, cfg core.Config, app core.App, epoch int) (*core.Result, error) {
	key := cpKey{Key: k, Epoch: epoch}
	key.Fault = ""
	p, err, _ := e.cps.Do(key, func() (*prefix, error) {
		pcfg := cfg
		pcfg.Faults = nil
		m, err := core.NewMachine(pcfg)
		if err != nil {
			return nil, err
		}
		entry, err := e.apps(k.App)
		if err != nil {
			return nil, err
		}
		// A fresh app instance: Setup mutates the app, and the prefix can
		// run concurrently with flat-path runs holding the caller's.
		start := time.Now()
		cp, err := m.RunToBarrier(ctx, entry.New(e.opts.Size), epoch)
		if err != nil {
			return nil, err
		}
		return &prefix{cp: cp, wall: time.Since(start)}, nil
	})
	if err != nil {
		return nil, err
	}
	m, err := core.NewMachine(cfg)
	if err != nil {
		return nil, err
	}
	res, err := m.RunFromCheckpoint(ctx, p.cp, app)
	if err != nil {
		return nil, err
	}
	p.forks.Add(1)
	return e.verified(app, res)
}

// ForkStats summarizes what prefix sharing bought one engine: how many
// distinct warmup prefixes were simulated, how many runs forked from them,
// and an estimate of the warmup re-simulation wall time avoided (each run
// beyond a prefix's first would have re-simulated that prefix flat).
type ForkStats struct {
	Prefixes   int
	ForkedRuns int
	SavedWall  time.Duration
}

// ForkStats reports the engine's prefix-sharing counters so far.
func (e *Engine) ForkStats() ForkStats {
	var s ForkStats
	e.cps.each(func(p *prefix) {
		forks := int(p.forks.Load())
		s.Prefixes++
		s.ForkedRuns += forks
		if forks > 1 {
			s.SavedWall += p.wall * time.Duration(forks-1)
		}
	})
	return s
}
