package core

import (
	"context"
	"errors"
	"testing"
	"time"

	"dsmsim/internal/sim"
)

// spinApp computes in many small chunks so the engine dispatches a steady
// stream of events — exactly the workload Run must be able to stop
// mid-flight. Rounds controls how long it runs.
type spinApp struct {
	rounds int
}

func (a *spinApp) Info() AppInfo { return AppInfo{Name: "spin", HeapBytes: 4096} }
func (a *spinApp) Setup(h *Heap) { h.Alloc(8, 8) }
func (a *spinApp) Run(c *Ctx) {
	for i := 0; i < a.rounds; i++ {
		c.Compute(10 * sim.Microsecond)
		c.Barrier()
	}
}
func (a *spinApp) Verify(h *Heap) error { return nil }

func cancelConfig() Config {
	return Config{Nodes: 4, BlockSize: 1024, Protocol: HLRC}
}

func TestRunContextPreCancelled(t *testing.T) {
	m, err := NewMachine(cancelConfig())
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := m.Run(ctx, &spinApp{rounds: 100}); !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
}

func TestRunContextCancelMidRun(t *testing.T) {
	m, err := NewMachine(cancelConfig())
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	go func() {
		time.Sleep(10 * time.Millisecond)
		cancel()
	}()
	start := time.Now()
	// Effectively unbounded: without cancellation this run takes far longer
	// than the test timeout.
	_, err = m.Run(ctx, &spinApp{rounds: 50_000_000})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if wall := time.Since(start); wall > 5*time.Second {
		t.Fatalf("cancellation took %v, want prompt stop", wall)
	}

	// The machine holds no per-run state, so the same Machine must run a
	// fresh simulation to completion afterwards, and the result must match
	// a run on a brand-new machine bit for bit.
	res, err := runVerified(context.Background(), m, &spinApp{rounds: 50})
	if err != nil {
		t.Fatalf("machine unusable after cancelled run: %v", err)
	}
	m2, err := NewMachine(cancelConfig())
	if err != nil {
		t.Fatal(err)
	}
	res2, err := runVerified(context.Background(), m2, &spinApp{rounds: 50})
	if err != nil {
		t.Fatal(err)
	}
	if res.Time != res2.Time || res.NetMsgs != res2.NetMsgs {
		t.Fatalf("post-cancel run diverged: T=%v msgs=%d vs fresh T=%v msgs=%d",
			res.Time, res.NetMsgs, res2.Time, res2.NetMsgs)
	}
}

// TestRunContextObservational checks that a cancellable context that is
// never cancelled does not perturb the simulation: the interrupt poll is
// pure observation, so results are bit-identical to Run.
func TestRunContextObservational(t *testing.T) {
	m, err := NewMachine(cancelConfig())
	if err != nil {
		t.Fatal(err)
	}
	plain, err := m.Run(context.Background(), &spinApp{rounds: 50})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	ctxRes, err := m.Run(ctx, &spinApp{rounds: 50})
	if err != nil {
		t.Fatal(err)
	}
	if plain.Time != ctxRes.Time || plain.NetMsgs != ctxRes.NetMsgs || plain.NetBytes != ctxRes.NetBytes {
		t.Fatalf("a cancellable context perturbed the run: %v/%d/%d vs %v/%d/%d",
			plain.Time, plain.NetMsgs, plain.NetBytes, ctxRes.Time, ctxRes.NetMsgs, ctxRes.NetBytes)
	}
}

// TestConcurrentRunsOneMachine exercises the stateless-Machine guarantee:
// many goroutines running the same Machine concurrently all get the
// deterministic result.
func TestConcurrentRunsOneMachine(t *testing.T) {
	m, err := NewMachine(cancelConfig())
	if err != nil {
		t.Fatal(err)
	}
	ref, err := m.Run(context.Background(), &spinApp{rounds: 30})
	if err != nil {
		t.Fatal(err)
	}
	const workers = 8
	errs := make(chan error, workers)
	for w := 0; w < workers; w++ {
		go func() {
			res, err := m.Run(context.Background(), &spinApp{rounds: 30})
			if err == nil && (res.Time != ref.Time || res.NetMsgs != ref.NetMsgs) {
				err = errors.New("concurrent run diverged from reference")
			}
			errs <- err
		}()
	}
	for w := 0; w < workers; w++ {
		if err := <-errs; err != nil {
			t.Fatal(err)
		}
	}
}
