package proto

import (
	"bytes"
	"testing"

	"dsmsim/internal/critpath"
	"dsmsim/internal/mem"
	"dsmsim/internal/network"
	"dsmsim/internal/sim"
	"dsmsim/internal/stats"
	"dsmsim/internal/timing"
	"dsmsim/internal/trace"
)

// testEnv builds a two-node Env over a live engine and network, with the
// tracer writing the line format to buf and the critical-path tracker
// attached to the Env only (the network does not consume its marks).
func testEnv(buf *bytes.Buffer) *Env {
	eng := sim.NewEngine()
	model := timing.Default()
	tr := trace.New(eng)
	tr.SetLine(buf)
	env := &Env{
		Engine: eng, Model: model,
		Net:    network.New(eng, model, network.Polling, 2),
		Tracer: tr, Crit: critpath.New(2),
	}
	for i := 0; i < 2; i++ {
		env.Spaces = append(env.Spaces, mem.NewSpace(1024, 64))
		env.Stats = append(env.Stats, &stats.Node{})
	}
	return env
}

// TestForwardObserverEvents: Forward emits the trace line protocols
// emitted by hand, counts the forward at the forwarding node, and marks
// the critical path's next transmit — its own send — as a forwarding hop.
func TestForwardObserverEvents(t *testing.T) {
	for _, role := range []string{"home", "owner"} {
		var got, want bytes.Buffer
		env := testEnv(&got)
		ref := trace.New(env.Engine)
		ref.SetLine(&want)
		ref.Instant(1, trace.CatProto, "forward",
			trace.A("block", int64(3)), trace.A(role, int64(0)))

		env.Forward(1, 3, role, 0, &network.Msg{Dst: 0, Kind: ProtoKindBase, Block: 3, Bytes: 8})
		env.Tracer.Flush()
		ref.Flush()
		if got.String() != want.String() {
			t.Errorf("%s: trace %q, want %q", role, got.String(), want.String())
		}
		if env.Stats[1].Forwards != 1 || env.Stats[0].Forwards != 0 {
			t.Errorf("%s: forwards = %d/%d, want 0/1", role, env.Stats[0].Forwards, env.Stats[1].Forwards)
		}
		if c := env.Crit.WireComp(ProtoKindBase, true); c != critpath.Forward {
			t.Errorf("%s: next transmit books to %v, want forward", role, c)
		}
	}

	// With the tracker on the network too, the forwarding send itself
	// consumes the mark: it was set before the send, not after.
	env := testEnv(new(bytes.Buffer))
	env.Net.SetCrit(env.Crit)
	env.Forward(1, 3, "home", 0, &network.Msg{Dst: 0, Kind: ProtoKindBase, Block: 3, Bytes: 8})
	if c := env.Crit.WireComp(ProtoKindBase, true); c == critpath.Forward {
		t.Error("forward mark outlived the forwarding send")
	}
}

// TestRedispatchContext: Redispatch runs the handler later, under the
// critical-path context that was current when it was called, and leaves
// no context behind.
func TestRedispatchContext(t *testing.T) {
	env := testEnv(new(bytes.Buffer))
	m := &network.Msg{Dst: 1, Kind: ProtoKindBase, Block: 2}
	m.Retain()
	var ran int
	var ctxIn int32
	env.Crit.SetContext(7) // inside the handler that enables the re-dispatch
	env.Redispatch(m, func(got *network.Msg) {
		ran++
		ctxIn = env.Crit.Context()
		if got != m {
			t.Errorf("handler got %p, want %p", got, m)
		}
	})
	env.Crit.ClearContext() // that handler returns
	if ran != 0 {
		t.Fatal("handler ran synchronously")
	}
	if err := env.Engine.Run(); err != nil {
		t.Fatal(err)
	}
	if ran != 1 || ctxIn != 7 {
		t.Fatalf("handler ran %d times under context %d, want once under 7", ran, ctxIn)
	}
	if c := env.Crit.Context(); c != 0 {
		t.Fatalf("context %d left set after the re-dispatch", c)
	}
}

type recordingObserver struct{ fills, diffs []int }

func (o *recordingObserver) Filled(node, block int) { o.fills = append(o.fills, node, block) }
func (o *recordingObserver) DiffApplied(node, block int, d mem.Diff) {
	o.diffs = append(o.diffs, node, block)
}

// TestInstallAndApplyDiffReport: both data paths write the node's copy
// and report to the sharing profiler.
func TestInstallAndApplyDiffReport(t *testing.T) {
	env := testEnv(new(bytes.Buffer))
	obs := &recordingObserver{}
	env.Prof = obs
	data := bytes.Repeat([]byte{9}, 64)
	env.Install(1, 2, data)
	if !bytes.Equal(env.Spaces[1].BlockData(2), data) {
		t.Fatal("Install did not copy the block")
	}
	twin := make([]byte, 64)
	cur := append([]byte(nil), twin...)
	cur[5] = 4
	env.ApplyDiff(0, 2, mem.MakeDiff(twin, cur))
	if got := env.Spaces[0].BlockData(2)[5]; got != 4 {
		t.Fatalf("ApplyDiff left byte 5 = %d, want 4", got)
	}
	if len(obs.fills) != 2 || obs.fills[0] != 1 || obs.fills[1] != 2 ||
		len(obs.diffs) != 2 || obs.diffs[0] != 0 || obs.diffs[1] != 2 {
		t.Fatalf("observer saw fills %v diffs %v, want [1 2] and [0 2]", obs.fills, obs.diffs)
	}
}
