package core

import (
	"context"
	"strings"
	"testing"

	"dsmsim/internal/sim"
	"dsmsim/internal/stats"
)

// acctApp is a workload that exercises every time component: computation,
// read and write faults, contended locks, barriers, and (under HLRC)
// release-time diff flushes.
func acctApp() App {
	var base int
	return &testApp{
		name: "acct", heap: 64 * 1024,
		setup: func(h *Heap) { base = h.AllocF64s(2048) },
		run: func(c *Ctx) {
			me := c.ID()
			for r := 0; r < 4; r++ {
				c.Lock(me % 2)
				for i := me; i < 2048; i += c.NP() {
					c.WriteF64(base+i*8, float64(r))
				}
				c.Unlock(me % 2)
				c.Compute(300 * sim.Microsecond)
				c.Barrier()
				s := 0.0
				for _, v := range c.F64sR(base, 2048) {
					s += v
				}
				_ = s
				c.Barrier()
			}
		},
		verify: func(h *Heap) error { return nil },
	}
}

// componentSum is the full per-node time breakdown.
func componentSum(ns *stats.Node) sim.Time {
	return ns.Compute + ns.ReadStall + ns.WriteStall + ns.LockStall +
		ns.BarrierStall + ns.FlushTime + ns.Stolen + ns.Idle
}

// TestBreakdownSumsExactly: for every protocol × granularity, each node's
// breakdown components sum to the run's wall-clock virtual time exactly —
// not approximately. This is the base invariant the phase accountant
// inherits: if any simulator code path let time pass without attributing
// it to a component, the paper's Figure-2 percentages would silently lie.
func TestBreakdownSumsExactly(t *testing.T) {
	for _, p := range append(append([]string{}, Protocols...), DC) {
		for _, bs := range Granularities {
			m, err := NewMachine(Config{Nodes: 4, BlockSize: bs, Protocol: p,
				Limit: 100 * sim.Second})
			if err != nil {
				t.Fatal(err)
			}
			res, err := runVerified(context.Background(), m, acctApp())
			if err != nil {
				t.Fatalf("%s/%d: %v", p, bs, err)
			}
			for i := range res.PerNode {
				ns := &res.PerNode[i]
				if got := componentSum(ns); got != res.Time {
					t.Errorf("%s/%d node %d: components sum to %d, run time %d (off by %d)",
						p, bs, i, got, res.Time, got-res.Time)
				}
			}
		}
	}
}

// TestPhaseBreakdown: the phase accountant's epochs tile each run — every
// phase's four Figure-2 buckets sum to its node-time span, the spans plus
// idle tails cover nodes × Time exactly, and the epoch count matches the
// app's barrier structure (8 barriers; the app ends at its last barrier,
// so the empty tail phase is dropped).
func TestPhaseBreakdown(t *testing.T) {
	for _, p := range Protocols {
		m, err := NewMachine(Config{Nodes: 4, BlockSize: 256, Protocol: p,
			Limit: 100 * sim.Second})
		if err != nil {
			t.Fatal(err)
		}
		res, err := runVerified(context.Background(), m, acctApp())
		if err != nil {
			t.Fatal(err)
		}
		if len(res.Phases) != 8 { // 4 rounds × 2 barriers, no tail
			t.Fatalf("%s: %d phases, want 8", p, len(res.Phases))
		}
		var spans sim.Time
		for _, ph := range res.Phases {
			sum := ph.Delta.Compute + ph.DataWait() + ph.SyncWait() + ph.Overhead()
			if sum != ph.Span {
				t.Errorf("%s phase %d: buckets sum to %d, span %d", p, ph.Index, sum, ph.Span)
			}
			spans += ph.Span
		}
		idle := res.Total.Idle
		if total := spans + idle; total != res.Time*sim.Time(res.Nodes) {
			t.Errorf("%s: phases (%d) + idle (%d) = %d, want nodes×time = %d",
				p, spans, idle, total, res.Time*sim.Time(res.Nodes))
		}
		if res.Phases[len(res.Phases)-1].End != res.Time {
			// The tail phase ends when the last node finishes; trailing
			// message drain may push engine time slightly past it.
			if res.Phases[len(res.Phases)-1].End > res.Time {
				t.Errorf("%s: tail phase ends at %d, after run end %d",
					p, res.Phases[len(res.Phases)-1].End, res.Time)
			}
		}
	}
}

// TestSamplingDoesNotPerturb: enabling the virtual-time sampler must leave
// the simulation bit-identical — same finish time, same counters, and a
// byte-identical event trace (the strongest available fingerprint of the
// run's internal schedule).
func TestSamplingDoesNotPerturb(t *testing.T) {
	for _, p := range Protocols {
		p := p
		t.Run(p, func(t *testing.T) {
			run := func(every sim.Time) (*Result, string) {
				var buf strings.Builder
				cfg := Config{Nodes: 4, BlockSize: 256, Protocol: p,
					Trace: &buf, Limit: 100 * sim.Second, SampleEvery: every}
				m, err := NewMachine(cfg)
				if err != nil {
					t.Fatal(err)
				}
				res, err := runVerified(context.Background(), m, acctApp())
				if err != nil {
					t.Fatal(err)
				}
				return res, buf.String()
			}
			plain, ptrace := run(0)
			sampled, strace := run(50 * sim.Microsecond)
			if plain.Time != sampled.Time {
				t.Errorf("sampling changed finish time: %v vs %v", plain.Time, sampled.Time)
			}
			if plain.Total != sampled.Total {
				t.Errorf("sampling changed the stats totals")
			}
			if plain.NetMsgs != sampled.NetMsgs || plain.NetBytes != sampled.NetBytes {
				t.Errorf("sampling changed traffic: %d/%d vs %d/%d",
					plain.NetMsgs, plain.NetBytes, sampled.NetMsgs, sampled.NetBytes)
			}
			if ptrace != strace {
				t.Errorf("sampling changed the event trace")
			}
			if sampled.Samples == nil || len(sampled.Samples.Samples) == 0 {
				t.Fatalf("no samples recorded")
			}
		})
	}
}

// TestSamplerSeries: samples land exactly on the boundary grid, the final
// sample closes at the run's end, and the interval deltas telescope back
// to the run's totals.
func TestSamplerSeries(t *testing.T) {
	const every = 100 * sim.Microsecond
	m, err := NewMachine(Config{Nodes: 4, BlockSize: 256, Protocol: HLRC,
		Limit: 100 * sim.Second, SampleEvery: every})
	if err != nil {
		t.Fatal(err)
	}
	res, err := runVerified(context.Background(), m, acctApp())
	if err != nil {
		t.Fatal(err)
	}
	sm := res.Samples.Samples
	if len(sm) < 2 {
		t.Fatalf("only %d samples for a %v run", len(sm), res.Time)
	}
	var total stats.Snapshot
	var msgs, bytes int64
	for i, s := range sm {
		if i < len(sm)-1 && s.At != every*sim.Time(i+1) {
			t.Errorf("sample %d at %d, want boundary %d", i, s.At, every*sim.Time(i+1))
		}
		if s.At > res.Time {
			t.Errorf("sample %d at %d is past the run end %d", i, s.At, res.Time)
		}
		s.Delta.AddTo(&total)
		msgs += s.NetMsgs
		bytes += s.NetBytes
	}
	if last := sm[len(sm)-1].At; last != res.Time {
		t.Errorf("final sample at %d, want run end %d", last, res.Time)
	}
	if want := res.Total.Snap(); total != want {
		t.Errorf("telescoped sample deltas differ from run totals:\n got %+v\nwant %+v", total, want)
	}
	if msgs != res.NetMsgs || bytes != res.NetBytes {
		t.Errorf("telescoped traffic %d/%d, want %d/%d", msgs, bytes, res.NetMsgs, res.NetBytes)
	}

	var csv strings.Builder
	if err := res.Samples.WriteCSV(&csv); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimRight(csv.String(), "\n"), "\n")
	if len(lines) != len(sm)+1 {
		t.Errorf("CSV has %d lines, want header + %d rows", len(lines), len(sm))
	}
	wantCols := strings.Count(lines[0], ",") + 1
	for i, l := range lines[1:] {
		if c := strings.Count(l, ",") + 1; c != wantCols {
			t.Errorf("CSV row %d has %d columns, want %d", i, c, wantCols)
		}
	}
}
