package harness

import (
	"fmt"

	"dsmsim/internal/apps"
	"dsmsim/internal/core"
	"dsmsim/internal/critpath"
	"dsmsim/internal/faults"
	"dsmsim/internal/metrics"
	"dsmsim/internal/network"
	"dsmsim/internal/sim"
	"dsmsim/internal/stats"
	"dsmsim/internal/sweep"
)

// The experiments below cover the dimensions §7 of the paper lists as
// unexamined: memory utilization, larger clusters (the paper's footnote
// hoped for 32-node runs), and all-software access control.

func init() {
	extensions = []Experiment{
		{"memory", "Protocol memory utilization by granularity (§7 future work)",
			func(o Options) []sweep.Key {
				return o.matrix([]string{"water-spatial"}, core.Protocols, core.Granularities, polling, false)
			},
			(*Runner).MemoryTable},
		{"scaling", "Speedup vs cluster size, 1-32 nodes (§7: the hoped-for 32-node runs)",
			func(o Options) []sweep.Key {
				// Only the baselines are matrix runs; the per-size machines
				// are custom and stay serial.
				return []sweep.Key{sweep.Seq("lu"), sweep.Seq("water-nsquared")}
			},
			(*Runner).ScalingTable},
		{"software", "All-software access control: instrumented check cost (§7 future work)",
			func(o Options) []sweep.Key { return []sweep.Key{sweep.Seq("ocean-rowwise")} },
			(*Runner).SoftwareTable},
		{"delayed", "Delayed consistency vs SC across granularities (§7 future work)",
			func(o Options) []sweep.Key {
				return o.matrix([]string{"ocean-rowwise", "volrend-original"},
					[]string{core.SC, core.DC}, core.Granularities, polling, true)
			},
			(*Runner).DelayedTable},
		{"fourway", "Four protocol families side by side: SC/DC invalidation, SW-LRC, HLRC, TLC leases",
			func(o Options) []sweep.Key {
				return o.matrix(fourwayApps, core.ProtocolNames(), core.Granularities, polling, true)
			},
			(*Runner).FourWayTable},
		{"bigblocks", "Granularities beyond 4096 bytes (§7: not studied in the paper)",
			func(o Options) []sweep.Key {
				return o.matrix([]string{"lu", "water-spatial"},
					[]string{core.SC, core.HLRC}, []int{4096, 8192, 16384}, polling, true)
			},
			(*Runner).BigBlocksTable},
		{"breakdown", "Execution-time breakdown per application at the paper's two headline points",
			func(o Options) []sweep.Key {
				pts := o.matrix(apps.Names(), []string{core.SC}, []int{64}, polling, false)
				return append(pts, o.matrix(apps.Names(), []string{core.HLRC}, []int{4096}, polling, false)...)
			},
			(*Runner).BreakdownTable},
		{"phases", "Phase-resolved cost breakdown at barrier epochs (Figure 2 style)",
			func(o Options) []sweep.Key {
				return o.matrix([]string{"ocean-rowwise", "barnes-original"},
					[]string{core.SC, core.HLRC}, []int{64, 4096}, polling, false)
			},
			(*Runner).PhasesTable},
		{"degradation", "Completion time vs link loss rate per protocol (unreliable network)",
			// Every run carries its own fault plan, so these are custom
			// machines outside the memoized matrix; nothing to prefetch.
			nil,
			(*Runner).DegradationTable},
		{"sharing", "False-sharing fraction vs coherence granularity (sharing-pattern profiler)",
			// Profiled runs are custom machines (ShareProfile on) outside
			// the memoized matrix; nothing to prefetch.
			nil,
			(*Runner).SharingTable},
		{"critpath", "Critical-path composition by protocol and granularity (what limits each point)",
			// Profiled runs are custom machines (CritPath on) outside the
			// memoized matrix; nothing to prefetch.
			nil,
			(*Runner).CritPathTable},
	}
}

// extensions is appended to Experiments by the registry.
var extensions []Experiment

// MemoryTable reports each protocol's metadata footprint and peak dynamic
// allocation across granularities, for a representative multiple-writer
// application (finer blocks mean more per-block state; HLRC additionally
// twins).
func (r *Runner) MemoryTable() error {
	const app = "water-spatial"
	r.printf("Protocol memory utilization for %s (KB)\n", app)
	r.printf("%-6s %-8s %10s %10s %10s %10s\n", "Proto", "Kind", "64B", "256B", "1KB", "4KB")
	for _, p := range core.Protocols {
		for _, kind := range []string{"static", "peak-dyn"} {
			r.printf("%-6s %-8s", p, kind)
			for _, g := range core.Granularities {
				res, err := r.Result(app, p, g, network.Polling)
				if err != nil {
					return err
				}
				v := res.ProtoStaticBytes
				if kind == "peak-dyn" {
					v = res.ProtoPeakBytes
				}
				r.printf(" %10.1f", float64(v)/1024)
			}
			r.printf("\n")
		}
	}
	return nil
}

// ScalingTable prints speedups at page granularity across cluster sizes
// for one regular and one irregular application.
func (r *Runner) ScalingTable() error {
	sizes := []int{1, 2, 4, 8, 16, 32}
	r.printf("Speedup vs cluster size (HLRC, 4096B)\n")
	r.printf("%-18s", "Application")
	for _, n := range sizes {
		r.printf(" %6dp", n)
	}
	r.printf("\n")
	for _, app := range []string{"lu", "water-nsquared"} {
		seq, err := r.Sequential(app)
		if err != nil {
			return err
		}
		r.printf("%-18s", app)
		for _, n := range sizes {
			entry, err := apps.Get(app)
			if err != nil {
				return err
			}
			res, err := r.runConfig(core.Config{
				Nodes: n, BlockSize: 4096, Protocol: core.HLRC, Limit: r.opts.Config.Limit,
			}, entry)
			if err != nil {
				return err
			}
			r.progress("run  %-18s hlrc  4096B %2d nodes T=%v", app, n, res.Time)
			r.printf(" %7.2f", float64(seq)/float64(res.Time))
		}
		r.printf("\n")
	}
	return nil
}

// BreakdownTable prints each application's execution-time components —
// the per-category analysis style of §5.2 — under the paper's two headline
// configurations, SC-64 and HLRC-4096. Percentages are of summed node
// time; "proto" is read/write fault stall plus flush, "sync" is lock plus
// barrier stall.
func (r *Runner) BreakdownTable() error {
	r.printf("Execution-time breakdown (%% of summed node time)\n")
	r.printf("%-18s %-10s %8s %8s %8s %8s\n", "Application", "Config", "compute", "proto", "sync", "stolen")
	for _, e := range apps.All() {
		for _, cfg := range []struct {
			proto string
			g     int
		}{{core.SC, 64}, {core.HLRC, 4096}} {
			res, err := r.Result(e.Name, cfg.proto, cfg.g, network.Polling)
			if err != nil {
				return err
			}
			tot := res.Total
			sum := tot.Compute + tot.ReadStall + tot.WriteStall + tot.LockStall + tot.BarrierStall + tot.FlushTime
			if sum == 0 {
				continue
			}
			pct := func(x sim.Time) float64 { return 100 * float64(x) / float64(sum) }
			r.printf("%-18s %-10s %7.1f%% %7.1f%% %7.1f%% %7.1f%%\n",
				e.Name, fmt.Sprintf("%s-%d", cfg.proto, cfg.g),
				pct(tot.Compute), pct(tot.ReadStall+tot.WriteStall+tot.FlushTime),
				pct(tot.LockStall+tot.BarrierStall), pct(tot.Stolen))
		}
	}
	return nil
}

// PhasesTable renders the phase-resolved cost breakdown: the run cut at
// its barrier epochs, each phase's summed node time split into the paper's
// Figure-2 categories (compute / data wait / synchronization / protocol
// overhead). Long runs are capped at a handful of leading phases with the
// remainder aggregated, since barrier-per-iteration applications produce
// hundreds of near-identical phases.
func (r *Runner) PhasesTable() error {
	const maxRows = 6
	r.printf("Phase-resolved breakdown at barrier epochs (%% of phase node time)\n")
	r.printf("%-18s %-10s %-8s %10s %8s %8s %8s %8s\n",
		"Application", "Config", "Phase", "span", "compute", "data", "sync", "proto")
	for _, app := range []string{"ocean-rowwise", "barnes-original"} {
		for _, cfg := range []struct {
			proto string
			g     int
		}{{core.SC, 64}, {core.SC, 4096}, {core.HLRC, 64}, {core.HLRC, 4096}} {
			res, err := r.Result(app, cfg.proto, cfg.g, network.Polling)
			if err != nil {
				return err
			}
			row := func(label string, span sim.Time, d stats.Snapshot) {
				if span == 0 {
					return
				}
				pct := func(x sim.Time) float64 { return 100 * float64(x) / float64(span) }
				r.printf("%-18s %-10s %-8s %10v %7.1f%% %7.1f%% %7.1f%% %7.1f%%\n",
					app, fmt.Sprintf("%s-%d", cfg.proto, cfg.g), label, span,
					pct(d.Compute), pct(d.ReadStall+d.WriteStall),
					pct(d.LockStall+d.BarrierStall), pct(d.FlushTime+d.Stolen))
			}
			shown := res.Phases
			var rest []metrics.Phase
			if len(shown) > maxRows {
				shown, rest = shown[:maxRows], shown[maxRows:]
			}
			for _, ph := range shown {
				row(fmt.Sprintf("%d", ph.Index), ph.Span, ph.Delta)
			}
			if len(rest) > 0 {
				var span sim.Time
				var sum stats.Snapshot
				for _, ph := range rest {
					span += ph.Span
					ph.Delta.AddTo(&sum)
				}
				row(fmt.Sprintf("%d-%d", rest[0].Index, rest[len(rest)-1].Index), span, sum)
			}
		}
	}
	return nil
}

// BigBlocksTable extends Figure 1 past the paper's 4096-byte limit: for a
// coarse-grain application prefetching keeps helping; for a fine-grain
// multiple-writer one, fragmentation and false sharing keep growing.
func (r *Runner) BigBlocksTable() error {
	blocks := []int{4096, 8192, 16384}
	r.printf("Block sizes beyond 4096 bytes (speedups)\n")
	r.printf("%-18s %-6s %8s %8s %8s\n", "Application", "Proto", "4KB", "8KB", "16KB")
	for _, app := range []string{"lu", "water-spatial"} {
		for _, p := range []string{core.SC, core.HLRC} {
			r.printf("%-18s %-6s", app, p)
			for _, g := range blocks {
				s, err := r.Speedup(app, p, g, network.Polling)
				if err != nil {
					return err
				}
				r.printf(" %8.2f", s)
			}
			r.printf("\n")
		}
	}
	return nil
}

// DelayedTable compares SC against the delayed-consistency extension on
// the applications most exposed to SC's false-sharing ping-pong (§5.4's
// "interrupts approximate delayed consistency" observation, made explicit).
func (r *Runner) DelayedTable() error {
	r.printf("Delayed consistency vs SC (speedups, polling)\n")
	r.printf("%-18s %-6s %8s %8s %8s %8s\n", "Application", "Proto", "64B", "256B", "1KB", "4KB")
	for _, app := range []string{"ocean-rowwise", "volrend-original"} {
		for _, p := range []string{core.SC, core.DC} {
			r.printf("%-18s %-6s", app, p)
			for _, g := range core.Granularities {
				s, err := r.Speedup(app, p, g, network.Polling)
				if err != nil {
					return err
				}
				r.printf(" %8.2f", s)
			}
			r.printf("\n")
		}
	}
	return nil
}

// fourwayApps pairs one false-sharing-bound barrier application with one
// lock-bound one — the two regimes where the protocol families differ
// most.
var fourwayApps = []string{"ocean-rowwise", "water-nsquared"}

// FourWayTable puts the registry's whole catalog side by side — the
// paper's three protocols plus the delayed-consistency and timestamp-lease
// extensions — across the paper's granularities. The protocol set comes
// from the registry, so a newly registered family joins the comparison
// without touching the harness. The trailing column shows what tlc pays
// instead of invalidation fan-out: lease renewals, self-expiries and
// clock jumps at page grain.
func (r *Runner) FourWayTable() error {
	r.printf("Four protocol families (speedups, polling)\n")
	r.printf("%-18s %-6s %8s %8s %8s %8s   %s\n",
		"Application", "Proto", "64B", "256B", "1KB", "4KB", "4KB lease traffic")
	for _, app := range fourwayApps {
		for _, p := range core.ProtocolNames() {
			r.printf("%-18s %-6s", app, p)
			for _, g := range core.Granularities {
				s, err := r.Speedup(app, p, g, network.Polling)
				if err != nil {
					return err
				}
				r.printf(" %8.2f", s)
			}
			res, err := r.Result(app, p, 4096, network.Polling)
			if err != nil {
				return err
			}
			if t := res.Total; t.LeaseRenewals+t.LeaseExpiries+t.TimestampJumps > 0 {
				r.printf("   renew=%d expire=%d jumps=%d",
					t.LeaseRenewals, t.LeaseExpiries, t.TimestampJumps)
			}
			r.printf("\n")
		}
	}
	return nil
}

// SoftwareTable compares the hardware access-control baseline against
// all-software instrumentation at three per-check costs, on the
// fine-grain-friendly SC-64 configuration where checks are most frequent.
func (r *Runner) SoftwareTable() error {
	const app = "ocean-rowwise"
	entry, err := apps.Get(app)
	if err != nil {
		return err
	}
	seq, err := r.Sequential(app)
	if err != nil {
		return err
	}
	r.printf("All-software access control, %s under SC (speedup on %d nodes)\n", app, r.opts.Nodes)
	r.printf("%-22s %8s %8s\n", "Check cost", "64B", "4096B")
	for _, check := range []sim.Time{0, 100, 500} {
		label := "hardware (T0)"
		if check > 0 {
			label = check.String() + "/check"
		}
		r.printf("%-22s", label)
		for _, g := range []int{64, 4096} {
			res, err := r.runConfig(core.Config{
				Nodes: r.opts.Nodes, BlockSize: g, Protocol: core.SC,
				SoftwareAccessCheck: check, Limit: r.opts.Config.Limit,
			}, entry)
			if err != nil {
				return err
			}
			r.printf(" %8.2f", float64(seq)/float64(res.Time))
		}
		r.printf("\n")
	}
	return nil
}

// SharingTable runs the sharing-pattern profiler across the paper's four
// granularities and reports, per application, what fraction of sharing
// misses is false sharing — the mechanism behind §5.2's restructuring
// results, measured directly. Volrend-Original's column-interleaved image
// suffers heavy false sharing that its row-wise restructuring removes;
// LU's dense blocked matrix stays true-sharing-dominated until blocks
// outgrow its tiles. Profiling is observational, so every run's clock and
// statistics match the unprofiled matrix runs bit for bit.
func (r *Runner) SharingTable() error {
	appsList := []string{"volrend-original", "volrend-rowwise", "lu", "ocean-original"}
	r.printf("False sharing vs coherence granularity (HLRC, %d nodes; %% of sharing misses)\n", r.opts.Nodes)
	r.printf("%-18s %8s %8s %8s %8s   %s\n", "Application", "64B", "256B", "1KB", "4KB", "hottest region at 4KB")
	for _, app := range appsList {
		entry, err := apps.Get(app)
		if err != nil {
			return err
		}
		r.printf("%-18s", app)
		var hot string
		for _, g := range core.Granularities {
			res, err := r.runConfig(core.Config{
				Nodes: r.opts.Nodes, BlockSize: g, Protocol: core.HLRC,
				Limit: r.opts.Config.Limit, ShareProfile: true,
			}, entry)
			if err != nil {
				return err
			}
			sh := res.Sharing
			r.progress("run  %-18s hlrc  %4dB prof T=%v false=%.3f",
				app, g, res.Time, sh.FalseSharingFraction())
			r.printf(" %7.1f%%", 100*sh.FalseSharingFraction())
			if g == 4096 {
				if top := sh.Top(1); len(top) > 0 {
					hot = fmt.Sprintf("%s (%s, %d faults)", top[0].Name, top[0].TopClass(), top[0].Faults())
				}
			}
		}
		r.printf("   %s\n", hot)
	}
	return nil
}

// CritPathTable recovers the exact critical path of every protocol ×
// granularity point for one application and prints its component
// composition — the direct answer to "what limits this configuration".
// At fine grain SC's path is dominated by message wire and service time
// (the invalidation ping-pong of §5.2); at page grain the relaxed
// protocols shift the path toward barrier waiting and handler occupancy.
// Profiling is observational, so every run's clock matches the
// unprofiled matrix bit for bit.
func (r *Runner) CritPathTable() error {
	const app = "ocean-rowwise"
	entry, err := apps.Get(app)
	if err != nil {
		return err
	}
	r.printf("Critical-path composition, %s on %d nodes (%% of path length)\n", app, r.opts.Nodes)
	if s := r.opts.Config.WhatIf; s != nil {
		r.printf("(what-if machine: %v)\n", s)
	}
	r.printf("%-6s %6s %14s %8s %8s %8s %8s %8s %8s\n",
		"Proto", "Block", "path", "compute", "ovhd", "wire", "svc", "lock", "barrier")
	for _, p := range core.Protocols {
		for _, g := range core.Granularities {
			res, err := r.runConfig(core.Config{
				Nodes: r.opts.Nodes, BlockSize: g, Protocol: p,
				Limit: r.opts.Config.Limit, CritPath: true, WhatIf: r.opts.Config.WhatIf,
			}, entry)
			if err != nil {
				return err
			}
			cp := res.CritPath
			r.progress("run  %-18s %-5s %4dB crit T=%v events=%d", app, p, g, res.Time, cp.Events)
			pct := func(c critpath.Component) float64 { return 100 * cp.Frac(c) }
			r.printf("%-6s %5dB %14v %7.1f%% %7.1f%% %7.1f%% %7.1f%% %7.1f%% %7.1f%%\n",
				p, g, cp.Total,
				pct(critpath.Compute)+pct(critpath.Straggler),
				pct(critpath.Overhead),
				pct(critpath.MsgWire)+pct(critpath.Forward),
				pct(critpath.MsgService),
				pct(critpath.LockWait), pct(critpath.BarrierWait))
		}
	}
	return nil
}

// DegradationTable sweeps link loss rate × protocol on one application and
// reports completion time, slowdown relative to the lossless wire, and the
// reliability-layer work (retransmissions, wire drops, acks) each protocol
// pays. Every faulty run still verifies under the runner's verify policy —
// the ack/retransmission layer hides the loss from the coherence
// protocols; only the clock shows it. All plans share fault seed 1, so the
// table is deterministic and byte-identical across hosts and runs.
func (r *Runner) DegradationTable() error {
	const app, block = "lu", 4096
	rates := []float64{0, 0.001, 0.01, 0.05}
	entry, err := apps.Get(app)
	if err != nil {
		return err
	}
	r.printf("Degradation under link loss: %s, %s, %dB blocks, %d nodes\n",
		app, "all protocols", block, r.opts.Nodes)
	r.printf("%-6s %7s %14s %9s %9s %9s %8s\n",
		"Proto", "loss", "time", "slowdown", "retx", "drops", "acks")
	for _, p := range core.Protocols {
		var lossless sim.Time
		for _, rate := range rates {
			cfg := core.Config{
				Nodes: r.opts.Nodes, BlockSize: block, Protocol: p, Limit: r.opts.Config.Limit,
			}
			if rate > 0 {
				cfg.Faults = faults.NewPlan(faults.Drop(rate), faults.Seed(1))
			}
			res, err := r.runConfig(cfg, entry)
			if err != nil {
				return err
			}
			if rate == 0 {
				lossless = res.Time
			}
			r.progress("run  %-18s %-5s %4dB loss=%.3f T=%v retx=%d",
				app, p, block, rate, res.Time, res.Retransmits)
			r.printf("%-6s %7.3f %14v %8.3fx %9d %9d %8d\n",
				p, rate, res.Time, float64(res.Time)/float64(lossless),
				res.Retransmits, res.WireDrops, res.AcksSent)
		}
	}
	return nil
}
