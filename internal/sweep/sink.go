package sweep

import (
	"fmt"
	"io"
	"os"
	"sync"

	"dsmsim/internal/core"
	"dsmsim/internal/critpath"
	"dsmsim/internal/metrics"
	"dsmsim/internal/shareprof"
	"dsmsim/internal/stats"
)

// Sink serializes all human- and machine-readable per-run output — progress
// lines, latency summaries, CSV records — through one goroutine, so that
// concurrent runs never interleave partial lines and the writers themselves
// need no locking. Emission order is whatever order Emit/Logf are called
// in; the sweep scheduler calls them in canonical sweep order regardless of
// run completion order, which is what makes parallel output byte-identical
// to serial.
type Sink struct {
	progress   io.Writer
	tables     []*table // the per-run CSV outputs, in Emit order
	histograms bool

	// enriched switches progress lines to the metrics format: a
	// completion counter prefix and per-run fault/traffic fields. The
	// counter counts emissions, which happen in canonical sweep order, so
	// enriched output is as parallelism-independent as the legacy format.
	enriched bool
	emitted  int

	mu     sync.Mutex // guards ch against Emit/Close races
	ch     chan func()
	done   chan struct{}
	closed bool
}

// NewSink builds the sink for an engine's options: Progress and the four
// CSV writers may be nil, Histograms adds a latency-distribution line
// after each run record, a Metrics registry selects the counter-prefixed
// progress format, and a FaultGrid adds the fault-variant column to every
// CSV schema.
func NewSink(opts Options) *Sink {
	s := &Sink{progress: opts.Progress, histograms: opts.Histograms,
		enriched: opts.Metrics != nil,
		tables:   tables(opts),
		ch:       make(chan func(), 64), done: make(chan struct{})}
	go func() {
		defer close(s.done)
		for fn := range s.ch {
			fn()
		}
	}()
	return s
}

// Emit reports one completed run: a progress line, the optional latency
// summary, and the CSV record. Sequential-baseline runs get a progress line
// only (they are not part of the paper's evaluation matrix).
func (s *Sink) Emit(k Key, res *core.Result) {
	s.enqueue(func() {
		if s.progress != nil {
			prefix := ""
			if s.enriched {
				s.emitted++
				prefix = fmt.Sprintf("[%4d] ", s.emitted)
			}
			if k.Sequential {
				fmt.Fprintf(s.progress, "%sseq  %-18s T=%v\n", prefix, k.App, res.Time)
			} else {
				tag := ""
				if k.Fault != "" {
					tag = " f=" + k.Fault
				}
				if s.enriched {
					fmt.Fprintf(s.progress, "%srun  %-18s %-5s %4dB %-9s T=%v rf=%d wf=%d msgs=%d%s\n",
						prefix, k.App, k.Protocol, k.Block, k.Notify, res.Time,
						res.Total.ReadFaults, res.Total.WriteFaults, res.NetMsgs, tag)
				} else {
					fmt.Fprintf(s.progress, "run  %-18s %-5s %4dB %-9s T=%v%s\n",
						k.App, k.Protocol, k.Block, k.Notify, res.Time, tag)
				}
				if s.histograms {
					fault := FaultHist(res)
					fmt.Fprintf(s.progress, "lat  %-18s fault[%s] msg[%s] lock[%s]\n",
						k.App, fault.Summary(), res.MsgLatency.Summary(), res.Total.LockWait.Summary())
				}
			}
		}
		if !k.Sequential {
			for _, t := range s.tables {
				t.write(k, res)
			}
		}
	})
}

// Logf writes one formatted progress line through the serializing
// goroutine (for experiment-specific lines outside the standard matrix).
func (s *Sink) Logf(format string, args ...any) {
	if s.progress == nil {
		return
	}
	s.enqueue(func() { fmt.Fprintf(s.progress, format+"\n", args...) })
}

func (s *Sink) enqueue(fn func()) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		fn() // late emission after Close: degrade to synchronous
		return
	}
	s.ch <- fn
}

// Flush blocks until every record enqueued so far has been written.
func (s *Sink) Flush() {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return
	}
	ack := make(chan struct{})
	s.ch <- func() { close(ack) }
	s.mu.Unlock()
	<-ack
}

// Close flushes and stops the sink goroutine. Subsequent emissions are
// written synchronously.
func (s *Sink) Close() {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return
	}
	s.closed = true
	close(s.ch)
	s.mu.Unlock()
	<-s.done
}

// FaultHist merges a run's read- and write-fault service-time
// distributions (the combined histogram the progress lines summarize).
func FaultHist(res *core.Result) stats.Histogram {
	var h stats.Histogram
	h.Merge(&res.Total.ReadFaultTime)
	h.Merge(&res.Total.WriteFaultTime)
	return h
}

// csvHeader is the machine-readable schema, one record per run.
const csvHeader = "app,protocol,block,notify,nodes,time_ns,read_faults,write_faults,invalidations,twins,diffs,write_notices,lock_acquires,barrier_entries,net_msgs,net_bytes,fault_p50_ns,fault_p90_ns,fault_p99_ns,msg_p50_ns,msg_p90_ns,msg_p99_ns,lock_p50_ns,lock_p90_ns,lock_p99_ns,retransmits,wire_drops,dup_frames,retx_p50_ns,retx_p99_ns"

// table is one per-run CSV output. Its header is written exactly once,
// even under concurrent use, and is append-aware: when the writer is a
// file that already holds records (the CLIs open their CSV files in
// append mode), the header is suppressed. rows renders one run's rows,
// or reports false when the run carries no data for this table (a run
// without samples writes nothing to the sample table, not even the
// header).
type table struct {
	mu     sync.Mutex
	w      io.Writer
	header string
	rows   func(k Key, res *core.Result) ([]byte, bool)
	begun  bool // header decision made
}

// write appends one run's rows, emitting the header first if this table
// has not decided the header question yet.
func (t *table) write(k Key, res *core.Result) {
	b, ok := t.rows(k, res)
	if !ok {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if !t.begun {
		t.begun = true
		if !hasExistingData(t.w) {
			io.WriteString(t.w, t.header+"\n")
		}
	}
	t.w.Write(b)
}

// tables builds a table for each CSV writer opts sets: the run records,
// then the sampler series, sharing profiles and critical-path rows, each
// of the latter three prefixed with the run-key columns. A fault grid
// adds the fault-variant column to every schema.
func tables(opts Options) []*table {
	fault := len(opts.FaultGrid) > 0
	var ts []*table
	add := func(w io.Writer, header string, rows func(Key, *core.Result) ([]byte, bool)) {
		if w != nil {
			ts = append(ts, &table{w: w, header: header, rows: rows})
		}
	}
	runHeader := csvHeader
	if fault {
		runHeader += ",fault"
	}
	add(opts.CSV, runHeader, func(k Key, res *core.Result) ([]byte, bool) {
		return runRow(k, res, fault), true
	})
	add(opts.SampleCSV, keyHeader(fault)+metrics.SeriesHeader, func(k Key, res *core.Result) ([]byte, bool) {
		if res.Samples == nil {
			return nil, false
		}
		return res.Samples.AppendRows(nil, keyPrefix(k, res, fault)), true
	})
	add(opts.ProfCSV, keyHeader(fault)+shareprof.CSVHeader, func(k Key, res *core.Result) ([]byte, bool) {
		if res.Sharing == nil {
			return nil, false
		}
		return res.Sharing.AppendRows(nil, keyPrefix(k, res, fault)), true
	})
	add(opts.CritCSV, keyHeader(fault)+critpath.CSVHeader, func(k Key, res *core.Result) ([]byte, bool) {
		if res.CritPath == nil {
			return nil, false
		}
		return res.CritPath.AppendRow(nil, keyPrefix(k, res, fault)), true
	})
	return ts
}

// runRow renders one run's record in the csvHeader schema.
func runRow(k Key, res *core.Result, fault bool) []byte {
	t := res.Total
	fh := FaultHist(res)
	b := fmt.Appendf(nil, "%s,%s,%d,%s,%d,%d,%d,%d,%d,%d,%d,%d,%d,%d,%d,%d,%d,%d,%d,%d,%d,%d,%d,%d,%d,%d,%d,%d,%d,%d",
		res.App, res.Protocol, res.BlockSize, res.Notify, res.Nodes, int64(res.Time),
		t.ReadFaults, t.WriteFaults, t.Invalidations, t.TwinsCreated, t.DiffsCreated,
		t.WriteNoticesSent, t.LockAcquires, t.BarrierEntries, res.NetMsgs, res.NetBytes,
		fh.P50(), fh.P90(), fh.P99(),
		res.MsgLatency.P50(), res.MsgLatency.P90(), res.MsgLatency.P99(),
		t.LockWait.P50(), t.LockWait.P90(), t.LockWait.P99(),
		res.Retransmits, res.WireDrops, res.Duplicates,
		res.RetransmitLatency.P50(), res.RetransmitLatency.P99())
	if fault {
		b = append(b, ',')
		b = append(b, k.Fault...)
	}
	return append(b, '\n')
}

// keyHeader is the run-key column prefix of the sample, profile and
// critical-path schemas, with the fault column appended on fault-grid
// sweeps.
func keyHeader(fault bool) string {
	if fault {
		return "app,protocol,block,notify,nodes,fault,"
	}
	return "app,protocol,block,notify,nodes,"
}

// keyPrefix renders one run's key-column prefix.
func keyPrefix(k Key, res *core.Result, fault bool) string {
	if fault {
		return fmt.Sprintf("%s,%s,%d,%s,%d,%s,", res.App, res.Protocol, res.BlockSize, res.Notify, res.Nodes, k.Fault)
	}
	return fmt.Sprintf("%s,%s,%d,%s,%d,", res.App, res.Protocol, res.BlockSize, res.Notify, res.Nodes)
}

// hasExistingData reports whether w is a seekable file that already holds
// bytes (the append-mode case where the header must be suppressed).
func hasExistingData(w io.Writer) bool {
	type statter interface{ Stat() (os.FileInfo, error) }
	if s, ok := w.(statter); ok {
		if fi, err := s.Stat(); err == nil && fi.Size() > 0 {
			return true
		}
	}
	return false
}
