// Package synch implements the message-based synchronization layer: a
// distributed lock manager and a centralized barrier.
//
// Locks follow the LRC-style flow (§2.2–2.3): the acquirer sends its vector
// clock to the lock's home; the home forwards the grant duty to the last
// releaser, which replies directly with the write notices the acquirer has
// not yet seen. Under SC the home grants directly with no consistency
// payload — the paper notes synchronization is much cheaper under SC
// because it involves no protocol activity.
package synch

import (
	"fmt"
	"sort"

	"dsmsim/internal/network"
	"dsmsim/internal/proto"
	"dsmsim/internal/sim"
	"dsmsim/internal/trace"
)

// Message kinds (all below proto.ProtoKindBase).
const (
	kLockAcquire = iota
	kLockGrantReq
	kLockGrant
	kLockRelease
	kBarArrive
	kBarRelease
)

// Wire encoding on network.Msg's inline fields:
//
//	kLockAcquire:  A = lock, Payload = acquirer's proto.VC (nil under SC)
//	kLockRelease:  A = lock, B = releaser's logical timestamp (carrier only)
//	kLockGrantReq: A = lock, B = acquirer, Payload = acquirer's proto.VC
//	kLockGrant:    A = lock, B = last release's logical timestamp (carrier
//	               only), Payload = *window (acquirer's request clock up
//	               to the releaser's clock) or nil (direct grant, no
//	               notices)
//	kBarArrive:    B = arriver's logical timestamp (carrier only),
//	               Payload = arriver's proto.VC (nil under SC)
//	kBarRelease:   B = max arrival timestamp (carrier only),
//	               Payload = *window (receiver's arrival clock up to the
//	               merged clock) or nil (SC: no notices to carry)
//
// A nil proto.VC boxes into Payload without allocating, so SC — where
// synchronization carries no consistency payload — stays allocation-free.
// Under a proto.TimestampCarrier protocol (tlc) the B fields above carry
// a scalar logical timestamp, 8 extra bytes per message; for every other
// protocol they stay zero and the wire sizes are unchanged.

// window is the consistency payload of a lock grant or a barrier release:
// the receiver lacks node j's intervals (after[j], upTo[j]] of the shared
// proto.Log, for every j. The payload names that range and the receiver
// walks the log itself, reading the intervals the sender saw: published
// intervals are immutable, the log only appends within a run, and neither
// clock is mutated after the send (both are clones or, at a barrier, the
// fresh merged clock). notices is the count the wire size, service cost
// and statistics charge.
type window struct {
	after, upTo proto.VC
	notices     int
}

// fill points w at (after, upTo] and counts its notices. It panics if upTo
// names an interval not yet published: the receiver walks the log later,
// and only a window inside the log at send time reads the same intervals
// then as now.
func (w *window) fill(log *proto.Log, after, upTo proto.VC) {
	w.after, w.upTo, w.notices = after, upTo, 0
	for j, hi := range upTo {
		if latest := log.Latest(j); hi > latest {
			panic(fmt.Sprintf("synch: notice window reaches interval %d of node %d, latest published is %d", hi, j, latest))
		}
		w.notices += log.NoticesBetween(j, after[j], hi)
	}
}

// each calls fn on every non-empty run of intervals in the window, source
// node by source node in ascending order — the order the intervals would
// have if flattened into one slice.
func (w *window) each(log *proto.Log, fn func(ivs []proto.Interval)) {
	for j, hi := range w.upTo {
		if ivs := log.Between(j, w.after[j], hi); len(ivs) > 0 {
			fn(ivs)
		}
	}
}

// windowBytes is w's wire size beyond the message header: the sender's
// clock plus one record per notice.
func (s *Sync) windowBytes(w *window) int {
	return s.vcBytes() + w.notices*s.env.Model.WriteNoticeBytes
}

type waiter struct {
	node int
	vc   proto.VC
}

type lockState struct {
	held         bool
	holder       int
	lastReleaser int
	lastTS       int64 // logical timestamp of the last release (carrier protocols)
	queue        []waiter
}

// Sync is the synchronization manager for one machine run.
type Sync struct {
	env   *proto.Env
	proto proto.Protocol
	// ts is non-nil when the protocol carries scalar logical timestamps
	// at synchronization (tlc); every timestamp hook below is gated on
	// it, so other protocols' runs are byte-identical to before.
	ts proto.TimestampCarrier

	locks map[int]*lockState

	// Barrier state (master is node 0).
	barCount int
	barVCs   []proto.VC
	// barMaxTS is the running maximum of the arrival timestamps of the
	// barrier in progress (carrier protocols only).
	barMaxTS int64

	// epoch counts completed global barriers (1-based: it becomes 1 when
	// every node has arrived at the first barrier).
	epoch int

	// OnBarrierFull, when set, fires in engine context the instant the
	// last node arrives at a barrier — after the epoch counter advances,
	// before any release message is sent. This is the simulator's one
	// quiescent cut point: every proc is blocked in the barrier and the
	// event queue is empty. Core uses it to arm StartAtBarrier fault plans
	// and to capture checkpoints. Returning true suppresses the release
	// (the run is being cut here); the caller then stops the engine.
	OnBarrierFull func(epoch int) bool
}

// New creates the manager. The protocol must be set with SetProtocol before
// the first synchronization operation.
func New(env *proto.Env) *Sync {
	return &Sync{env: env, locks: make(map[int]*lockState)}
}

// SetProtocol attaches the coherence protocol whose hooks the manager calls.
func (s *Sync) SetProtocol(p proto.Protocol) {
	s.proto = p
	s.ts, _ = p.(proto.TimestampCarrier)
}

// QueuedWaiters returns how many nodes are currently queued behind held
// locks, machine-wide. Purely observational — a sum over the lock table,
// so map iteration order cannot leak into the value — and read by the
// metrics sampler as the lock-queue-depth gauge.
func (s *Sync) QueuedWaiters() int64 {
	var n int64
	for _, st := range s.locks {
		n += int64(len(st.queue))
	}
	return n
}

// lockHome returns the node managing the given lock.
func (s *Sync) lockHome(lock int) int { return lock % s.env.Nodes() }

func (s *Sync) vcBytes() int { return s.env.Nodes() * s.env.Model.VCEntryBytes }

// Acquire obtains the lock for node. Proc context; blocks until granted.
func (s *Sync) Acquire(node, lock int) {
	s.env.Stats[node].LockAcquires++
	var vc proto.VC
	bytes := 8
	if s.proto.UsesIntervals() {
		vc = s.env.VCs[node].Clone()
		bytes += s.vcBytes()
	}
	s.env.Send(node, &network.Msg{
		Dst: s.lockHome(lock), Kind: kLockAcquire, Block: -1,
		A: int64(lock), Payload: vc, Bytes: bytes,
	})
	s.env.Procs[node].BlockID("lock acquire", lock)
}

// Release releases the lock held by node. Proc context. It closes the
// node's interval first (PreRelease may block, e.g. HLRC's diff flush).
func (s *Sync) Release(node, lock int) {
	s.closeInterval(node)
	m := &network.Msg{
		Dst: s.lockHome(lock), Kind: kLockRelease, Block: -1,
		A: int64(lock), Bytes: 8,
	}
	if s.ts != nil {
		m.B = s.ts.ReleaseTS(node)
		m.Bytes += 8
	}
	s.env.Send(node, m)
}

// closeInterval flushes node's pending writes and publishes its notices as
// a new interval (no-op under SC).
func (s *Sync) closeInterval(node int) {
	notices := s.proto.PreRelease(node)
	if !s.proto.UsesIntervals() {
		return
	}
	idx := s.env.Log.Publish(node, notices)
	s.env.VCs[node][node] = idx
	s.env.Stats[node].WriteNoticesSent += int64(len(notices))
	if tr := s.env.Tracer; tr != nil {
		tr.Instant(node, trace.CatSynch, "interval",
			trace.A("idx", int64(idx)), trace.A("notices", int64(len(notices))))
	}
}

// Barrier enters the global barrier. Proc context; blocks until all nodes
// arrive and the master releases.
func (s *Sync) Barrier(node int) {
	s.env.Stats[node].BarrierEntries++
	s.closeInterval(node)
	var vc proto.VC
	bytes := 8
	if s.proto.UsesIntervals() {
		vc = s.env.VCs[node].Clone()
		bytes += s.vcBytes()
	}
	m := &network.Msg{
		Dst: 0, Kind: kBarArrive, Block: -1,
		Payload: vc, Bytes: bytes,
	}
	if s.ts != nil {
		m.B = s.ts.ReleaseTS(node)
		m.Bytes += 8
	}
	s.env.Send(node, m)
	s.env.Procs[node].Block("barrier")
}

// ServiceCost returns the processor occupancy for servicing m.
func (s *Sync) ServiceCost(m *network.Msg) sim.Time {
	model := s.env.Model
	switch m.Kind {
	case kLockGrant:
		if w, ok := m.Payload.(*window); ok {
			return model.LockHandling + sim.Time(w.notices)*model.NoticeApply
		}
		return model.LockHandling
	case kBarRelease:
		if w, ok := m.Payload.(*window); ok {
			return model.BarrierHandling + sim.Time(w.notices)*model.NoticeApply
		}
		return model.BarrierHandling
	case kBarArrive:
		return model.BarrierHandling
	default:
		return model.LockHandling
	}
}

// Handle services a synchronization message (engine context).
func (s *Sync) Handle(m *network.Msg) {
	switch m.Kind {
	case kLockAcquire:
		s.handleAcquire(m)
	case kLockRelease:
		s.handleRelease(m)
	case kLockGrantReq:
		s.handleGrantReq(m)
	case kLockGrant:
		s.handleGrant(m)
	case kBarArrive:
		s.handleBarArrive(m)
	case kBarRelease:
		s.handleBarRelease(m)
	default:
		panic(fmt.Sprintf("synch: unknown message kind %d", m.Kind))
	}
}

func (s *Sync) lock(id int) *lockState {
	st := s.locks[id]
	if st == nil {
		st = &lockState{lastReleaser: -1}
		s.locks[id] = st
	}
	return st
}

func (s *Sync) handleAcquire(m *network.Msg) {
	lock := int(m.A)
	vc, _ := m.Payload.(proto.VC)
	st := s.lock(lock)
	if st.held {
		st.queue = append(st.queue, waiter{node: m.Src, vc: vc})
		return
	}
	st.held = true
	st.holder = m.Src
	s.grantFrom(m.Dst, st, lock, m.Src, vc)
}

func (s *Sync) handleRelease(m *network.Msg) {
	lock := int(m.A)
	st := s.lock(lock)
	if !st.held || st.holder != m.Src {
		panic(fmt.Sprintf("synch: release of lock %d by %d, holder %d held=%v", lock, m.Src, st.holder, st.held))
	}
	st.lastReleaser = m.Src
	if s.ts != nil {
		st.lastTS = m.B
	}
	if len(st.queue) == 0 {
		st.held = false
		return
	}
	w := st.queue[0]
	st.queue = st.queue[1:]
	st.holder = w.node
	s.grantFrom(m.Dst, st, lock, w.node, w.vc)
}

// grantFrom routes the grant for lock to acquirer: directly from the home
// when there is no consistency payload to compute, otherwise via the last
// releaser, which knows which write notices the acquirer is missing. A
// timestamp-carrier protocol always takes the direct two-hop path — the
// scalar release timestamp lives at the lock's home, so no third hop to
// the releaser is needed (the measurable lock-latency edge tlc has over
// the vector-clock protocols).
func (s *Sync) grantFrom(home int, st *lockState, lock, acquirer int, acqVC proto.VC) {
	if !s.proto.UsesIntervals() || st.lastReleaser < 0 {
		m := &network.Msg{
			Dst: acquirer, Kind: kLockGrant, Block: -1,
			A: int64(lock), Bytes: 8,
		}
		if s.ts != nil {
			m.B = st.lastTS
			m.Bytes += 8
		}
		s.env.Send(home, m)
		return
	}
	s.env.Send(home, &network.Msg{
		Dst: st.lastReleaser, Kind: kLockGrantReq, Block: -1,
		A: int64(lock), B: int64(acquirer), Payload: acqVC,
		Bytes: 8 + s.vcBytes(),
	})
}

func (s *Sync) handleGrantReq(m *network.Msg) {
	r := m.Dst // the last releaser names the notices the acquirer lacks
	w := new(window)
	w.fill(s.env.Log, m.Payload.(proto.VC), s.env.VCs[r].Clone())
	s.env.Send(r, &network.Msg{
		Dst: int(m.B), Kind: kLockGrant, Block: -1,
		A:       m.A,
		Payload: w,
		Bytes:   8 + s.windowBytes(w),
	})
}

// applyWindow delivers w's notices to node and advances its clock to the
// window's upper bound.
func (s *Sync) applyWindow(node int, w *window) {
	w.each(s.env.Log, func(ivs []proto.Interval) { s.proto.ApplyNotices(node, ivs) })
	s.env.Stats[node].WriteNoticesRecv += int64(w.notices)
	s.env.VCs[node].Merge(w.upTo)
}

// windowNotices is w's notice count, 0 for a payload-free message.
func windowNotices(w *window) int64 {
	if w == nil {
		return 0
	}
	return int64(w.notices)
}

func (s *Sync) handleGrant(m *network.Msg) {
	w, _ := m.Payload.(*window)
	node := m.Dst
	if tr := s.env.Tracer; tr != nil {
		tr.Instant(node, trace.CatSynch, "grant",
			trace.A("lock", m.A), trace.A("notices", windowNotices(w)))
	}
	if s.proto.UsesIntervals() && w != nil {
		s.applyWindow(node, w)
	}
	if s.ts != nil {
		s.ts.AcquireTS(node, m.B)
	}
	s.proto.OnAcquireComplete(node)
	s.env.Procs[node].Unblock()
}

func (s *Sync) handleBarArrive(m *network.Msg) {
	if s.barVCs == nil {
		s.barVCs = make([]proto.VC, s.env.Nodes())
	}
	vc, _ := m.Payload.(proto.VC)
	s.barVCs[m.Src] = vc
	if s.ts != nil && m.B > s.barMaxTS {
		s.barMaxTS = m.B
	}
	s.barCount++
	if s.barCount < s.env.Nodes() {
		return
	}
	s.epoch++
	if s.OnBarrierFull != nil && s.OnBarrierFull(s.epoch) {
		return // cut here: the caller stops the engine, no release goes out
	}
	s.releaseBarrier()
}

// Epoch returns the number of completed global barriers.
func (s *Sync) Epoch() int { return s.epoch }

// ReleaseBarrier sends the pending barrier releases. It is exported for
// checkpoint restore: a forked run restores the all-arrived barrier state
// and replays the release exactly where the original run would have sent
// it, consuming the same event sequence numbers.
func (s *Sync) ReleaseBarrier() { s.releaseBarrier() }

// releaseBarrier merges the arrival clocks and releases every node. Called
// with barCount == Nodes and barVCs fully populated.
func (s *Sync) releaseBarrier() {
	n := s.env.Nodes()
	uses := s.proto.UsesIntervals()
	var merged proto.VC
	if uses {
		merged = proto.NewVC(n)
		for _, vc := range s.barVCs {
			merged.Merge(vc)
		}
	}
	var windows []window
	if uses {
		windows = make([]window, n)
	}
	for i := 0; i < n; i++ {
		msg := network.Msg{Dst: i, Kind: kBarRelease, Block: -1, Bytes: 8}
		if uses {
			w := &windows[i]
			w.fill(s.env.Log, s.barVCs[i], merged)
			msg.Payload = w
			msg.Bytes += s.windowBytes(w)
		}
		if s.ts != nil {
			msg.B = s.barMaxTS
			msg.Bytes += 8
		}
		s.env.Send(0, &msg)
	}
	s.barCount = 0
	s.barVCs = nil
	s.barMaxTS = 0
}

// State is a deep snapshot of the synchronization layer at a barrier cut:
// the lock table (held/holder/last-releaser plus queued waiters and their
// clocks), the fully populated barrier-arrival state, and the epoch
// counter. Opaque outside this package; reusable across any number of
// forks.
type State struct {
	locks    map[int]*lockState
	barCount int
	barVCs   []proto.VC
	barMaxTS int64
	epoch    int
}

func cloneLocks(src map[int]*lockState) map[int]*lockState {
	dst := make(map[int]*lockState, len(src))
	for id, st := range src {
		cp := &lockState{held: st.held, holder: st.holder, lastReleaser: st.lastReleaser, lastTS: st.lastTS}
		for _, w := range st.queue {
			cp.queue = append(cp.queue, waiter{node: w.node, vc: w.vc.Clone()})
		}
		dst[id] = cp
	}
	return dst
}

// CaptureState snapshots the manager.
func (s *Sync) CaptureState() *State {
	st := &State{
		locks:    cloneLocks(s.locks),
		barCount: s.barCount,
		barMaxTS: s.barMaxTS,
		epoch:    s.epoch,
	}
	if s.barVCs != nil {
		st.barVCs = make([]proto.VC, len(s.barVCs))
		for i, vc := range s.barVCs {
			st.barVCs[i] = vc.Clone()
		}
	}
	return st
}

// RestoreState applies a snapshot to a freshly built manager (re-cloned,
// so the snapshot stays pristine). Follow with ReleaseBarrier to replay
// the release the cut suppressed.
func (s *Sync) RestoreState(st *State) {
	s.locks = cloneLocks(st.locks)
	s.barCount = st.barCount
	s.barMaxTS = st.barMaxTS
	s.epoch = st.epoch
	s.barVCs = nil
	if st.barVCs != nil {
		s.barVCs = make([]proto.VC, len(st.barVCs))
		for i, vc := range st.barVCs {
			s.barVCs[i] = vc.Clone()
		}
	}
}

// AddToDigest folds the snapshot into d (sorted lock ids, so equal states
// digest equal).
func (st *State) AddToDigest(d *proto.Digest) {
	ids := make([]int, 0, len(st.locks))
	for id := range st.locks {
		ids = append(ids, id)
	}
	sort.Ints(ids)
	for _, id := range ids {
		l := st.locks[id]
		d.Int(id)
		d.Bool(l.held)
		d.Int(l.holder)
		d.Int(l.lastReleaser)
		d.I64(l.lastTS)
		for _, w := range l.queue {
			d.Int(w.node)
			w.vc.AddToDigest(d)
		}
	}
	d.Int(st.barCount)
	d.I64(st.barMaxTS)
	d.Int(st.epoch)
	for _, vc := range st.barVCs {
		vc.AddToDigest(d)
	}
}

func (s *Sync) handleBarRelease(m *network.Msg) {
	w, _ := m.Payload.(*window)
	node := m.Dst
	if tr := s.env.Tracer; tr != nil {
		tr.Instant(node, trace.CatSynch, "bar-release",
			trace.A("notices", windowNotices(w)))
	}
	if s.proto.UsesIntervals() && w != nil {
		s.applyWindow(node, w)
	}
	if s.ts != nil {
		s.ts.AcquireTS(node, m.B)
	}
	s.proto.OnAcquireComplete(node)
	s.env.Procs[node].Unblock()
}
