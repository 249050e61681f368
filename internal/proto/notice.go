package proto

// WriteNotice records that a block was modified during a writer's interval.
// SW-LRC additionally uses Version (the block's single-writer version
// counter) to find the up-to-date copy in one hop; HLRC uses Seq (the
// writer's per-block diff sequence number) so readers can wait at the home
// until the corresponding diff has been applied.
type WriteNotice struct {
	Block   int32
	Version int32 // SW-LRC: block version at publication
	Seq     int32 // HLRC: writer's diff sequence for this block
}

// Interval is the set of write notices one node published when it closed
// one interval (at a release or barrier).
type Interval struct {
	Node    int32
	Index   int32 // 1-based interval number
	Notices []WriteNotice
}

// Log is the global, append-only publication log of intervals, indexed by
// node. Intervals are immutable once appended, so the log can be shared by
// every simulated node: each node's knowledge is captured entirely by its
// vector clock, and "sending write notices" means shipping (and costing)
// the log entries between two clock values.
type Log struct {
	byNode [][]Interval
	// total[node][k] is the number of notices in node's intervals 1..k+1,
	// a running sum appended alongside byNode so notice counts over any
	// window are two lookups.
	total [][]int
}

// NewLog returns an empty log for n nodes.
func NewLog(n int) *Log {
	return &Log{byNode: make([][]Interval, n), total: make([][]int, n)}
}

// Publish appends node's next interval containing the given notices and
// returns its index. Empty intervals are legal (a release with no writes
// still closes an interval).
func (l *Log) Publish(node int, notices []WriteNotice) int32 {
	idx := int32(len(l.byNode[node]) + 1)
	l.byNode[node] = append(l.byNode[node], Interval{Node: int32(node), Index: idx, Notices: notices})
	l.total[node] = append(l.total[node], l.through(node, idx-1)+len(notices))
	return idx
}

// Latest returns node's most recently published interval index (0 if none).
func (l *Log) Latest(node int) int32 { return int32(len(l.byNode[node])) }

// Between returns node's intervals with index in (after, upTo], i.e. the
// notices a node whose clock shows `after` needs to reach `upTo`.
func (l *Log) Between(node int, after, upTo int32) []Interval {
	if upTo > l.Latest(node) {
		upTo = l.Latest(node)
	}
	if after >= upTo {
		return nil
	}
	return l.byNode[node][after:upTo]
}

// NoticesBetween counts the notices in (after, upTo] for wire sizing,
// with the same clamping as Between.
func (l *Log) NoticesBetween(node int, after, upTo int32) int {
	upTo = min(upTo, l.Latest(node))
	if after >= upTo {
		return 0
	}
	return l.through(node, upTo) - l.through(node, after)
}

// through returns the number of notices in node's intervals 1..k.
func (l *Log) through(node int, k int32) int {
	if k <= 0 {
		return 0
	}
	return l.total[node][k-1]
}

// Reset clears all published intervals (parallel-phase boundary).
func (l *Log) Reset() {
	for i := range l.byNode {
		l.byNode[i] = nil
		l.total[i] = nil
	}
}

// Clone returns a copy safe for independent continuation: each per-node
// interval slice gets fresh backing (a fork appending interval k+1 must
// not write into an array the snapshot or a sibling fork also references).
// The Interval values themselves are copied, but their Notices slices are
// shared — intervals are immutable once published. The running notice
// totals are copied the same way.
func (l *Log) Clone() *Log {
	c := NewLog(len(l.byNode))
	for i, ivs := range l.byNode {
		if len(ivs) > 0 {
			c.byNode[i] = append([]Interval(nil), ivs...)
			c.total[i] = append([]int(nil), l.total[i]...)
		}
	}
	return c
}

// RestoreFrom overwrites this log in place from a snapshot produced by
// Clone, re-cloning so the snapshot stays pristine for further forks.
func (l *Log) RestoreFrom(src *Log) {
	c := src.Clone()
	l.byNode, l.total = c.byNode, c.total
}
