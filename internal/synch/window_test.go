package synch

import (
	"math/rand"
	"testing"
	"testing/quick"

	"dsmsim/internal/proto"
)

// randomLog publishes a random interval history over nodes nodes.
func randomLog(rng *rand.Rand, nodes int) *proto.Log {
	l := proto.NewLog(nodes)
	for i := rng.Intn(12 * nodes); i > 0; i-- {
		ns := make([]proto.WriteNotice, rng.Intn(4))
		for k := range ns {
			ns[k].Block = int32(rng.Intn(64))
		}
		l.Publish(rng.Intn(nodes), ns)
	}
	return l
}

// randomClock draws each entry from [0, Latest(j)+beyond].
func randomClock(rng *rand.Rand, l *proto.Log, nodes, beyond int) proto.VC {
	vc := proto.NewVC(nodes)
	for j := range vc {
		vc[j] = int32(rng.Intn(int(l.Latest(j)) + 1 + beyond))
	}
	return vc
}

// flatten is the payload a window replaces: every interval the receiver
// lacks, copied into one slice source node by source node, and its count.
func flatten(l *proto.Log, after, upTo proto.VC) ([]proto.Interval, int) {
	var ivs []proto.Interval
	for j := range upTo {
		ivs = append(ivs, l.Between(j, after[j], upTo[j])...)
	}
	n := 0
	for _, iv := range ivs {
		n += len(iv.Notices)
	}
	return ivs, n
}

// walk collects the intervals a window visits.
func walk(l *proto.Log, w *window) []proto.Interval {
	var got []proto.Interval
	w.each(l, func(ivs []proto.Interval) { got = append(got, ivs...) })
	return got
}

// sameIntervals reports whether a and b are the same published intervals
// in the same order (identity, not just equal contents).
func sameIntervals(a, b []proto.Interval) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i].Node != b[i].Node || a[i].Index != b[i].Index || len(a[i].Notices) != len(b[i].Notices) {
			return false
		}
		if len(a[i].Notices) > 0 && &a[i].Notices[0] != &b[i].Notices[0] {
			return false
		}
	}
	return true
}

// TestWindowMatchesFlattening: for random logs and random clock pairs with
// every upper entry inside the log (the send-time invariant), a filled
// window visits exactly the intervals the flattened payload carried, in
// the same order, and counts the same notices. Each upper clock has at
// least one entry at Latest.
func TestWindowMatchesFlattening(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		nodes := 1 + rng.Intn(8)
		l := randomLog(rng, nodes)
		after := randomClock(rng, l, nodes, 0)
		upTo := randomClock(rng, l, nodes, 0)
		k := rng.Intn(nodes)
		upTo[k] = l.Latest(k)
		if rng.Intn(2) == 0 {
			upTo.Merge(after) // a barrier's merged clock dominates each arrival
		}
		want, count := flatten(l, after, upTo)
		var w window
		w.fill(l, after, upTo)
		return w.notices == count && sameIntervals(walk(l, &w), want)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// TestWindowBeyondLatest: with upper entries past the log, the walk still
// clamps exactly as the flattening did, but fill refuses the window — a
// receiver walking later could see intervals published after the send.
func TestWindowBeyondLatest(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		nodes := 1 + rng.Intn(8)
		l := randomLog(rng, nodes)
		after := randomClock(rng, l, nodes, 3)
		upTo := randomClock(rng, l, nodes, 3)
		j := rng.Intn(nodes)
		upTo[j] = l.Latest(j) + 1 + int32(rng.Intn(3))
		want, count := flatten(l, after, upTo)
		w := window{after: after, upTo: upTo}
		n := 0
		for j, hi := range upTo {
			n += l.NoticesBetween(j, after[j], hi)
		}
		return n == count && sameIntervals(walk(l, &w), want) && fillPanics(l, after, upTo)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func fillPanics(l *proto.Log, after, upTo proto.VC) (panicked bool) {
	defer func() { panicked = recover() != nil }()
	var w window
	w.fill(l, after, upTo)
	return false
}

// TestWindowAfterAppend: intervals published after a window is filled do
// not leak into its walk — the log only appends, so (after, upTo] reads
// the same intervals at receive time as at send time.
func TestWindowAfterAppend(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	const nodes = 4
	l := randomLog(rng, nodes)
	after := randomClock(rng, l, nodes, 0)
	upTo := randomClock(rng, l, nodes, 0)
	upTo.Merge(after)
	want, count := flatten(l, after, upTo)
	var w window
	w.fill(l, after, upTo)
	for i := 0; i < 20; i++ {
		l.Publish(rng.Intn(nodes), make([]proto.WriteNotice, 1+rng.Intn(3)))
	}
	if !sameIntervals(walk(l, &w), want) || w.notices != count {
		t.Fatal("window walk changed after later publications")
	}
}
