package proto

import (
	"math/rand"
	"testing"
	"testing/quick"
)

// TestLogBetweenPartitions: for any split point m, Between(0,m) followed by
// Between(m,latest) covers exactly the full history, in order, without
// overlap.
func TestLogBetweenPartitions(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		l := NewLog(1)
		n := 1 + rng.Intn(40)
		for i := 0; i < n; i++ {
			var ns []WriteNotice
			for k := rng.Intn(4); k > 0; k-- {
				ns = append(ns, WriteNotice{Block: int32(rng.Intn(100))})
			}
			l.Publish(0, ns)
		}
		m := int32(rng.Intn(n + 1))
		a := l.Between(0, 0, m)
		b := l.Between(0, m, int32(n))
		if len(a)+len(b) != n {
			return false
		}
		idx := int32(1)
		for _, iv := range append(append([]Interval{}, a...), b...) {
			if iv.Index != idx {
				return false
			}
			idx++
		}
		return l.NoticesBetween(0, 0, int32(n)) ==
			l.NoticesBetween(0, 0, m)+l.NoticesBetween(0, m, int32(n))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// TestHomesClaimIdempotent: for any claim sequence, the first claimer wins
// and every subsequent Claim returns the same home.
func TestHomesClaimIdempotent(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		nodes := 2 + rng.Intn(14)
		h := NewHomes(nodes, 32)
		h.BeginFirstTouch()
		first := make([]int, 32)
		for i := range first {
			first[i] = -1
		}
		for op := 0; op < 200; op++ {
			b := rng.Intn(32)
			n := rng.Intn(nodes)
			home, migrated := h.Claim(b, n)
			if first[b] == -1 {
				if !migrated || home != n {
					return false
				}
				first[b] = n
			} else {
				if migrated || home != first[b] {
					return false
				}
			}
			if h.Home(b) != first[b] || !h.Claimed(b) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

// TestVCMergeIdempotentCommutativeAssociative: the three lattice laws the
// barrier's clock merging relies on.
func TestVCMergeIdempotentCommutativeAssociative(t *testing.T) {
	f := func(xs, ys, zs [5]uint8) bool {
		mk := func(v [5]uint8) VC {
			out := NewVC(5)
			for i, x := range v {
				out[i] = int32(x)
			}
			return out
		}
		a, b, c := mk(xs), mk(ys), mk(zs)
		// Idempotent: a ⊔ a = a
		aa := a.Clone()
		aa.Merge(a)
		if !aa.Dominates(a) || !a.Dominates(aa) {
			return false
		}
		// Commutative: a ⊔ b = b ⊔ a
		ab := a.Clone()
		ab.Merge(b)
		ba := b.Clone()
		ba.Merge(a)
		if !ab.Dominates(ba) || !ba.Dominates(ab) {
			return false
		}
		// Associative: (a ⊔ b) ⊔ c = a ⊔ (b ⊔ c)
		l := ab.Clone()
		l.Merge(c)
		bc := b.Clone()
		bc.Merge(c)
		r := a.Clone()
		r.Merge(bc)
		return l.Dominates(r) && r.Dominates(l)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// TestLogNoticesBetweenRunningTotal: the running-total NoticesBetween
// equals the naive sum over Between for any window, including windows
// past the latest interval and empty or inverted ones, on the log, on a
// clone that has since diverged, and on a log restored from that clone.
func TestLogNoticesBetweenRunningTotal(t *testing.T) {
	naive := func(l *Log, node int, after, upTo int32) int {
		n := 0
		for _, iv := range l.Between(node, after, upTo) {
			n += len(iv.Notices)
		}
		return n
	}
	publish := func(rng *rand.Rand, l *Log, nodes, count int) {
		for i := 0; i < count; i++ {
			ns := make([]WriteNotice, rng.Intn(5))
			l.Publish(rng.Intn(nodes), ns)
		}
	}
	check := func(rng *rand.Rand, l *Log, nodes int) bool {
		for q := 0; q < 50; q++ {
			node := rng.Intn(nodes)
			span := int(l.Latest(node)) + 3
			after, upTo := int32(rng.Intn(span)), int32(rng.Intn(span))
			if l.NoticesBetween(node, after, upTo) != naive(l, node, after, upTo) {
				return false
			}
		}
		return true
	}
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		nodes := 1 + rng.Intn(6)
		l := NewLog(nodes)
		publish(rng, l, nodes, rng.Intn(60))
		c := l.Clone()
		publish(rng, l, nodes, rng.Intn(20))
		publish(rng, c, nodes, rng.Intn(20))
		r := NewLog(nodes)
		r.RestoreFrom(c)
		return check(rng, l, nodes) && check(rng, c, nodes) && check(rng, r, nodes)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}
