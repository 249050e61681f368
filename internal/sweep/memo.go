package sweep

import "sync"

// Memo is a concurrency-safe, single-flight cache keyed by run
// configuration: the engine keeps one for run results and one for shared
// warmup-prefix checkpoints. When several workers (or several experiments)
// want the same key at once, exactly one computes it and the rest wait for
// that computation.
//
// Only successful values are retained. A failed computation is forgotten,
// and waiters that had joined it retry with their own compute function — a
// leader cancelled by its sweep's context cannot poison a follower from a
// different sweep whose context is still live.
type Memo[K comparable, V any] struct {
	mu sync.Mutex
	m  map[K]*memoEntry[V]
}

type memoEntry[V any] struct {
	done chan struct{} // closed when val/err are set
	val  V
	err  error
}

// NewMemo returns an empty memo.
func NewMemo[K comparable, V any]() *Memo[K, V] {
	return &Memo[K, V]{m: map[K]*memoEntry[V]{}}
}

// Do returns the memoized value for k, computing it with compute if
// needed. fresh reports whether this call performed the computation (as
// opposed to hitting the cache or joining another caller's in-flight
// computation) — emission of progress/CSV records keys off it so each run
// is reported exactly once.
func (m *Memo[K, V]) Do(k K, compute func() (V, error)) (val V, err error, fresh bool) {
	for {
		m.mu.Lock()
		if e, ok := m.m[k]; ok {
			m.mu.Unlock()
			<-e.done
			if e.err == nil {
				return e.val, nil, false
			}
			// The leader failed (typically: its sweep was cancelled) and
			// forgot its entry. Retry with our own compute — if this
			// caller's context is also dead, its compute fails fast.
			continue
		}
		e := &memoEntry[V]{done: make(chan struct{})}
		m.m[k] = e
		m.mu.Unlock()

		e.val, e.err = compute()
		if e.err != nil {
			// Forget failures so a cancelled or aborted run can be retried.
			m.mu.Lock()
			delete(m.m, k)
			m.mu.Unlock()
		}
		close(e.done)
		return e.val, e.err, true
	}
}

// each calls f with every completed value; in-flight computations are
// skipped.
func (m *Memo[K, V]) each(f func(V)) {
	m.mu.Lock()
	defer m.mu.Unlock()
	for _, e := range m.m {
		select {
		case <-e.done:
			if e.err == nil {
				f(e.val)
			}
		default:
		}
	}
}
