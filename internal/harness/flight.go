package harness

import (
	"sync"
	"sync/atomic"
)

// Flight deduplicates concurrent identical computations by key: the
// first caller of a key (the leader) computes while every concurrent
// caller of the same key waits and shares the leader's value. The
// facade threads a Flight through sweep jobs keyed by the checkpoint
// cache key of each cell, so overlapping in-flight submissions to the
// sweep service trigger exactly one simulation per distinct cell — the
// in-memory complement of the on-disk content-addressed store.
//
// Unlike x/sync/singleflight, a leader's failure is not shared: one
// waiting follower retries as the new leader. That matters here because
// a leader can be cancelled for reasons private to its own run (the
// harness's speculative early stop, a client abort) and its context
// error must not poison an unrelated run computing the same cell.
type Flight struct {
	mu    sync.Mutex
	calls map[string]*flightCall

	computes atomic.Uint64
	shared   atomic.Uint64
}

type flightCall struct {
	done chan struct{}
	val  any
	err  error

	// waiters counts followers parked on done; the stampede tests use it
	// to hold the leader in its compute until every follower has joined,
	// making the exactly-one-compute assertion deterministic.
	waiters atomic.Int32
}

// NewFlight returns an empty flight group.
func NewFlight() *Flight {
	return &Flight{calls: make(map[string]*flightCall)}
}

// Do runs fn under key, deduplicating concurrent callers. fn reports
// whether it computed its value (counted by Computes) or found it
// elsewhere, say in a store. shared reports whether the returned value
// came from another caller's fn invocation rather than this caller's
// own. When the leader fails, one follower at a time retries as a fresh
// leader, so an error is only ever returned to a caller whose own fn
// produced it. A nil Flight deduplicates nothing: Do just runs fn.
func (f *Flight) Do(key string, fn func() (v any, computed bool, err error)) (v any, shared bool, err error) {
	if f == nil {
		v, _, err = fn()
		return v, false, err
	}
	for {
		f.mu.Lock()
		if c, ok := f.calls[key]; ok {
			c.waiters.Add(1)
			f.mu.Unlock()
			<-c.done
			if c.err == nil {
				f.shared.Add(1)
				return c.val, true, nil
			}
			continue // leader failed: race to become the new leader
		}
		c := &flightCall{done: make(chan struct{})}
		f.calls[key] = c
		f.mu.Unlock()

		var computed bool
		c.val, computed, c.err = fn()
		if computed {
			f.computes.Add(1)
		}

		f.mu.Lock()
		delete(f.calls, key)
		f.mu.Unlock()
		close(c.done)
		return c.val, false, c.err
	}
}

// Computes returns how many of Do's fn invocations computed their value
// — the number that stays at one when N concurrent callers submit the
// same key (the stampede test's assertion).
func (f *Flight) Computes() uint64 { return f.computes.Load() }

// Shared returns how many Do calls were served by another caller's
// computation.
func (f *Flight) Shared() uint64 { return f.shared.Load() }

// waitersFor reports how many followers are currently parked on key's
// in-flight call (0 when no call is in flight). Test-only rendezvous.
func (f *Flight) waitersFor(key string) int32 {
	f.mu.Lock()
	defer f.mu.Unlock()
	if c, ok := f.calls[key]; ok {
		return c.waiters.Load()
	}
	return 0
}
