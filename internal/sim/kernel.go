// Package sim provides a deterministic discrete-event simulation kernel.
//
// The kernel maintains a time-ordered queue of events. Events scheduled for
// the same time execute in the order they were scheduled (FIFO within a
// timestamp), which makes simulations fully deterministic for a fixed seed:
// two kernels fed the same schedule execute the same events in the same
// order, regardless of wall-clock timing, host, or how Run is chunked.
// This determinism is what lets the parallel sweep harness
// (internal/harness) promise results bit-identical to serial runs — each
// simulation instance owns one kernel, and nothing outside the instance
// can perturb its event order.
//
// # Queue structure
//
// The queue is a two-tier calendar: a ring of ringSize per-cycle FIFO
// buckets covering the near-future window [winStart, winStart+ringSize),
// plus a binary heap for the far future. The network model schedules
// almost exclusively a few cycles ahead (flit serialization, channel
// latency, credit return), so the common case is an O(1) bucket append
// and an O(1) bucket pop; the heap only sees long-delay events (reroute
// timers at low load, drain horizons, idle-source injection gaps). The
// (time, seq) FIFO contract is preserved exactly: a bucket receives its
// heap refugees the moment its cycle enters the window — strictly before
// any direct append for that cycle can occur, and in (time, seq) heap
// order — so every bucket is sequence-sorted by construction. The golden-
// trace test (repo root) pins this equivalence against the historical
// single-heap kernel.
//
// # Event representation
//
// There is one event kind: a pre-bound typed callback (AtAct/AfterAct) —
// an Actor receiver plus a small fixed argument set. Every event the
// model schedules (router arrivals, arbitration attempts, credit returns,
// injections) has this form, which is what makes an event assignable to a
// shard (Sharded), relocatable into a snapshot (EventCoder), and free to
// schedule: Event structs are pooled, so the steady-state
// schedule/dispatch path allocates nothing (asserted by alloc_test.go
// here and in internal/network).
//
// Cancellation: RunCtx is Run with a cooperative context check every few
// thousand events. Cancelling never reorders events — an interrupted run
// has executed a strict prefix of the serial schedule — so a job aborted
// by the harness's early-stop logic can simply be discarded.
//
// Time is measured in cycles; the network model defines 1 cycle = 1 ns.
package sim

import (
	"context"
)

// Time is the simulation clock value in cycles (1 cycle = 1 ns in the
// network model built on top of this kernel).
type Time int64

// Actor handles typed events. The kernel invokes Act with the op code and
// arguments given to AtAct; their meaning is entirely the actor's. Using a
// pointer-typed Actor and a pointer payload keeps scheduling allocation-
// free (storing pointers in interfaces does not heap-allocate).
type Actor interface {
	Act(op uint8, a, b, c int32, p any)
}

// Event is a unit of scheduled work.
type Event struct {
	at  Time
	seq uint64 // tie-break: FIFO among equal timestamps

	act     Actor
	p       any
	a, b, c int32
	op      uint8

	dead   bool // cancelled; skipped and recycled at pop time
	queued bool // allocated and not yet executed/recycled: still cancellable
	done   bool // staged event already executed inside its window (see stage.go)
}

const (
	// ringBits sizes the near-future window. 1024 cycles covers every
	// fixed delay in the network model (crossbar 50, channels 5/50,
	// packets up to 16 flits, reroute interval 100, drain steps 2000 are
	// split by until-boundaries) while keeping the per-kernel footprint
	// at a few tens of kilobytes.
	ringBits = 10
	ringSize = 1 << ringBits
	ringMask = ringSize - 1
)

// bucket is one calendar cell: the FIFO of events for a single cycle.
type bucket struct {
	q    []*Event
	head int
}

// Kernel is a discrete-event simulator. The zero value is not usable; call
// NewKernel.
type Kernel struct {
	now   Time
	seq   uint64
	nexec uint64
	npend int

	// Near-future calendar ring: cycle t lives in ring[t&ringMask],
	// valid for t in [winStart, winStart+ringSize).
	ring     []bucket
	winStart Time
	//hxlint:state ephemeral — derived ring-occupancy count; restore rebuilds it by re-enqueueing every captured event
	nring int

	// Far-future overflow, ordered by (at, seq).
	far farHeap

	// late holds events scheduled behind winStart. Reachable only after
	// Run's until-boundary has rewound the clock below an already-executed
	// event (a quirk preserved from the original single-heap kernel);
	// practically always empty.
	late []*Event

	//hxlint:state ephemeral — capacity detail, never serialized; the pool refills lazily after restore (see docs/STATE.md)
	free []*Event // recycled events: zero steady-state allocation

	// TraceExec, when non-nil, observes every executed (live) event as
	// (time, seq) immediately before its callback runs. It exists for the
	// golden-trace regression test, which folds the exact execution order
	// into a pinned hash; production runs leave it nil.
	//hxlint:state ephemeral — observer hook, rebound by the caller after restore if wanted
	TraceExec func(at Time, seq uint64)
}

// NewKernel returns an empty kernel at time zero.
func NewKernel() *Kernel {
	return &Kernel{ring: make([]bucket, ringSize)}
}

// Now returns the current simulation time.
func (k *Kernel) Now() Time { return k.now }

// Executed returns the total number of events executed so far. Useful for
// progress assertions in deadlock tests.
func (k *Kernel) Executed() uint64 { return k.nexec }

// Pending returns the number of events currently queued (cancelled events
// count until they are popped and recycled).
func (k *Kernel) Pending() int { return k.npend }

// eventChunk is how many Event structs one pool refill allocates. Growing
// the pool a chunk at a time turns the warm-up phase's per-event heap
// allocations into one slab per 256 events; the steady state never
// refills at all.
const eventChunk = 256

// refill stocks the free list with a fresh chunk of events.
func (k *Kernel) refill() {
	//hxlint:allow allocfree — chunked pool refill: one slab per eventChunk events, amortizing to zero once the pool reaches its high-water mark
	chunk := make([]Event, eventChunk)
	for i := range chunk {
		//hxlint:allow allocfree — the free list grows once, to the refill slab's size, then recycles in place
		k.free = append(k.free, &chunk[i])
	}
}

// Reserve pre-sizes the kernel's pools for a model of known scale:
// nEvents pooled Event structs and perBucket slots of calendar-bucket
// capacity, each backed by a single slab instead of incremental append
// growth. Purely a capacity hint — event order is unaffected — so models
// call it once at build time with their high-water estimate; the pools
// still grow on demand if the estimate is low.
func (k *Kernel) Reserve(nEvents, perBucket int) {
	if n := nEvents - len(k.free); n > 0 {
		//hxlint:allow allocfree — Reserve is the explicit build-time pre-sizing hook; models call it before steady state
		chunk := make([]Event, n)
		for i := range chunk {
			//hxlint:allow allocfree — build-time stocking of the free list, see above
			k.free = append(k.free, &chunk[i])
		}
	}
	if perBucket <= 0 {
		return
	}
	//hxlint:allow allocfree — build-time bucket slab, carved up below; this is what makes enqueue growth-free afterwards
	slab := make([]*Event, ringSize*perBucket)
	for i := range k.ring {
		b := &k.ring[i]
		pending := len(b.q) - b.head
		if cap(b.q) >= perBucket || pending > perBucket {
			continue
		}
		q := slab[i*perBucket : i*perBucket+pending : (i+1)*perBucket]
		copy(q, b.q[b.head:])
		b.q = q
		b.head = 0
	}
}

// alloc takes an event from the pool and stamps its (time, seq).
func (k *Kernel) alloc(t Time) *Event {
	if t < k.now {
		panic("sim: event scheduled in the past")
	}
	n := len(k.free)
	if n == 0 {
		k.refill()
		n = len(k.free)
	}
	e := k.free[n-1]
	k.free = k.free[:n-1]
	e.at = t
	e.seq = k.seq
	e.dead = false
	e.queued = true
	e.done = false
	k.seq++
	k.npend++
	return e
}

// enqueue places an allocated event into the tier its time belongs to.
func (k *Kernel) enqueue(e *Event) {
	switch {
	case e.at >= k.winStart+ringSize:
		k.far.push(e)
	case e.at >= k.winStart:
		b := &k.ring[int(e.at)&ringMask]
		//hxlint:allow allocfree — bucket capacity grows to the model's high-water occupancy and is then reused forever; Reserve pre-sizes it for spiky schedules
		b.q = append(b.q, e)
		k.nring++
	default:
		//hxlint:allow allocfree — the late list is practically always empty; only the pathological behind-window path ever grows it
		k.late = append(k.late, e)
	}
}

// recycle returns a popped event to the pool, dropping its references.
// Clearing queued here — not at pop time — keeps drained-but-unexecuted
// events cancellable: the sharded executor pops a whole window up front,
// and a same-window cancel from an earlier event must still land
// (serially the target would still be in the calendar at that point).
func (k *Kernel) recycle(e *Event) {
	e.queued = false
	e.done = false
	e.act = nil
	e.p = nil
	//hxlint:allow allocfree — returns capacity the pool already handed out; never exceeds the refill high-water mark
	k.free = append(k.free, e)
}

// AtAct schedules an event: at time t the kernel calls
// act.Act(op, a, b, c, p). Scheduling in the past panics: it always
// indicates a model bug. The returned handle may be passed to Cancel.
func (k *Kernel) AtAct(t Time, act Actor, op uint8, a, b, c int32, p any) *Event {
	e := k.alloc(t)
	e.act = act
	e.op = op
	e.a, e.b, e.c = a, b, c
	e.p = p
	k.enqueue(e)
	return e
}

// AfterAct schedules an event d cycles from now.
func (k *Kernel) AfterAct(d Time, act Actor, op uint8, a, b, c int32, p any) *Event {
	return k.AtAct(k.now+d, act, op, a, b, c, p)
}

// Cancel prevents a scheduled event from running. Cancelling an event that
// has already run or was already cancelled is a no-op.
func (k *Kernel) Cancel(e *Event) {
	if e == nil || e.dead || !e.queued {
		return
	}
	e.dead = true
}

// advanceWindow slides the calendar window forward so it starts at `to`,
// migrating far-heap events that the move brings inside the window into
// their buckets. Migration happens exactly when a cycle enters the window
// — before any direct append for that cycle is possible — and the heap
// yields equal-time events in seq order, so bucket FIFO order remains
// globally correct. Calls with to <= winStart are no-ops: the window never
// moves backward.
func (k *Kernel) advanceWindow(to Time) {
	if to <= k.winStart {
		return
	}
	k.winStart = to
	horizon := to + ringSize
	for len(k.far.h) > 0 && k.far.h[0].at < horizon {
		e := k.far.pop()
		b := &k.ring[int(e.at)&ringMask]
		//hxlint:allow allocfree — far-heap migration lands inside the bucket's retained high-water capacity
		b.q = append(b.q, e)
		k.nring++
	}
}

// peek returns the earliest queued event (live or cancelled) without
// removing it, or nil when the queue is empty. As a side effect it slides
// the window up to the event's bucket, so the subsequent pop is O(1).
func (k *Kernel) peek() *Event {
	if len(k.late) > 0 {
		return k.peekLate()
	}
	if k.nring == 0 {
		if len(k.far.h) == 0 {
			return nil
		}
		// Ring drained: jump the window to the far heap's minimum.
		k.advanceWindow(k.far.h[0].at)
	}
	for s := k.winStart; ; s++ {
		b := &k.ring[int(s)&ringMask]
		if b.head < len(b.q) {
			k.advanceWindow(s)
			return b.q[b.head]
		}
		if len(b.q) > 0 {
			b.q = b.q[:0]
			b.head = 0
		}
	}
}

// peekLate returns the (time, seq)-minimal late event; the late list is
// tiny (practically always empty), so a linear scan is fine.
func (k *Kernel) peekLate() *Event {
	best := k.late[0]
	for _, e := range k.late[1:] {
		if e.at < best.at || (e.at == best.at && e.seq < best.seq) {
			best = e
		}
	}
	return best
}

// popPeeked removes e, which must be the event peek just returned: the
// (time, seq)-minimal queued event, already windowed into its bucket.
// Splitting peek from removal lets Run inspect the head against its until-
// boundary and then remove it without a second calendar scan.
func (k *Kernel) popPeeked(e *Event) {
	if len(k.late) > 0 {
		for i, x := range k.late {
			if x == e {
				k.late = append(k.late[:i], k.late[i+1:]...)
				break
			}
		}
	} else {
		b := &k.ring[int(e.at)&ringMask]
		b.q[b.head] = nil
		b.head++
		if b.head == len(b.q) {
			b.q = b.q[:0]
			b.head = 0
		}
		k.nring--
	}
	k.npend--
}

// pop removes and returns the earliest queued event, or nil when empty.
func (k *Kernel) pop() *Event {
	e := k.peek()
	if e == nil {
		return nil
	}
	k.popPeeked(e)
	return e
}

// exec advances the clock to e and runs its callback, recycling e first so
// the callback can immediately reschedule from a warm pool.
func (k *Kernel) exec(e *Event) {
	k.now = e.at
	k.nexec++
	if k.TraceExec != nil {
		k.TraceExec(e.at, e.seq)
	}
	act, op, a, b, c, p := e.act, e.op, e.a, e.b, e.c, e.p
	k.recycle(e)
	act.Act(op, a, b, c, p)
}

// Step executes the next pending event. It returns false when the queue is
// empty.
func (k *Kernel) Step() bool {
	for {
		e := k.pop()
		if e == nil {
			return false
		}
		if e.dead {
			k.recycle(e)
			continue
		}
		k.exec(e)
		return true
	}
}

// Run executes events until the queue is empty or the clock passes until
// (when until > 0). It returns the time of the last executed event.
func (k *Kernel) Run(until Time) Time {
	for {
		e := k.peek()
		if e == nil {
			break
		}
		if until > 0 && e.at > until {
			k.now = until
			break
		}
		// Pop until a live event executes. Dead events skip straight to the
		// next one without rechecking the until-boundary — the historical
		// Step-loop behaviour the golden trace pins.
		for {
			k.popPeeked(e)
			if !e.dead {
				k.exec(e)
				break
			}
			k.recycle(e)
			if e = k.peek(); e == nil {
				return k.now
			}
		}
	}
	return k.now
}

// pollEvery is how many events RunCtx executes between context checks:
// frequent enough that a cancelled sweep job stops within microseconds,
// rare enough that the check never shows up in profiles.
const pollEvery = 8192

// RunCtx is Run with cooperative cancellation: every pollEvery executed
// events it checks ctx and, when cancelled, returns ctx.Err() with the
// clock at the last executed event. The event sequence of an uncancelled
// RunCtx is identical to Run's — the poll only adds an exit point, never
// reorders work — so callers may freely mix the two.
func (k *Kernel) RunCtx(ctx context.Context, until Time) (Time, error) {
	n := 0
	for {
		if n++; n >= pollEvery {
			n = 0
			//hxlint:allow noconc — cooperative cancellation poll, the kernel's one sanctioned channel op: it only adds an exit point, so an interrupted run executes a strict prefix of the serial schedule and event order never depends on the scheduler
			select {
			case <-ctx.Done():
				return k.now, ctx.Err()
			default:
			}
		}
		e := k.peek()
		if e == nil {
			break
		}
		if until > 0 && e.at > until {
			k.now = until
			break
		}
		// Mirror Run's pop-until-live loop (see there for why dead events
		// skip the until recheck).
		for {
			k.popPeeked(e)
			if !e.dead {
				k.exec(e)
				break
			}
			k.recycle(e)
			if e = k.peek(); e == nil {
				return k.now, nil
			}
		}
	}
	return k.now, nil
}

// farHeap is a hand-rolled binary min-heap over (at, seq) for events
// beyond the calendar window. Hand-rolled rather than container/heap to
// keep pops free of interface dispatch.
type farHeap struct {
	h []*Event
}

func (f *farHeap) less(i, j int) bool {
	a, b := f.h[i], f.h[j]
	if a.at != b.at {
		return a.at < b.at
	}
	return a.seq < b.seq
}

func (f *farHeap) push(e *Event) {
	//hxlint:allow allocfree — the far heap holds the rare beyond-window tail and keeps its high-water capacity across pushes
	f.h = append(f.h, e)
	i := len(f.h) - 1
	for i > 0 {
		parent := (i - 1) / 2
		if !f.less(i, parent) {
			break
		}
		f.h[i], f.h[parent] = f.h[parent], f.h[i]
		i = parent
	}
}

func (f *farHeap) pop() *Event {
	h := f.h
	e := h[0]
	n := len(h) - 1
	h[0] = h[n]
	h[n] = nil
	f.h = h[:n]
	// Sift down.
	i := 0
	for {
		l, r := 2*i+1, 2*i+2
		small := i
		if l < n && f.less(l, small) {
			small = l
		}
		if r < n && f.less(r, small) {
			small = r
		}
		if small == i {
			break
		}
		f.h[i], f.h[small] = f.h[small], f.h[i]
		i = small
	}
	return e
}
