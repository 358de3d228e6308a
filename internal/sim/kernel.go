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
// timers at low load, drain horizons, idle-source injection gaps).
// Nothing in the calendar ever moves: a far event stays on the heap until
// it is popped, even once the window has slid over its time, and peek
// picks the (time, seq)-smaller of the heap minimum and the ring front.
// Every far push for a cycle predates every direct append for it (the
// window only moves forward), so within a tier order is by construction
// and across tiers the seq comparison restores it. The golden-trace test
// (repo root) pins the (time, seq) FIFO contract against the historical
// single-heap kernel.
//
// # Event representation
//
// There is one event kind: a pre-bound typed callback (AtAct/AfterAct) —
// an Actor receiver plus a small fixed argument set. Every event the
// model schedules (router arrivals, arbitration attempts, credit returns,
// injections) has this form, which is what makes an event assignable to a
// shard (Sharded), relocatable into a snapshot (EventCoder), and free to
// schedule. Ring events live in their bucket: a bucket is a FIFO of
// fixed-size chunks of Event values, AtAct writes the event straight into
// the tail slot and hands out that slot's address as the Cancel handle,
// and a pop is a sequential read. Chunks recycle through one kernel free
// list, so calendar memory is proportional to the pending events (plus a
// part-consumed head and a part-filled tail chunk per live timestamp),
// and the steady-state schedule/dispatch path allocates nothing (asserted
// by alloc_test.go here and in internal/network). Only the rare far and
// late events are individually pooled structs. A consumed slot keeps its
// actor and payload references until its chunk is reused; everything the
// model schedules is itself pooled, so nothing is kept alive by that.
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

// Event is a unit of scheduled work: exactly one 64-byte cache line (see
// chunk).
type Event struct {
	at  Time
	seq uint64 // tie-break: FIFO among equal timestamps

	act     Actor
	p       any
	a, b, c int32
	op      uint8
	flags   uint8
}

// Event flags. evQueued is cleared when a pooled, drained or staged event
// is consumed; the serial ring pop is a pure read and leaves it set — that
// slot is never read again, so a late Cancel on it is unobservable.
const (
	evDead   uint8 = 1 << iota // cancelled; skipped at pop time
	evQueued                   // still cancellable
	evDone                     // staged event already executed inside its window (see stage.go)
	evPooled                   // a far/late struct from Kernel.free, recycled when popped; ring slots belong to their chunk
)

const (
	// ringBits sizes the near-future window. 1024 cycles covers every
	// fixed delay in the network model (crossbar 50, channels 5/50,
	// packets up to 16 flits, reroute interval 100, drain steps 2000 are
	// split by until-boundaries) while keeping the ring itself at a few
	// tens of kilobytes.
	ringBits = 10
	ringSize = 1 << ringBits
	ringMask = ringSize - 1

	// chunkCap is how many events one bucket chunk holds: 63 one-line
	// events plus the link fill one 4 KiB page.
	chunkCap = 63

	// chunkSlab is how many chunks the free list grows by. 64 KiB is past
	// the runtime's small-object sizes, so a slab gets whole pages of its
	// own and starts on a page boundary (a lone 4 KiB object with
	// pointers would sit 8 bytes into a larger size class).
	chunkSlab = 16
)

// chunk is one fixed-size segment of a bucket's FIFO. It is padded to
// 4 KiB and only ever allocated in page-aligned slabs (stock), so every
// slot starts on a 64-byte boundary: one event is one cache line, and two
// shards executing neighbouring drained events never write the same line.
type chunk struct {
	ev   [chunkCap]Event
	next *chunk
	_    [56]byte
}

// bucket is one calendar cell: the FIFO of events for a single cycle, as
// a chain of chunks. Slots [hi, chunkCap) of head, every slot of the
// chunks between, and slots [0, ti) of tail are pending (head == tail:
// [hi, ti)); head == nil is the empty bucket.
type bucket struct {
	head, tail *chunk
	hi, ti     int32
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

	//hxlint:state ephemeral — capacity detail, never serialized; the chunk free list refills lazily after restore (see docs/STATE.md)
	chunks *chunk // recycled bucket chunks, LIFO: zero steady-state allocation
	//hxlint:state ephemeral — consumed chunks awaiting release (at the next pop; a drained window's at the next drain); holds no pending event
	spent *chunk
	//hxlint:state ephemeral — capacity detail, never serialized; the far/late struct pool refills lazily after restore
	free []*Event
	//hxlint:state ephemeral — far/late structs of the last drained window, recycled at the next drain; holds no pending event
	heldEv []*Event

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
// count until they are popped).
func (k *Kernel) Pending() int { return k.npend }

// Reserve pre-sizes the calendar for a model of known scale: chunk
// capacity for nEvents pending events, carved from a single slab instead
// of chunkSlab-at-a-time growth. Purely a capacity hint — event order is
// unaffected — so models call it once at build time with their high-water
// estimate; the free list still grows on demand if the estimate is low.
func (k *Kernel) Reserve(nEvents int) {
	n := (nEvents + chunkCap - 1) / chunkCap
	for c := k.chunks; c != nil; c = c.next {
		n--
	}
	if n > 0 {
		k.stock(n)
	}
}

// stock adds a slab of at least n chunks to the free list.
func (k *Kernel) stock(n int) {
	//hxlint:allow allocfree — the chunk free list grows, a slab at a time, to the calendar's high-water occupancy and then recycles; Reserve pre-sizes it at build time
	slab := make([]chunk, max(n, chunkSlab))
	for i := range slab {
		slab[i].next = k.chunks
		k.chunks = &slab[i]
	}
}

// grow appends a fresh tail chunk to b.
func (k *Kernel) grow(b *bucket) {
	if k.chunks == nil {
		k.stock(chunkSlab)
	}
	c := k.chunks
	k.chunks = c.next
	c.next = nil
	if b.head == nil {
		b.head, b.hi = c, 0
	} else {
		b.tail.next = c
	}
	b.tail, b.ti = c, 0
}

// park puts a consumed chunk on the spent list. It is not reusable yet:
// the event executing out of it may still have its handle cancelled by
// its own callback, and a drained window's events are read until its
// merge is over.
func (k *Kernel) park(c *chunk) {
	c.next = k.spent
	k.spent = c
}

// release returns the spent chunks to the free list.
func (k *Kernel) release() {
	for c := k.spent; c != nil; {
		next := c.next
		c.next = k.chunks
		k.chunks = c
		c = next
	}
	k.spent = nil
}

// slot claims the calendar slot for a new event at time t — the tail of
// its ring bucket, or a pooled struct on the far heap or late list — and
// stamps its (time, seq). The caller fills in the callback.
func (k *Kernel) slot(t Time, seq uint64) *Event {
	k.npend++
	if uint64(t-k.winStart) < ringSize {
		b := &k.ring[int(t)&ringMask]
		if b.tail == nil || b.ti == chunkCap {
			k.grow(b)
		}
		e := &b.tail.ev[b.ti]
		b.ti++
		k.nring++
		e.at, e.seq, e.flags = t, seq, evQueued
		return e
	}
	e := takeEvent(&k.free)
	e.at, e.seq, e.flags = t, seq, evQueued|evPooled
	if t < k.winStart {
		//hxlint:allow allocfree — the late list is practically always empty; only the pathological behind-window path ever grows it
		k.late = append(k.late, e)
	} else {
		k.far.push(e)
	}
	return e
}

// eventChunk is how many Event structs one pool refill allocates (the
// kernel's far/late pool and each Stage's staging pool).
const eventChunk = 256

// stockEvents adds one slab of eventChunk structs to a pool of
// individually held events.
func stockEvents(free []*Event) []*Event {
	//hxlint:allow allocfree — chunked pool refill: one slab per eventChunk structs, amortizing to zero at the pool's high-water mark
	slab := make([]Event, eventChunk)
	for i := range slab {
		free = append(free, &slab[i])
	}
	return free
}

// takeEvent pops a struct from such a pool, restocking it when empty: the
// pool grows to its owner's high-water mark and then recycles in place.
func takeEvent(free *[]*Event) *Event {
	f := *free
	if len(f) == 0 {
		f = stockEvents(f)
	}
	e := f[len(f)-1]
	*free = f[:len(f)-1]
	return e
}

// recycle returns a popped far/late struct to the pool, dropping its
// references.
func (k *Kernel) recycle(e *Event) {
	e.flags = 0
	e.act = nil
	e.p = nil
	//hxlint:allow allocfree — returns capacity the pool already handed out; never exceeds the refill high-water mark
	k.free = append(k.free, e)
}

// AtAct schedules an event: at time t the kernel calls
// act.Act(op, a, b, c, p). Scheduling in the past panics: it always
// indicates a model bug. The returned handle may be passed to Cancel; it
// addresses the event's calendar slot and is valid until the event is
// popped — executed, skipped dead, or drained into a window, whose events
// stay addressable until the next DrainWindow. A callback may still
// Cancel the handle of its own executing event (a no-op in effect).
func (k *Kernel) AtAct(t Time, act Actor, op uint8, a, b, c int32, p any) *Event {
	if t < k.now {
		panic("sim: event scheduled in the past")
	}
	e := k.slot(t, k.seq)
	k.seq++
	e.act = act
	e.op = op
	e.a, e.b, e.c = a, b, c
	e.p = p
	return e
}

// AfterAct schedules an event d cycles from now.
func (k *Kernel) AfterAct(d Time, act Actor, op uint8, a, b, c int32, p any) *Event {
	return k.AtAct(k.now+d, act, op, a, b, c, p)
}

// Cancel prevents a scheduled event from running. Cancelling an event that
// has already run or was already cancelled is a no-op. The handle must be
// the event's current one (see AtAct; a staged handle is superseded at
// the merge, see InjectStaged).
func (k *Kernel) Cancel(e *Event) {
	if e == nil || e.flags&evQueued == 0 {
		return
	}
	e.flags |= evDead
}

// before reports whether a precedes b in (time, seq) order.
func before(a, b *Event) bool {
	return a.at < b.at || (a.at == b.at && a.seq < b.seq)
}

// peek returns the earliest queued event (live or cancelled) without
// removing it, or nil when the queue is empty. As a side effect it slides
// the window up to the event's time, so the subsequent pop is O(1). The
// window never moves backward, and never past a far event: everything in
// the ring and on the heap is at or after winStart.
func (k *Kernel) peek() *Event {
	if len(k.late) > 0 {
		return k.peekLate()
	}
	var e *Event
	if k.nring > 0 {
		s := k.winStart
		b := &k.ring[int(s)&ringMask]
		for b.head == nil {
			s++
			b = &k.ring[int(s)&ringMask]
		}
		e = &b.head.ev[b.hi]
		if len(k.far.h) == 0 || !before(k.far.h[0], e) {
			k.winStart = s
			return e
		}
	} else if len(k.far.h) == 0 {
		return nil
	}
	e = k.far.h[0]
	k.winStart = e.at
	return e
}

// peekLate returns the (time, seq)-minimal late event; the late list is
// tiny (practically always empty), so a linear scan is fine.
func (k *Kernel) peekLate() *Event {
	best := k.late[0]
	for _, e := range k.late[1:] {
		if before(e, best) {
			best = e
		}
	}
	return best
}

// take removes e, which must be the event peek just returned, from its
// tier. Splitting peek from removal lets Run inspect the head against its
// until-boundary and then remove it without a second calendar scan. A
// ring chunk the removal exhausts is parked, not freed (see park); a
// pooled struct is the caller's to recycle.
func (k *Kernel) take(e *Event) {
	switch {
	case len(k.late) > 0:
		for i, x := range k.late {
			if x == e {
				k.late = append(k.late[:i], k.late[i+1:]...)
				break
			}
		}
	case e.flags&evPooled != 0:
		k.far.pop()
	default:
		b := &k.ring[int(e.at)&ringMask]
		b.hi++
		if b.head == b.tail {
			if b.hi == b.ti {
				k.park(b.head)
				*b = bucket{}
			}
		} else if b.hi == chunkCap {
			// Head consumed with more chunks behind it: the bucket is not
			// empty, whatever hi says.
			c := b.head
			b.head, b.hi = c.next, 0
			k.park(c)
		}
		k.nring--
	}
	k.npend--
}

// popPeeked is take for the serial loop: by now the previous event's
// callback has returned, so the chunks parked so far are reusable.
func (k *Kernel) popPeeked(e *Event) {
	if k.spent != nil {
		k.release()
	}
	k.take(e)
}

// exec advances the clock to e and runs its callback, in place: e has
// been popped, and its slot stays untouched until its callback returns.
func (k *Kernel) exec(e *Event) {
	k.now = e.at
	k.nexec++
	if k.TraceExec != nil {
		k.TraceExec(e.at, e.seq)
	}
	act, op, a, b, c, p := e.act, e.op, e.a, e.b, e.c, e.p
	k.unpool(e)
	act.Act(op, a, b, c, p)
}

// unpool hands a popped far/late struct back to its pool — before its
// callback, so the callback reschedules from a warm pool. A ring slot
// needs nothing: it is reclaimed with its chunk.
func (k *Kernel) unpool(e *Event) {
	if e.flags&evPooled != 0 {
		k.recycle(e)
	}
}

// Step executes the next pending event. It returns false when the queue is
// empty.
func (k *Kernel) Step() bool {
	for {
		e := k.peek()
		if e == nil {
			return false
		}
		k.popPeeked(e)
		if e.flags&evDead != 0 {
			k.unpool(e)
			continue
		}
		k.exec(e)
		return true
	}
}

// Run executes events until the queue is empty or the clock passes until
// (when until > 0). It returns the time of the last executed event. It is
// RunCtx with a context that is never cancelled.
func (k *Kernel) Run(until Time) Time {
	now, _ := k.RunCtx(context.Background(), until)
	return now
}

// pollEvery is how many events RunCtx executes between context checks:
// frequent enough that a cancelled sweep job stops within microseconds,
// rare enough that the check never shows up in profiles.
const pollEvery = 8192

// RunCtx is Run with cooperative cancellation: every pollEvery executed
// events it checks ctx and, when cancelled, returns ctx.Err() with the
// clock at the last executed event. The poll only adds an exit point,
// never reorders work, so an uncancelled RunCtx executes the same event
// sequence whatever the context.
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
		// Pop until a live event executes. Dead events skip straight to the
		// next one without rechecking the until-boundary — the historical
		// Step-loop behaviour the golden trace pins.
		for {
			k.popPeeked(e)
			if e.flags&evDead == 0 {
				k.exec(e)
				break
			}
			k.unpool(e)
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
