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
// The queue is one calendar per execution context: a serial kernel has
// exactly one, and SetCalendars splits it into one per shard for the
// sharded executor (internal/shard), each pending event into the calendar
// of the shard its actor's Sharded.ShardOf names. On a split kernel
// Sharded is a requirement, checked where an event enters a calendar:
// AtAct and SetCalendars panic on an actor that does not implement it,
// and Restore refuses one. A shard pops, and after each merge fills,
// only its own calendar, so the parallel phases share no calendar
// memory. Every pending event sits in exactly one calendar, and a
// multi-calendar kernel's serial loop, PeekTime and Snapshot take the
// (time, seq) minimum across them, so the queue they see is the whole
// one.
//
// A calendar is two-tier: a ring of ringSize per-cycle FIFO buckets
// covering the near-future window [winStart, winStart+ringSize), plus a
// binary heap for the far future. The network model schedules almost
// exclusively a few cycles ahead (flit serialization, channel latency,
// credit return), so the common case is an O(1) bucket append and an
// O(1) bucket pop; the heap only sees long-delay events (reroute timers at
// low load, drain horizons, idle-source injection gaps). Nothing in a
// calendar ever moves: a far event stays on the heap until it is popped,
// even once the window has slid over its time, and peek picks the
// (time, seq)-smaller of the heap minimum and the ring front. Every far
// push for a cycle predates every direct append for it (the window only
// moves forward), so within a tier order is by construction and across
// tiers the seq comparison restores it. A calendar's window never slides
// past the earliest time an event may still be scheduled into it: on a
// multi-calendar kernel that is the global head, not the calendar's own.
// The golden-trace test (repo root) pins the (time, seq) FIFO contract
// against the historical single-heap kernel.
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
// and a pop is a sequential read. Chunks recycle through their calendar's
// free list, so calendar memory is proportional to the pending events
// (plus a part-consumed head and a part-filled tail chunk per live
// timestamp), and the steady-state schedule/dispatch path allocates
// nothing (asserted by alloc_test.go here and in internal/network). Only
// the rare far and late events are individually pooled structs. A
// consumed slot keeps its actor and payload references until its chunk
// is reused; everything the model schedules is itself pooled, so nothing
// is kept alive by that.
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
	"fmt"
	"sort"
)

// Time is the simulation clock value in cycles (1 cycle = 1 ns in the
// network model built on top of this kernel).
type Time int64

// maxTime bounds nothing: the window limit of a single-calendar kernel.
const maxTime = Time(1<<63 - 1)

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

// set fills in the event's callback.
func (e *Event) set(act Actor, op uint8, a, b, c int32, p any) {
	e.act = act
	e.op = op
	e.a, e.b, e.c = a, b, c
	e.p = p
}

// Event flags. evQueued is cleared when a pooled or staged event is
// consumed; a ring pop is a pure read and leaves it set — that slot is
// never read again, so a late Cancel on it is unobservable.
const (
	evDead   uint8 = 1 << iota // cancelled; skipped at pop time
	evQueued                   // still cancellable
	evDone                     // staged event already executed inside its window (see stage.go)
	evPooled                   // a far/late struct from calendar.free, recycled when popped; ring slots belong to their chunk
	evKeep                     // staged handle the model keeps: placement reports its calendar copy (Stage.Keep)
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
// slot starts on a 64-byte boundary: one event is one cache line.
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

// calendar is one execution context's queue (see Queue structure), with
// its own chunk and struct pools: a shard that pops or fills its
// calendar writes nothing another calendar uses.
type calendar struct {
	// Near-future ring: cycle t lives in ring[t&ringMask], valid for t in
	// [winStart, winStart+ringSize).
	ring     []bucket
	winStart Time
	nring    int // ring occupancy
	npend    int

	// Far-future overflow, ordered by (at, seq).
	far farHeap

	// late holds events scheduled behind winStart. Reachable only after
	// Run's until-boundary has rewound the clock below an already-executed
	// event (a quirk preserved from the original single-heap kernel);
	// practically always empty.
	late []*Event

	chunks *chunk   // recycled bucket chunks, LIFO: zero steady-state allocation
	spent  *chunk   // consumed chunks awaiting release at the next pop; holds no pending event
	free   []*Event // far/late struct pool

	sources []placeSource // Place's per-stage read state

	// Calendars sit side by side in Kernel.cals and belong to different
	// shards: the pad keeps one calendar's fields off its neighbour's
	// cache lines.
	_ [64]byte
}

func newCalendar(winStart Time, nsrc int) calendar {
	return calendar{ring: make([]bucket, ringSize), winStart: winStart, sources: make([]placeSource, nsrc)}
}

// Kernel is a discrete-event simulator. The zero value is not usable; call
// NewKernel.
type Kernel struct {
	now   Time
	seq   uint64
	nexec uint64

	// cals holds one calendar per execution context (see Queue
	// structure): one for a serial kernel, one per shard after
	// SetCalendars.
	cals []calendar

	// TraceExec, when non-nil, observes every executed (live) event as
	// (time, seq) immediately before its callback runs. It exists for the
	// golden-trace regression test, which folds the exact execution order
	// into a pinned hash; production runs leave it nil.
	//hxlint:state ephemeral — observer hook, rebound by the caller after restore if wanted
	TraceExec func(at Time, seq uint64)
}

// NewKernel returns an empty kernel at time zero.
func NewKernel() *Kernel {
	return &Kernel{cals: []calendar{newCalendar(0, 1)}}
}

// Calendars returns the number of calendars: 1, or the shard count
// SetCalendars split the queue into.
func (k *Kernel) Calendars() int { return len(k.cals) }

// Now returns the current simulation time.
func (k *Kernel) Now() Time { return k.now }

// Executed returns the total number of events executed so far. Useful for
// progress assertions in deadlock tests.
func (k *Kernel) Executed() uint64 { return k.nexec }

// Pending returns the number of events currently queued (cancelled events
// count until they are popped).
func (k *Kernel) Pending() int {
	n := 0
	for i := range k.cals {
		n += k.cals[i].npend
	}
	return n
}

// Reserve pre-sizes the calendars for a model of known scale: chunk
// capacity for nEvents pending events, shared evenly across them and
// carved from a single slab each instead of chunkSlab-at-a-time growth.
// Purely a capacity hint — event order is unaffected — so models call it
// once at build time with their high-water estimate; the free lists still
// grow on demand if the estimate is low.
func (k *Kernel) Reserve(nEvents int) {
	per := (nEvents + len(k.cals) - 1) / len(k.cals)
	for i := range k.cals {
		c := &k.cals[i]
		n := (per + chunkCap - 1) / chunkCap
		for ch := c.chunks; ch != nil; ch = ch.next {
			n--
		}
		if n > 0 {
			c.stock(n)
		}
	}
}

// stock adds a slab of at least n chunks to the free list.
func (c *calendar) stock(n int) {
	//hxlint:allow allocfree — the chunk free list grows, a slab at a time, to the calendar's high-water occupancy and then recycles; Reserve pre-sizes it at build time
	slab := make([]chunk, max(n, chunkSlab))
	for i := range slab {
		slab[i].next = c.chunks
		c.chunks = &slab[i]
	}
}

// grow appends a fresh tail chunk to b.
func (c *calendar) grow(b *bucket) {
	if c.chunks == nil {
		c.stock(chunkSlab)
	}
	ch := c.chunks
	c.chunks = ch.next
	ch.next = nil
	if b.head == nil {
		b.head, b.hi = ch, 0
	} else {
		b.tail.next = ch
	}
	b.tail, b.ti = ch, 0
}

// park puts a consumed chunk on the spent list. It is not reusable yet:
// the event executing out of it may still have its handle cancelled by
// its own callback.
func (c *calendar) park(ch *chunk) {
	ch.next = c.spent
	c.spent = ch
}

// release returns the spent chunks to the free list.
func (c *calendar) release() {
	for ch := c.spent; ch != nil; {
		next := ch.next
		ch.next = c.chunks
		c.chunks = ch
		ch = next
	}
	c.spent = nil
}

// slot claims the calendar slot for a new event at time t — the tail of
// its ring bucket, or a pooled struct on the far heap or late list — and
// stamps its (time, seq). The caller fills in the callback.
func (c *calendar) slot(t Time, seq uint64) *Event {
	c.npend++
	if uint64(t-c.winStart) < ringSize {
		b := &c.ring[int(t)&ringMask]
		if b.tail == nil || b.ti == chunkCap {
			c.grow(b)
		}
		e := &b.tail.ev[b.ti]
		b.ti++
		c.nring++
		e.at, e.seq, e.flags = t, seq, evQueued
		return e
	}
	e := takeEvent(&c.free)
	e.at, e.seq, e.flags = t, seq, evQueued|evPooled
	if t < c.winStart {
		//hxlint:allow allocfree — the late list is practically always empty; only the pathological behind-window path ever grows it
		c.late = append(c.late, e)
	} else {
		c.far.push(e)
	}
	return e
}

// eventChunk is how many Event structs one pool refill allocates (a
// calendar's far/late pool and each Stage's staging pool).
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
func (c *calendar) recycle(e *Event) {
	e.flags = 0
	e.act = nil
	e.p = nil
	//hxlint:allow allocfree — returns capacity the pool already handed out; never exceeds the refill high-water mark
	c.free = append(c.free, e)
}

// AtAct schedules an event: at time t the kernel calls
// act.Act(op, a, b, c, p). Scheduling in the past panics: it always
// indicates a model bug. The returned handle may be passed to Cancel; it
// addresses the event's calendar slot and is valid until the event is
// popped — executed or skipped dead. A callback may still Cancel the
// handle of its own executing event (a no-op in effect). On a
// multi-calendar kernel the event goes to its shard's calendar, and an
// actor that does not implement Sharded panics (see calendarOf).
func (k *Kernel) AtAct(t Time, act Actor, op uint8, a, b, c int32, p any) *Event {
	if t < k.now {
		panic("sim: event scheduled in the past")
	}
	if len(k.cals) > 1 {
		return k.atSharded(t, act, op, a, b, c, p)
	}
	e := k.cals[0].slot(t, k.seq)
	k.seq++
	e.set(act, op, a, b, c, p)
	return e
}

// atSharded is AtAct on a multi-calendar kernel.
func (k *Kernel) atSharded(t Time, act Actor, op uint8, a, b, c int32, p any) *Event {
	cal, err := k.calendarOf(t, act, op, a, b, c, p)
	if err != nil {
		panic(err)
	}
	e := cal.slot(t, k.seq)
	k.seq++
	e.set(act, op, a, b, c, p)
	return e
}

// calendarOf returns the calendar an event at time t belongs to on a
// multi-calendar kernel: its actor's shard's, or none (notSharded).
func (k *Kernel) calendarOf(t Time, act Actor, op uint8, a, b, c int32, p any) (*calendar, error) {
	s, ok := act.(Sharded)
	if !ok {
		return nil, notSharded(t, act)
	}
	return &k.cals[s.ShardOf(op, a, b, c, p)], nil
}

// notSharded reports an event at time t that no calendar of a split
// kernel can take, because its actor does not implement Sharded: a
// model bug.
func notSharded(t Time, act Actor) error {
	return fmt.Errorf("sim: event at t=%d: actor %T does not implement sim.Sharded", t, act)
}

// AfterAct schedules an event d cycles from now.
func (k *Kernel) AfterAct(d Time, act Actor, op uint8, a, b, c int32, p any) *Event {
	return k.AtAct(k.now+d, act, op, a, b, c, p)
}

// Cancel prevents a scheduled event from running. Cancelling an event that
// has already run or was already cancelled is a no-op. The handle must be
// the event's current one (see AtAct; a staged handle the model keeps is
// superseded at placement, see Stage.Keep).
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

// peek returns the calendar's earliest queued event (live or cancelled)
// without removing it, or nil when the calendar is empty. As a side
// effect it slides the window toward the event's time, so the subsequent
// pop is O(1) — but never past limit, the earliest time an event may
// still be scheduled into this calendar (see slide).
func (c *calendar) peek(limit Time) *Event {
	if len(c.late) > 0 {
		return c.peekLate()
	}
	var e *Event
	if c.nring > 0 {
		s := c.winStart
		b := &c.ring[int(s)&ringMask]
		for b.head == nil {
			s++
			b = &c.ring[int(s)&ringMask]
		}
		e = &b.head.ev[b.hi]
		if len(c.far.h) == 0 || !before(c.far.h[0], e) {
			c.slide(s, limit)
			return e
		}
	} else if len(c.far.h) == 0 {
		return nil
	}
	e = c.far.h[0]
	c.slide(e.at, limit)
	return e
}

// slide moves the window start to t, capped at limit. The window never
// moves backward, and never past a far event or the calendar's own head
// (callers pass at most that); with a late list pending it does not move
// at all (peek returns before sliding), because late events order before
// everything else only while they sit behind the window.
func (c *calendar) slide(t, limit Time) {
	t = min(t, limit)
	if t > c.winStart {
		c.winStart = t
	}
}

// peekLate returns the (time, seq)-minimal late event; the late list is
// tiny (practically always empty), so a linear scan is fine.
func (c *calendar) peekLate() *Event {
	best := c.late[0]
	for _, e := range c.late[1:] {
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
func (c *calendar) take(e *Event) {
	switch {
	case len(c.late) > 0:
		for i, x := range c.late {
			if x == e {
				c.late = append(c.late[:i], c.late[i+1:]...)
				break
			}
		}
	case e.flags&evPooled != 0:
		c.far.pop()
	default:
		b := &c.ring[int(e.at)&ringMask]
		b.hi++
		if b.head == b.tail {
			if b.hi == b.ti {
				c.park(b.head)
				*b = bucket{}
			}
		} else if b.hi == chunkCap {
			// Head consumed with more chunks behind it: the bucket is not
			// empty, whatever hi says.
			ch := b.head
			b.head, b.hi = ch.next, 0
			c.park(ch)
		}
		c.nring--
	}
	c.npend--
}

// popPeeked is take for the serial loop: by now the previous event's
// callback has returned, so the chunks parked so far are reusable.
func (c *calendar) popPeeked(e *Event) {
	if c.spent != nil {
		c.release()
	}
	c.take(e)
}

// unpool hands a popped far/late struct back to its pool — before its
// callback, so the callback reschedules from a warm pool. A ring slot
// needs nothing: it is reclaimed with its chunk.
func (c *calendar) unpool(e *Event) {
	if e.flags&evPooled != 0 {
		c.recycle(e)
	}
}

// each calls fn for every queued event of the calendar, live or dead, in
// no particular order.
func (c *calendar) each(fn func(*Event)) {
	for i := range c.ring {
		b := &c.ring[i]
		lo := int(b.hi)
		for ch := b.head; ch != nil; ch = ch.next {
			hi := chunkCap
			if ch == b.tail {
				hi = int(b.ti)
			}
			for j := lo; j < hi; j++ {
				fn(&ch.ev[j])
			}
			lo = 0
		}
	}
	for _, e := range c.far.h {
		fn(e)
	}
	for _, e := range c.late {
		fn(e)
	}
}

// peek returns the kernel's earliest queued event and its calendar, or a
// nil event when the queue is empty. A single-calendar kernel peeks its
// one calendar, unbounded.
func (k *Kernel) peek() (*calendar, *Event) {
	if len(k.cals) == 1 {
		c := &k.cals[0]
		return c, c.peek(maxTime)
	}
	return k.peekAll()
}

// peekAll is peek on a multi-calendar kernel: the (time, seq) minimum over
// every calendar's head. Each calendar's window then slides up to that
// minimum's time and no further — every later schedule, whichever
// calendar it targets, lands at or after it.
func (k *Kernel) peekAll() (*calendar, *Event) {
	var bc *calendar
	var best *Event
	for i := range k.cals {
		c := &k.cals[i]
		if e := c.peek(c.winStart); e != nil && (best == nil || before(e, best)) {
			bc, best = c, e
		}
	}
	if best != nil {
		for i := range k.cals {
			if c := &k.cals[i]; len(c.late) == 0 {
				c.slide(best.at, best.at)
			}
		}
	}
	return bc, best
}

// exec advances the clock to e and runs its callback, in place: e has
// been popped from c, and its slot stays untouched until its callback
// returns.
func (k *Kernel) exec(c *calendar, e *Event) {
	k.now = e.at
	k.nexec++
	if k.TraceExec != nil {
		k.TraceExec(e.at, e.seq)
	}
	act, op, a, b, cc, p := e.act, e.op, e.a, e.b, e.c, e.p
	c.unpool(e)
	act.Act(op, a, b, cc, p)
}

// Step executes the next pending event. It returns false when the queue is
// empty.
func (k *Kernel) Step() bool {
	for {
		c, e := k.peek()
		if e == nil {
			return false
		}
		c.popPeeked(e)
		if e.flags&evDead != 0 {
			c.unpool(e)
			continue
		}
		k.exec(c, e)
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
		c, e := k.peek()
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
			c.popPeeked(e)
			if e.flags&evDead == 0 {
				k.exec(c, e)
				break
			}
			c.unpool(e)
			if c, e = k.peek(); e == nil {
				return k.now, nil
			}
		}
	}
	return k.now, nil
}

// SetCalendars re-splits the queue into n calendars, one per shard: each
// pending event, live or dead, moves to the calendar its actor's
// Sharded.ShardOf names; n = 1 merges them back into one. For n > 1 a
// pending event whose actor does not implement Sharded panics, with the
// actor's type and the event's time, before anything moves. The clock,
// the sequence counter and every event's (time, seq) stay as they are,
// so the execution order does not change. Events move, so each one is
// reported to rb with its old and new address — the same rewiring
// placement does for staged handles — while its old slot is still
// intact. The chunk and struct pools are dealt out across the new
// calendars. Call it between runs, never inside a window.
func (k *Kernel) SetCalendars(n int, rb Rebinder) {
	if n < 1 {
		panic("sim: SetCalendars needs at least one calendar")
	}
	buildCalendars(k, n, rb)
}

// buildCalendars does SetCalendars' move; allocation lives here, off the
// simulation steady-state path.
func buildCalendars(k *Kernel, n int, rb Rebinder) {
	var old []*Event
	win := k.cals[0].winStart
	var spareCh, usedCh []*chunk
	var spareEv, usedEv []*Event
	for i := range k.cals {
		c := &k.cals[i]
		win = min(win, c.winStart)
		c.each(func(e *Event) { old = append(old, e) })
		c.release()
		for ch := c.chunks; ch != nil; ch = ch.next {
			spareCh = append(spareCh, ch)
		}
		for j := range c.ring {
			for ch := c.ring[j].head; ch != nil; ch = ch.next {
				usedCh = append(usedCh, ch)
			}
		}
		spareEv = append(spareEv, c.free...)
		usedEv = append(append(usedEv, c.far.h...), c.late...)
	}
	sort.Slice(old, func(i, j int) bool { return before(old[i], old[j]) })
	for _, e := range old {
		if _, ok := e.act.(Sharded); !ok && n > 1 {
			panic(notSharded(e.at, e.act))
		}
	}

	cals := make([]calendar, n)
	for i := range cals {
		cals[i] = newCalendar(win, n)
	}
	deal := func(chs []*chunk, evs []*Event) {
		for i, ch := range chs {
			c := &cals[i%n]
			ch.next = c.chunks
			c.chunks = ch
		}
		for i, e := range evs {
			cals[i%n].recycle(e)
		}
	}
	// Placing into chunks and structs that held no pending event keeps
	// every old slot intact until its event has moved.
	deal(spareCh, spareEv)
	k.cals = cals
	for _, e := range old {
		c := &k.cals[0]
		if n > 1 {
			c, _ = k.calendarOf(e.at, e.act, e.op, e.a, e.b, e.c, e.p)
		}
		s := c.slot(e.at, e.seq)
		s.flags |= e.flags & evDead
		s.set(e.act, e.op, e.a, e.b, e.c, e.p)
		if rb != nil {
			rb.Rebind(e, s)
		}
	}
	deal(usedCh, usedEv)
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
