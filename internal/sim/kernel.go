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
// of the shard its actor id belongs to: the kernel asks each registered
// actor's Sharded.ShardOf once per id when the queue splits, so placing
// an event is a table read. On a split kernel Sharded is a requirement,
// checked where an event enters a calendar: At and SetCalendars panic on
// an actor that does not implement it, and Restore refuses one. A split
// kernel also gives each shard an inbox: a second calendar that only
// placement fills, with the events other shards scheduled for it.
// Inside a window a shard's calendar and
// inbox are its whole queue: the shard pops both in (time, seq) order,
// each of its schedule calls that targets itself lands in its own
// calendar under a tagged seq that orders it as the merge will number it
// (see stage.go), and after the merge it alone patches those seqs and
// fills its inbox, so the parallel phases share no calendar memory.
// Every pending event sits in exactly one calendar, and a multi-calendar
// kernel's serial loop, PeekTime and Snapshot take the (time, seq)
// minimum across all of them, inboxes included, so the queue they see is
// the whole one.
//
// A calendar is two-tier: a ring of ringSize per-cycle FIFO buckets
// covering the near-future window [winStart, winStart+ringSize), plus a
// binary heap for the far future. The network model schedules almost
// exclusively a few cycles ahead (flit serialization, channel latency,
// credit return), so the common case is an O(1) bucket append and an O(1)
// bucket pop; the heap only sees long-delay events (reroute timers at low
// load, drain horizons, idle-source injection gaps). Nothing in a calendar
// ever moves: a far event stays on the heap until it is popped, even once
// the window has slid over its time, and peek picks the (time,
// seq)-smaller of the heap minimum and the ring front. An event scheduled
// behind the window (Run's until-boundary can rewind the clock below an
// already-executed event) fails the ring test too and waits on the heap,
// where its time orders it first. Every far push for a cycle predates
// every direct append for it (the window only moves forward), so within a
// tier order is by construction and across tiers the seq comparison
// restores it. A calendar's window never slides past the earliest time an
// event may still be scheduled into it: on a multi-calendar kernel that is
// the global head, not the calendar's own. The golden-trace test (repo
// root) pins the (time, seq) FIFO contract against the historical
// single-heap kernel.
//
// # Event representation
//
// There is one event kind: an actor id plus a small fixed argument set
// (At/After). A model registers its actors with the kernel at build time
// (Register) and schedules by id; the kernel dispatches each event once,
// through its actor table. Every event the model schedules (router
// arrivals, arbitration attempts, credit returns, injections) has this
// form, which is what makes an event assignable to a shard (an actor's
// shard is a function of its id), relocatable into a snapshot (an id is
// already positional), and free to schedule. An Event is 32 bytes with no
// pointer: the arguments carry indices, never references, and a ring
// event's time is its bucket's cycle, so it is not stored. Ring events
// live in their bucket: a bucket is a FIFO of fixed-size chunks of Event
// values, At writes the event straight into the tail slot, and a pop is a
// sequential read. No event address leaves the kernel, so a chunk its pop
// consumes goes straight back to its calendar's free list: the popped
// event is read before anything is scheduled. Chunks recycle through the
// free list, so calendar memory is proportional to the pending events
// (plus a part-consumed head and a part-filled tail chunk per live
// timestamp), and the steady-state schedule/dispatch path allocates
// nothing (asserted by alloc_test.go here and in internal/network). Only
// the rare far events are individually pooled structs, which carry their
// time beside the event. AtAct and AfterAct adapt an Actor value onto the
// id path for callers that hold no id.
//
// Expiry: an event is never cancelled. An op marked OpExpires (a model's
// timer) may expire while pending: when the kernel pops such an event it
// asks the actor (Expirer) whether it still stands, and an expired one is
// skipped — not traced, not counted, left out of snapshots — yet keeps
// its slot, seq and pop position, as every other event does. The model
// decides expiry from its own state (the network: an input VC's timer
// generation), so there is no handle to hold and none to move.
//
// Cancellation: RunCtx is Run with a cooperative context check every few
// thousand events. Cancelling never reorders events — an interrupted run
// has executed a strict prefix of the serial schedule — so a job aborted
// by the harness's early-stop logic can simply be discarded.
//
// Time is measured in cycles; the network model defines 1 cycle = 1 ns.
package sim

import (
	"cmp"
	"context"
	"fmt"
	"slices"
)

// Time is the simulation clock value in cycles (1 cycle = 1 ns in the
// network model built on top of this kernel).
type Time int64

// maxTime bounds nothing: the window limit of a single-calendar kernel.
const maxTime = Time(1<<63 - 1)

// Actor handles typed events. The kernel invokes Act with the op code and
// arguments given to At; their meaning is entirely the actor's. p is
// always nil: an event carries no payload, so a model passes indices
// into its own tables in a, b and c.
type Actor interface {
	Act(op uint8, a, b, c int32, p any)
}

// OpExpires marks an op whose events may expire while pending: the kernel
// asks their actor, which must implement Expirer, before running one. The
// other seven bits of an op are the actor's.
const OpExpires uint8 = 1 << 7

// Expirer is implemented by actors that schedule OpExpires events.
// Expired reports whether such an event, with its op and arguments, has
// expired: it is then skipped as if it had never been scheduled, except
// that it keeps the seq it took. The kernel asks when it pops the event —
// on the shard that owns the actor — and when a snapshot captures it, so
// the answer must follow from state only the actor's own events write,
// and asking must change nothing.
type Expirer interface {
	Expired(op uint8, a, b, c int32) bool
}

// Event is a unit of scheduled work: 32 bytes with no pointer, two to a
// cache line (see chunk). A ring event's time is its bucket's cycle; a
// struct outside the ring carries it beside the event (timedEvent).
type Event struct {
	seq     uint64 // tie-break: FIFO among equal timestamps
	act     int32  // actor id (Register)
	a, b, c int32
	op      uint8
	flags   uint8
}

// set fills in the event's callback.
func (e *Event) set(id int32, op uint8, a, b, c int32) {
	e.act, e.op = id, op
	e.a, e.b, e.c = a, b, c
}

// timedEvent is an event with its time beside it: an entry of a
// calendar's far heap, or a stage's cross-shard staging struct. Both are
// individually pooled (takeEvent).
type timedEvent struct {
	Event
	at Time
}

// before reports whether the struct precedes an event at time at with
// sequence number seq in (time, seq) order.
func (t *timedEvent) before(at Time, seq uint64) bool {
	return t.at < at || (t.at == at && t.seq < seq)
}

// evPooled flags a far struct from calendar.free, recycled when popped;
// ring slots belong to their chunk. Every slot and struct that takes an
// event overwrites the flags.
const evPooled uint8 = 1

const (
	// ringBits sizes the near-future window. 1024 cycles covers every
	// fixed delay in the network model (crossbar 50, channels 5/50,
	// packets up to 16 flits, reroute interval 100, drain steps 2000 are
	// split by until-boundaries) while keeping the ring itself at a few
	// tens of kilobytes.
	ringBits = 10
	ringSize = 1 << ringBits
	ringMask = ringSize - 1

	// chunkCap is how many events one bucket chunk holds: 127 half-line
	// events plus the link fill one 4 KiB page.
	chunkCap = 127

	// chunkSlab is how many chunks the free list grows by. 64 KiB is past
	// the runtime's small-object sizes, so a slab gets whole pages of its
	// own and starts on a page boundary (a lone 4 KiB object with
	// pointers would sit 8 bytes into a larger size class).
	chunkSlab = 16
)

// chunk is one fixed-size segment of a bucket's FIFO. It is padded to
// 4 KiB and only ever allocated in page-aligned slabs (stock), so every
// slot starts on a 32-byte boundary: two events share one cache line and
// none straddles two.
type chunk struct {
	ev   [chunkCap]Event
	next *chunk
	_    [24]byte
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
	// [winStart, winStart+ringSize). The window never slides past a
	// pending ring event, so a bucket's cycle is implied (ringTime).
	ring     []bucket
	winStart Time
	nring    int // ring occupancy
	npend    int

	// Every event outside the ring window, ordered by (at, seq): the far
	// future, and the practically never used behind-window events.
	far farHeap

	chunks *chunk        // recycled bucket chunks, LIFO: zero steady-state allocation
	free   []*timedEvent // far struct pool

	sources []placeSource // Place's per-stage read state

	// huge backs every chunk slab stock adds with huge pages
	// (Kernel.UseHugePages). A restore refills the calendars in place, so
	// it keeps them.
	huge bool

	// Calendars sit side by side in Kernel.cals and belong to different
	// shards: the pad keeps one calendar's fields off its neighbour's
	// cache lines.
	_ [64]byte
}

func newCalendar(winStart Time, nsrc int, huge bool) calendar {
	return calendar{ring: make([]bucket, ringSize), winStart: winStart, sources: make([]placeSource, nsrc), huge: huge}
}

// ringTime is the cycle of ring bucket i: the one time in the window
// [winStart, winStart+ringSize) that maps to it.
func (c *calendar) ringTime(i int) Time {
	return c.winStart + Time((uint64(i)-uint64(c.winStart))&ringMask)
}

// Kernel is a discrete-event simulator. The zero value is not usable; call
// NewKernel.
type Kernel struct {
	now   Time
	seq   uint64
	nexec uint64

	// cals holds the calendars (see Queue structure): one for a serial
	// kernel; after SetCalendars(n > 1), shard s's own calendar at s and
	// its inbox at n+s.
	cals []calendar

	// acts is the actor table: acts[id] handles the events scheduled for
	// id. It is build-time wiring: the model registers its actors at
	// build, and a restore target built from the identical Config
	// registers the same ids in the same order. firsts holds the first id
	// of each Register call, ascending, so SetCalendars can ask each actor
	// about its own ids.
	acts []Actor
	//hxlint:state ephemeral — build-time wiring, with acts
	firsts []int32

	// owner[id] is the shard of id's events on a split kernel, or -1 for
	// an actor that does not implement Sharded; nil on a single-calendar
	// kernel.
	//hxlint:state ephemeral — derived from the actor table and the calendar count by SetCalendars and Register
	owner []int32

	// The AtAct adapter's ids: the last actor it scheduled for, and every
	// actor it has registered.
	//hxlint:state ephemeral — adapter cache over the actor table
	last Actor
	//hxlint:state ephemeral — adapter cache over the actor table
	lastID int32
	//hxlint:state ephemeral — adapter cache over the actor table
	adapted map[Actor]int32

	// TraceExec, when non-nil, observes every executed (live) event as
	// (time, seq) immediately before its callback runs. It exists for the
	// golden-trace regression test, which folds the exact execution order
	// into a pinned hash; production runs leave it nil.
	//hxlint:state ephemeral — observer hook, rebound by the caller after restore if wanted
	TraceExec func(at Time, seq uint64)
}

// NewKernel returns an empty kernel at time zero.
func NewKernel() *Kernel {
	return &Kernel{cals: []calendar{newCalendar(0, 1, false)}}
}

// Register adds act to the actor table under n consecutive ids and
// returns the first: an event scheduled for first+i runs act.Act. A model
// registers its actors once, at build time, in a fixed order, so the same
// build gives the same ids (snapshots store them as they are). On a split
// kernel each new id's shard is asked of act at once (Sharded.ShardOf(i));
// an actor that does not implement Sharded may register, but an event for
// it is refused (At panics). Never register inside a sharded window: the
// stages read the id table they had when it opened.
func (k *Kernel) Register(act Actor, n int) int32 {
	return buildRegistration(k, act, n)
}

// buildRegistration does Register's growth by amortized append;
// allocation lives here, off the simulation steady-state path.
func buildRegistration(k *Kernel, act Actor, n int) int32 {
	first := int32(len(k.acts))
	k.firsts = append(k.firsts, first)
	for i := 0; i < n; i++ {
		k.acts = append(k.acts, act)
		if k.owner != nil {
			k.owner = append(k.owner, shardOf(act, i))
		}
	}
	return first
}

// shardOf asks act for the shard of its i-th id: -1 when it does not
// implement Sharded.
func shardOf(act Actor, i int) int32 {
	s, ok := act.(Sharded)
	if !ok {
		return -1
	}
	return int32(s.ShardOf(i))
}

// Actor returns the actor registered under id.
func (k *Kernel) Actor(id int32) Actor { return k.acts[id] }

// Actors returns how many ids have been registered.
func (k *Kernel) Actors() int { return len(k.acts) }

// UseHugePages backs the chunk slabs the calendars allocate from now on
// with huge pages (AdviseHuge), and so do the calendars SetCalendars
// builds. A model calls it at build time, before Reserve, once its state
// reaches a huge page; below that the advice costs more than it saves,
// and nothing else changes: event order does not depend on it.
func (k *Kernel) UseHugePages() {
	for i := range k.cals {
		k.cals[i].huge = true
	}
}

// Calendars returns the number of execution contexts the queue is split
// into: 1, or the shard count given to SetCalendars. Inboxes are not
// counted.
func (k *Kernel) Calendars() int { return (len(k.cals) + 1) / 2 }

// inbox returns shard s's inbox, or nil on a single-calendar kernel,
// which has no cross-shard traffic to receive.
func (k *Kernel) inbox(s int) *calendar {
	if len(k.cals) == 1 {
		return nil
	}
	return &k.cals[len(k.cals)/2+s]
}

// Now returns the current simulation time.
func (k *Kernel) Now() Time { return k.now }

// Executed returns the total number of events executed so far. Useful for
// progress assertions in deadlock tests.
func (k *Kernel) Executed() uint64 { return k.nexec }

// Pending returns the number of events currently queued (expired events
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
	if c.huge {
		AdviseHuge(slab)
	}
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

// recycle returns a chunk that holds no pending event to the free list.
// Its slots keep their contents until a later schedule claims it.
func (c *calendar) recycle(ch *chunk) {
	ch.next = c.chunks
	c.chunks = ch
}

// slot claims the calendar slot for a new event at time t — the tail of
// its ring bucket, or a pooled struct on the far heap — and stamps its
// seq (and a far struct's time). The caller fills in the callback.
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
		e.seq, e.flags = seq, 0
		return e
	}
	fe := takeEvent(&c.free)
	fe.at, fe.seq, fe.flags = t, seq, evPooled
	c.far.push(fe)
	return &fe.Event
}

// eventChunk is how many timedEvent structs one pool refill allocates (a
// calendar's far pool and each Stage's staging pool).
const eventChunk = 256

// stockEvents adds one slab of eventChunk structs to a pool of
// individually held events.
func stockEvents(free []*timedEvent) []*timedEvent {
	//hxlint:allow allocfree — chunked pool refill: one slab per eventChunk structs, amortizing to zero at the pool's high-water mark
	slab := make([]timedEvent, eventChunk)
	for i := range slab {
		free = append(free, &slab[i])
	}
	return free
}

// takeEvent pops a struct from such a pool, restocking it when empty: the
// pool grows to its owner's high-water mark and then recycles in place.
func takeEvent(free *[]*timedEvent) *timedEvent {
	f := *free
	if len(f) == 0 {
		f = stockEvents(f)
	}
	e := f[len(f)-1]
	*free = f[:len(f)-1]
	return e
}

// putEvent returns a struct taken with takeEvent to its pool. Its flags
// are left for the next taker to overwrite; it holds no reference.
func putEvent(free *[]*timedEvent, e *timedEvent) {
	//hxlint:allow allocfree — returns capacity the pool already handed out; never exceeds the refill high-water mark
	*free = append(*free, e)
}

// At schedules an event: at time t the kernel calls Act(op, a, b, c, nil)
// on the actor registered under id, unless op is marked OpExpires and the
// actor reports the event expired by then (Expirer). Scheduling in the
// past panics: it always indicates a model bug. On a multi-calendar
// kernel the event goes to its id's shard's calendar, and an id whose
// actor does not implement Sharded panics.
func (k *Kernel) At(t Time, id int32, op uint8, a, b, c int32) {
	if t < k.now {
		panic("sim: event scheduled in the past")
	}
	cal := &k.cals[0]
	if len(k.cals) > 1 {
		var err error
		if cal, err = k.calendarOf(t, id); err != nil {
			panic(err)
		}
	}
	e := cal.slot(t, k.seq)
	k.seq++
	e.set(id, op, a, b, c)
}

// After schedules an event d cycles from now.
func (k *Kernel) After(d Time, id int32, op uint8, a, b, c int32) {
	k.At(k.now+d, id, op, a, b, c)
}

// AtAct is At for a caller that holds an Actor value instead of an id:
// the actor is registered under one id the first time it is seen (on a
// split kernel, as its shard 0's). The last actor's id is cached, so a
// caller scheduling for one actor pays one comparison. act must be of a
// comparable type, and p must be nil: an event carries no payload.
func (k *Kernel) AtAct(t Time, act Actor, op uint8, a, b, c int32, p any) {
	if p != nil {
		panic(fmt.Sprintf("sim: AtAct with a %T payload: events carry none; pass an index in a, b or c", p))
	}
	if act != k.last {
		k.last, k.lastID = act, k.idOf(act)
	}
	k.At(t, k.lastID, op, a, b, c)
}

// AfterAct is AtAct d cycles from now.
func (k *Kernel) AfterAct(d Time, act Actor, op uint8, a, b, c int32, p any) {
	k.AtAct(k.now+d, act, op, a, b, c, p)
}

// idOf returns the id AtAct registered act under, registering it on
// first sight.
func (k *Kernel) idOf(act Actor) int32 {
	if id, ok := k.adapted[act]; ok {
		return id
	}
	return buildAdapted(k, act)
}

// buildAdapted registers an actor first seen by AtAct.
func buildAdapted(k *Kernel, act Actor) int32 {
	if k.adapted == nil {
		k.adapted = make(map[Actor]int32)
	}
	id := k.Register(act, 1)
	k.adapted[act] = id
	return id
}

// calendarOf returns the calendar an event at time t for id belongs to on
// a multi-calendar kernel: its shard's, or none (notSharded).
func (k *Kernel) calendarOf(t Time, id int32) (*calendar, error) {
	s := k.owner[id]
	if s < 0 {
		return nil, notSharded(t, k.acts[id])
	}
	return &k.cals[s], nil
}

// notSharded reports an event at time t that no calendar of a split
// kernel can take, because its actor does not implement Sharded: a
// model bug.
func notSharded(t Time, act Actor) error {
	return fmt.Errorf("sim: event at t=%d: actor %T does not implement sim.Sharded", t, act)
}

// expired reports whether an event for actor id has expired: only an
// OpExpires op can, and its actor says (Expirer).
func (k *Kernel) expired(id int32, op uint8, a, b, c int32) bool {
	return op&OpExpires != 0 && k.ask(id, op, a, b, c)
}

// ask puts expired's question to the actor, which must be an Expirer. It
// is apart so that expired, which every pop calls, stays inlinable.
func (k *Kernel) ask(id int32, op uint8, a, b, c int32) bool {
	x, ok := k.acts[id].(Expirer)
	if !ok {
		panic(fmt.Sprintf("sim: op %#x event for actor %T, which does not implement sim.Expirer", op, k.acts[id]))
	}
	return x.Expired(op, a, b, c)
}

// peek returns the calendar's earliest queued event (live or expired)
// and its time without removing it, or a nil event when the calendar is
// empty. As a side effect it slides the window toward the event's time,
// so the subsequent pop is O(1) — but never past limit, the earliest time
// an event may still be scheduled into this calendar (see slide).
func (c *calendar) peek(limit Time) (*Event, Time) {
	if c.nring > 0 {
		s := c.winStart
		b := &c.ring[int(s)&ringMask]
		for b.head == nil {
			s++
			b = &c.ring[int(s)&ringMask]
		}
		e := &b.head.ev[b.hi]
		if len(c.far.h) == 0 || !c.far.h[0].before(s, e.seq) {
			c.slide(s, limit)
			return e, s
		}
	} else if len(c.far.h) == 0 {
		return nil, 0
	}
	fe := c.far.h[0]
	c.slide(fe.at, limit)
	return &fe.Event, fe.at
}

// slide moves the window start to t, capped at limit. The window never
// moves backward, and never past a far event or the calendar's own head
// (callers pass at most that).
func (c *calendar) slide(t, limit Time) {
	t = min(t, limit)
	if t > c.winStart {
		c.winStart = t
	}
}

// popPeeked removes e, the event at time at that peek just returned, from
// its tier. A ring chunk the removal exhausts goes back to the free list
// at once (recycle), so the caller reads e before it schedules anything.
// A far event's struct is returned for the caller to recycle (unpool)
// once it has read the event; a ring slot needs nothing and returns nil.
func (c *calendar) popPeeked(e *Event, at Time) *timedEvent {
	c.npend--
	if e.flags&evPooled != 0 {
		return c.far.pop()
	}
	c.advance(&c.ring[int(at)&ringMask])
	return nil
}

// advance consumes the head slot of ring bucket b.
func (c *calendar) advance(b *bucket) {
	b.hi++
	if b.head == b.tail {
		if b.hi == b.ti {
			c.recycle(b.head)
			*b = bucket{}
		}
	} else if b.hi == chunkCap {
		// Head consumed with more chunks behind it: the bucket is not
		// empty, whatever hi says.
		ch := b.head
		b.head, b.hi = ch.next, 0
		c.recycle(ch)
	}
	c.nring--
}

// unpool hands a popped far struct back to its pool — before its
// callback, so the callback reschedules from a warm pool.
func (c *calendar) unpool(fe *timedEvent) {
	if fe != nil {
		putEvent(&c.free, fe)
	}
}

// each calls fn for every queued event of the calendar and its time, live
// or expired, in no particular order.
func (c *calendar) each(fn func(*Event, Time)) {
	for i := range c.ring {
		b := &c.ring[i]
		at := c.ringTime(i)
		lo := int(b.hi)
		for ch := b.head; ch != nil; ch = ch.next {
			hi := chunkCap
			if ch == b.tail {
				hi = int(b.ti)
			}
			for j := lo; j < hi; j++ {
				fn(&ch.ev[j], at)
			}
			lo = 0
		}
	}
	for _, fe := range c.far.h {
		fn(&fe.Event, fe.at)
	}
}

// peekAll returns the kernel's earliest queued event, its time and its
// calendar, or a nil event when the queue is empty: the (time, seq)
// minimum over every calendar's head. Each calendar's window then slides
// up to that minimum's time and no further — every later schedule,
// whichever calendar it targets, lands at or after it.
func (k *Kernel) peekAll() (*calendar, *Event, Time) {
	var bc *calendar
	var best *Event
	var bestAt Time
	for i := range k.cals {
		c := &k.cals[i]
		if e, at := c.peek(c.winStart); e != nil && (best == nil || at < bestAt || (at == bestAt && e.seq < best.seq)) {
			bc, best, bestAt = c, e, at
		}
	}
	if best != nil {
		for i := range k.cals {
			k.cals[i].slide(bestAt, bestAt)
		}
	}
	return bc, best, bestAt
}

// peek returns the kernel's earliest queued event, its time and its
// calendar, or a nil event when the queue is empty: the calendar's own
// head on a single-calendar kernel, peekAll's minimum otherwise.
func (k *Kernel) peek() (*calendar, *Event, Time) {
	if len(k.cals) == 1 {
		c := &k.cals[0]
		e, at := c.peek(maxTime)
		return c, e, at
	}
	return k.peekAll()
}

// Step executes the next pending event. It returns false when the queue is
// empty.
func (k *Kernel) Step() bool {
	n := k.nexec
	k.run(context.Background(), 0, true)
	return k.nexec != n
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
	return k.run(ctx, until, false)
}

// run is the kernel's one pop loop, behind RunCtx and Step (step: return
// after the first live event). Each turn reads the earliest event (peek),
// checks the until-boundary, pops it and, unless it has expired,
// dispatches it through the actor table. Expired events chain straight
// to the next pop without rechecking the boundary — the historical
// Step-loop behaviour the golden trace pins.
func (k *Kernel) run(ctx context.Context, until Time, step bool) (Time, error) {
	n := 0
	chain := false // the last pop had expired: the next one skips the boundary check
	for {
		c, e, at := k.peek()
		if e == nil {
			break
		}
		if !chain && until > 0 && at > until {
			k.now = until
			break
		}
		// Read the event before anything is scheduled: its slot is free
		// once popped. A far struct goes back to the pool first, so the
		// callback reschedules from a warm pool.
		fe := c.popPeeked(e, at)
		seq, id, op, a, b, cc := e.seq, e.act, e.op, e.a, e.b, e.c
		c.unpool(fe)
		if chain = k.expired(id, op, a, b, cc); chain {
			continue
		}
		k.now = at
		k.nexec++
		if k.TraceExec != nil {
			k.TraceExec(at, seq)
		}
		k.acts[id].Act(op, a, b, cc, nil)
		if step {
			break
		}
		if n++; n >= pollEvery {
			n = 0
			//hxlint:allow noconc — cooperative cancellation poll, the kernel's one sanctioned channel op: it only adds an exit point, so an interrupted run executes a strict prefix of the serial schedule and event order never depends on the scheduler
			select {
			case <-ctx.Done():
				return k.now, ctx.Err()
			default:
			}
		}
	}
	return k.now, nil
}

// SetCalendars re-splits the queue into n calendars, one per shard, plus
// an empty inbox per shard for n > 1: each registered id's shard is asked
// of its actor (Sharded.ShardOf), and each pending event, live or
// expired, moves to its id's shard's calendar; n = 1 merges them back
// into one. For n > 1 a pending event whose actor does not implement
// Sharded panics, with the actor's type and the event's time, before
// anything moves. The clock, the sequence counter and every event's
// (time, seq) stay as they are, so the execution order does not change.
// The chunk and struct pools are dealt out across the new calendars.
// Call it between runs, never inside a window.
func (k *Kernel) SetCalendars(n int) {
	if n < 1 {
		panic("sim: SetCalendars needs at least one calendar")
	}
	buildCalendars(k, n)
}

// pending is a queued event and its time, as buildCalendars and the
// snapshot collect them.
type pending struct {
	e  *Event
	at Time
}

// collect appends every queued event of every calendar, live or expired,
// sorted by (time, seq).
func (k *Kernel) collect(out []pending) []pending {
	for i := range k.cals {
		k.cals[i].each(func(e *Event, at Time) { out = append(out, pending{e, at}) })
	}
	// slices.SortFunc swaps the pairs by type: sort.Slice's reflective
	// swap of them made a paper-scale snapshot about 1.5× slower.
	slices.SortFunc(out, func(a, b pending) int {
		if c := cmp.Compare(a.at, b.at); c != 0 {
			return c
		}
		return cmp.Compare(a.e.seq, b.e.seq)
	})
	return out
}

// buildCalendars does SetCalendars' move; allocation lives here, off the
// simulation steady-state path.
func buildCalendars(k *Kernel, n int) {
	var owner []int32
	if n > 1 {
		owner = make([]int32, len(k.acts))
		for b, first := range k.firsts {
			end := int32(len(k.acts))
			if b+1 < len(k.firsts) {
				end = k.firsts[b+1]
			}
			for id := first; id < end; id++ {
				owner[id] = shardOf(k.acts[id], int(id-first))
			}
		}
	}
	old := k.collect(nil)
	for _, p := range old {
		if owner != nil && owner[p.e.act] < 0 {
			panic(notSharded(p.at, k.acts[p.e.act]))
		}
	}
	win := k.cals[0].winStart
	var spareCh, usedCh []*chunk
	var spareEv, usedEv []*timedEvent
	for i := range k.cals {
		c := &k.cals[i]
		win = min(win, c.winStart)
		for ch := c.chunks; ch != nil; ch = ch.next {
			spareCh = append(spareCh, ch)
		}
		for j := range c.ring {
			for ch := c.ring[j].head; ch != nil; ch = ch.next {
				usedCh = append(usedCh, ch)
			}
		}
		spareEv = append(spareEv, c.free...)
		usedEv = append(usedEv, c.far.h...)
	}

	m := n
	if n > 1 {
		m = 2 * n
	}
	cals := make([]calendar, m)
	for i := range cals {
		cals[i] = newCalendar(win, n, k.cals[0].huge)
	}
	deal := func(chs []*chunk, evs []*timedEvent) {
		for i, ch := range chs {
			c := &cals[i%m]
			ch.next = c.chunks
			c.chunks = ch
		}
		for i, e := range evs {
			putEvent(&cals[i%m].free, e)
		}
	}
	// Placing into chunks and structs that held no pending event keeps
	// every old slot intact until its event has moved.
	deal(spareCh, spareEv)
	k.cals, k.owner = cals, owner
	for _, p := range old {
		e := p.e
		c := &k.cals[0]
		if n > 1 {
			c, _ = k.calendarOf(p.at, e.act)
		}
		c.slot(p.at, e.seq).set(e.act, e.op, e.a, e.b, e.c)
	}
	deal(usedCh, usedEv)
}

// farHeap is a hand-rolled binary min-heap over (at, seq) for events
// beyond the calendar window. Hand-rolled rather than container/heap to
// keep pops free of interface dispatch.
type farHeap struct {
	h []*timedEvent
}

func (f *farHeap) push(e *timedEvent) {
	//hxlint:allow allocfree — the far heap holds the rare beyond-window tail and keeps its high-water capacity across pushes
	f.h = append(f.h, e)
	i := len(f.h) - 1
	for i > 0 {
		parent := (i - 1) / 2
		if !e.before(f.h[parent].at, f.h[parent].seq) {
			break
		}
		f.h[i], f.h[parent] = f.h[parent], f.h[i]
		i = parent
	}
}

func (f *farHeap) pop() *timedEvent {
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
		if l < n && f.h[l].before(f.h[small].at, f.h[small].seq) {
			small = l
		}
		if r < n && f.h[r].before(f.h[small].at, f.h[small].seq) {
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
