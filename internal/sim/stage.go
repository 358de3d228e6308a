// Sharded-execution support: the kernel-side half of the barrier-
// synchronized parallel executor (internal/shard).
//
// The executor runs one simulation on several cores while keeping the
// executed event sequence bit-identical to a serial run. The kernel holds
// one calendar per shard (SetCalendars), and a window [t, winEnd) runs in
// three steps; the contract that makes them serial-equivalent is split
// between this file and the model (internal/network):
//
//   - Parallel: each shard runs its window through its Stage
//     (RunWindow), which is the serial pop loop over the shard's own
//     calendar up to winEnd: exactly the events, in exactly the
//     (time, seq) order, a serial Run would execute from that calendar
//     before the clock reaches the boundary, each executed as it is
//     popped. The Stage records schedule calls (AtAct) in program order
//     WITHOUT assigning kernel sequence numbers. A schedule call landing
//     inside the window goes straight into the shard's own calendar — the
//     window width is capped at the minimum cross-shard latency, so such
//     an event is same-shard by construction (AtAct asserts it) — under a
//     tagged seq, stagedSeq|rank, where rank is the call's position in
//     the stage's log. No kernel seq reaches the tag bit, so a tagged
//     event sorts after every event the calendar held at window start
//     (their serial seqs predate every staged seq), and tagged events
//     sort among themselves by rank, the order the merge stamps their
//     seqs in: each bucket, the far heap and the late list stay
//     (time, seq)-ordered with no extra code, and RunWindow pops them
//     where the serial loop would have run them. Every tagged event lies
//     before winEnd, so RunWindow pops it before it returns: no caller
//     outside a window ever sees a tagged seq. Any other schedule call
//     goes into a struct from a private pool, so this phase writes no
//     calendar but the shard's own.
//   - Serial: the coordinator walks the executed events in global
//     (time, seq) order and Stamps each one's staged schedule calls with
//     the next kernel seqs, exactly as the serial kernel would have:
//     serial seq assignment is a pure function of execution order and
//     per-callback program order, both of which the walk reproduces.
//     Stamping appends to a compact per-stage list the coordinator alone
//     writes; the staged events themselves stay untouched. Schedule calls
//     already executed inside the window consume their seq too.
//   - Parallel: each shard Places the out-of-window staged events that
//     target it — from every stage, merged in seq order — into its own
//     calendar. A handle the model keeps (Stage.Keep) is superseded by
//     the placed copy's address, reported through Rebinder. The staged
//     structs return to their stage's pool when the stage opens its next
//     window.
//
// Outside a window every pending event sits in some calendar under its
// kernel seq, so the serial loop, PeekTime and Snapshot always see the
// whole queue. Which calendar an event belongs to is a type requirement
// at the schedule point: Stage.AtAct takes only Sharded actors.
//
// Within one callback the serial kernel interleaves schedule calls with
// model side effects; the merge handles all of an event's schedule calls
// as a block instead. The interleaving is unobservable: sequence numbers
// are never exposed to model code, and side effects (counters, observer
// callbacks) are themselves replayed in the same per-event order by the
// network's effect log.
package sim

// Sharded is implemented by actors whose events can be assigned to a
// shard: the returned index must identify the single shard whose state
// the event's callback touches. Every actor scheduled on a split kernel
// must implement it: Stage.AtAct takes nothing else, and Kernel.AtAct,
// SetCalendars and Restore refuse any other actor once the queue is
// split.
type Sharded interface {
	Actor
	ShardOf(op uint8, a, b, c int32, p any) int
}

// At returns the event's scheduled time. Valid, like the handle itself,
// until the event is popped.
func (e *Event) At() Time { return e.at }

// Payload returns the event's payload argument, for a Rebinder to find
// the model object that holds the event's handle.
func (e *Event) Payload() any { return e.p }

// PeekTime returns the timestamp of the earliest queued event, across
// every calendar. ok=false means the queue is empty. Like Run's peek, it
// slides the calendar windows toward that time.
func (k *Kernel) PeekTime() (Time, bool) {
	_, e := k.peek()
	if e == nil {
		return 0, false
	}
	return e.at, true
}

// SetNow forces the clock, mirroring Run's until-boundary behaviour
// (k.now = until), including the historical quirk that the boundary can
// rewind the clock below an already-executed event's time.
func (k *Kernel) SetNow(t Time) { k.now = t }

// AddExecuted credits n executed events to the kernel's counter on
// behalf of the sharded executor (shards run callbacks off-kernel; the
// merge accounts for them).
func (k *Kernel) AddExecuted(n uint64) { k.nexec += n }

// Rebinder is told where an event landed in its calendar when it moved
// there — a kept staged handle at placement, or any pending event at
// SetCalendars — so the model can repoint a Cancel handle it holds, the
// same rewiring Restore's restored callback does.
type Rebinder interface {
	Rebind(old, placed *Event)
}

// stagedSeq tags the seq of an in-window staged event in its calendar:
// stagedSeq|rank, rank being its position in the stage's ops log. No
// kernel seq reaches the top bit, so a tagged event sorts after every
// event the calendar held at window start, and tagged events among
// themselves in rank order — the order the merge stamps their seqs in.
const stagedSeq = 1 << 63

// Stage is one shard's private scheduling context during the parallel
// phase of a window: it collects the shard's schedule calls in program
// order, puts the in-window ones into the shard's own calendar under a
// tagged seq, and owns a private pool of staging structs for the rest —
// self-contained: the calendars take copies, so every struct comes back
// at ResetOps — so shards share no mutable kernel state. Create one per
// shard with NewStage; the coordinator opens each parallel phase with
// StartWindow.
type Stage struct {
	now    Time
	idx    int       // this stage's shard index, for the in-window ownership assertion
	cal    *calendar // the shard's own calendar, set by StartWindow
	winEnd Time      // current window's exclusive end; schedules before it go into cal
	free   []*Event
	ops    []*Event  // staged schedule calls, program order
	out    [][]int32 // out[t]: indices into ops of the out-of-window events targeting shard t

	// seqs[i] is ops[i]'s kernel seq, appended by the merge (Stamp): the
	// coordinator writes it, placement reads it, the shard never does.
	seqs []uint64

	// Tail of the last RunWindow: the (time, seq)-maximal processed
	// event, live or dead, for the executor's until-overshoot quirk. A
	// staged tail's seq keeps its tag (its kernel seq is assigned only at
	// the merge).
	tailAt   Time
	tailSeq  uint64
	tailDead bool
	hasTail  bool

	// Stages are allocated one after another and belong to different
	// shards: the pad keeps one stage's fields off its neighbour's cache
	// lines.
	_ [64]byte
}

// NewStage returns an empty stage for shard idx of n, pre-stocked with
// one slab of staging structs. Steady state never restocks: the pool only
// has to cover one window's out-of-window staging.
func NewStage(idx, n int) *Stage {
	return &Stage{idx: idx, out: make([][]int32, n), free: stockEvents(make([]*Event, 0, eventChunk))}
}

// StartWindow opens a parallel phase covering [now, winEnd) on k:
// schedule calls landing before winEnd go into this stage's shard's
// calendar, to execute inside RunWindow. It also clears the previous
// window's tail; the stage clock advances per executed event inside
// RunWindow.
func (st *Stage) StartWindow(k *Kernel, winEnd Time) {
	st.cal = &k.cals[st.idx]
	st.winEnd = winEnd
	st.hasTail = false
}

// Now returns the stage's clock: the time of the event currently
// executing on this shard.
func (st *Stage) Now() Time { return st.now }

// AtAct stages a typed event for absolute time t and returns its handle,
// which supports Kernel.Cancel like a directly scheduled event. An event
// landing inside the current window goes into the shard's own calendar
// under a tagged seq (stagedSeq) and runs later in the same RunWindow;
// the window width is capped at the minimum cross-shard latency (see
// internal/shard), so such an event is same-shard by construction —
// scheduling a cross-shard event inside the window is a model ownership
// bug, and the assertion here is what keeps the window determinism
// argument mechanized rather than hoped-for. Any other event is a struct
// from the stage pool, listed for placement by the shard its actor
// names; its handle is valid until the window's placement, and one the
// model keeps past that must be marked with Keep.
func (st *Stage) AtAct(t Time, act Sharded, op uint8, a, b, c int32, p any) *Event {
	if t < st.now {
		panic("sim: event scheduled in the past")
	}
	rank := len(st.ops)
	tgt := act.ShardOf(op, a, b, c, p)
	var e *Event
	if t < st.winEnd {
		if tgt != st.idx {
			panic("sim: cross-shard event staged inside the execution window")
		}
		e = st.cal.slot(t, stagedSeq|uint64(rank))
	} else {
		e = takeEvent(&st.free)
		// Queued from the moment of staging so Kernel.Cancel works on a
		// staged handle exactly as on an enqueued one (same-cycle cancels of
		// reroute timers are same-shard and therefore race-free).
		e.at, e.flags = t, evQueued
		//hxlint:allow allocfree — each per-target placement list grows to its per-window high-water count and is reset (not reallocated) every window
		st.out[tgt] = append(st.out[tgt], int32(rank))
	}
	e.set(act, op, a, b, c, p)
	//hxlint:allow allocfree — the staged-ops list grows to the shard's per-window high-water schedule count and is reset (not reallocated) every window
	st.ops = append(st.ops, e)
	return e
}

// Keep marks a staged handle the model holds on to past the window: when
// placement copies the event into its calendar, it reports the copy's
// address to its Rebinder so the model can repoint the handle. Unmarked
// events are placed without a report; an in-window event is in its
// calendar already, so its mark goes unread.
func (st *Stage) Keep(e *Event) { e.flags |= evKeep }

// recycle returns a staging struct to the stage pool, dropping its
// references.
func (st *Stage) recycle(e *Event) {
	e.flags = 0
	e.act = nil
	e.p = nil
	//hxlint:allow allocfree — returns capacity the pool already handed out; never exceeds the refill high-water mark
	st.free = append(st.free, e)
}

// Recorder observes every live event RunWindow processes, in execution
// order. For an event the calendar held at window start, seq is its
// kernel sequence number and staged is false. For an event staged
// inside the window, seq is its staging rank and staged is true: its
// kernel seq is Seq(rank), assigned by the merge strictly before the
// merge consumes the record (the staging record precedes it in the same
// shard's stream).
type Recorder interface {
	Record(at Time, seq uint64, staged bool)
}

// RunWindow executes this shard's slice of the window: the serial pop
// loop (peek, popPeeked, unpool) over the shard's own calendar, up to
// the window end. The calendar's (time, seq) order is the serial
// kernel's, the events staged inside the window included (see
// stagedSeq). Dead events are skipped without a record, as the serial
// pop-dead loop skips them; deadness is read at pop time, so a
// same-window cancel from an earlier event lands exactly as it would
// serially. Each processed event, live or dead, updates the tail. The
// kernel clock is left alone — a window can hold only dead events, for
// which the serial loop never moves it — and the merge advances it per
// live event instead.
func (st *Stage) RunWindow(k *Kernel, rec Recorder) {
	cal := &k.cals[st.idx]
	for {
		e := cal.peek(st.winEnd)
		if e == nil || e.at >= st.winEnd {
			return
		}
		cal.popPeeked(e)
		at, seq, dead := e.at, e.seq, e.flags&evDead != 0
		st.tailAt, st.tailSeq, st.tailDead, st.hasTail = at, seq, dead, true
		if dead {
			cal.unpool(e)
			continue
		}
		// Counting and tracing are the merge's job.
		st.now = at
		act, op, a, b, c, p := e.act, e.op, e.a, e.b, e.c, e.p
		cal.unpool(e)
		act.Act(op, a, b, c, p)
		rec.Record(at, seq&^stagedSeq, seq&stagedSeq != 0)
	}
}

// Tail returns the (time, seq) of the last event this shard processed in
// its window — live or dead — and whether it was dead. The executor
// needs the global (time, seq)-maximal tail across shards for the
// serial until-overshoot quirk. Call after the merge has stamped this
// stage's ops (a staged tail's seq is assigned there).
func (st *Stage) Tail() (at Time, seq uint64, dead, ok bool) {
	if !st.hasTail {
		return 0, 0, false, false
	}
	if st.tailSeq&stagedSeq != 0 {
		return st.tailAt, st.seqs[st.tailSeq&^stagedSeq], st.tailDead, true
	}
	return st.tailAt, st.tailSeq, st.tailDead, true
}

// StagedLen returns how many schedule calls the stage holds; the shard
// records it per executed event to delimit each event's ops.
func (st *Stage) StagedLen() int { return len(st.ops) }

// Stamp assigns the next kernel sequence numbers to the staged ops not
// yet stamped, up to (excluding) op j, in program order. The merge calls
// it once per executed event, in global execution order — the serial
// kernel's assignment order. It appends to seqs only; the ops stay
// untouched for placement. Coordinator-only.
func (st *Stage) Stamp(k *Kernel, j int) {
	for i := len(st.seqs); i < j; i++ {
		//hxlint:allow allocfree — the seq list grows to the shard's per-window high-water schedule count and is reset (not reallocated) every window
		st.seqs = append(st.seqs, k.seq)
		k.seq++
	}
}

// Seq returns the kernel seq Stamp gave staged op rank.
func (st *Stage) Seq(rank int) uint64 { return st.seqs[rank] }

// ResetOps clears the staged-ops list and returns every out-of-window
// staged struct to the stage pool: the calendars hold copies of the ones
// that live on, and the in-window ones were calendar slots all along.
// Call it when no shard's placement can still read this stage — the
// shard's next window is the natural point. The backing arrays are
// reused.
func (st *Stage) ResetOps() {
	for t, o := range st.out {
		for _, i := range o {
			st.recycle(st.ops[i])
		}
		st.out[t] = o[:0]
	}
	st.ops = st.ops[:0]
	st.seqs = st.seqs[:0]
}

// Place copies into calendar t every staged event of this window that
// targets shard t, from every stage, in kernel-seq order — a merge of the
// stages' per-target lists, each already in seq order, taken a run at a
// time: the source with the smallest next seq places everything below
// the others' next seqs — so each bucket stays a (time, seq) FIFO. A
// cancelled event is placed dead (it holds its seq, as it did serially);
// a kept one is reported to rb with its new address. Called by shard t
// after the merge has stamped every stage: it reads the stages, which no
// one writes until their next window, and writes calendar t and whatever
// rb repoints.
func (k *Kernel) Place(t int, stages []*Stage, rb Rebinder) {
	const none = ^uint64(0) // no kernel seq reaches it
	c := &k.cals[t]
	src := c.sources
	for s, st := range stages {
		src[s] = placeSource{head: none}
		if o := st.out[t]; len(o) > 0 {
			src[s].head = st.seqs[o[0]]
		}
	}
	for {
		pick, first, second := -1, none, none
		for s := range src {
			if h := src[s].head; h < first {
				pick, first, second = s, h, first
			} else if h < second {
				second = h
			}
		}
		if pick < 0 {
			return
		}
		st, o, p := stages[pick], stages[pick].out[t], src[pick].pos
		for ; p < len(o); p++ {
			seq := st.seqs[o[p]]
			if seq > second {
				break
			}
			e := st.ops[o[p]]
			placed := c.slot(e.at, seq)
			placed.set(e.act, e.op, e.a, e.b, e.c, e.p)
			placed.flags |= e.flags & evDead
			if e.flags&evKeep != 0 {
				rb.Rebind(e, placed)
			}
		}
		src[pick].pos, src[pick].head = p, none
		if p < len(o) {
			src[pick].head = st.seqs[o[p]]
		}
	}
}

// placeSource is Place's read position in one stage's list for the
// calendar being filled, and the seq found there.
type placeSource struct {
	pos  int
	head uint64
}
