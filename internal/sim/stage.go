// Sharded-execution support: the kernel-side half of the barrier-
// synchronized parallel executor (internal/shard).
//
// The executor runs one simulation on several cores while keeping the
// executed event sequence bit-identical to a serial run. The contract
// that makes this possible is split between this file and the model
// (internal/network):
//
//   - DrainWindow pops every event scheduled before a window boundary in
//     (time, seq) order — exactly the set and order a serial Run would
//     execute before the clock reaches the boundary.
//   - Each shard executes its slice of the window through a Stage, which
//     records schedule calls (AtAct) in program order WITHOUT
//     assigning kernel sequence numbers, into structs from a private
//     pool, so the parallel phase never touches the kernel's calendar. A
//     schedule call landing inside the window stays on the shard — the
//     window width is capped at the minimum cross-shard latency, so such
//     an event is same-shard by construction (AtAct asserts it) — and
//     RunWindow executes it locally, interleaved with the drained batch
//     in serial order: at equal times drained events run first (their
//     serial seqs predate every staged seq), and staged events run in
//     staging order (their eventual seqs are assigned in exactly that
//     order by the merge's replay).
//   - After the barrier, the coordinator replays the staged schedule
//     calls in global (executing-event seq, program order) order through
//     InjectStaged, which assigns k.seq exactly as the serial kernel
//     would have: serial seq assignment is a pure function of execution
//     order and per-callback program order, both of which the replay
//     reproduces. InjectStaged copies the staged event into its calendar
//     slot and reports the slot's address, which supersedes the staged
//     handle (Rebinder); the staged struct returns to its stage's pool
//     when the merge ends. Staged events already executed inside the
//     window (done) consume their seq but never enter the calendar.
//
// Within one callback the serial kernel interleaves schedule calls with
// model side effects; the replay performs all of an event's schedule
// calls as a block instead. The interleaving is unobservable: sequence
// numbers are never exposed to model code, and side effects (counters,
// observer callbacks) are themselves replayed in the same per-event
// order by the network's effect log.
package sim

// Sharded is implemented by actors whose events can be assigned to a
// shard: the returned index must identify the single shard whose state
// the event's callback touches. Every actor scheduled into a sharded run
// must implement it; the executor fails the run on one that does not.
type Sharded interface {
	Actor
	ShardOf(op uint8, a, b, c int32, p any) int
}

// At returns the event's scheduled time. Valid, like the handle itself,
// until the event is popped; for a drained event until the next
// DrainWindow.
func (e *Event) At() Time { return e.at }

// Seq returns the event's sequence number (the FIFO tie-break rank).
func (e *Event) Seq() uint64 { return e.seq }

// Actor returns the event's receiver, for the executor's error report on
// an event that cannot be sharded.
func (e *Event) Actor() Actor { return e.act }

// Payload returns the event's payload argument, for a Rebinder to find
// the model object that holds the event's handle.
func (e *Event) Payload() any { return e.p }

// Shard returns the shard index of a drained event, or ok=false when its
// actor does not implement Sharded — a model bug the executor reports.
func (e *Event) Shard() (int, bool) {
	s, ok := e.act.(Sharded)
	if !ok {
		return 0, false
	}
	return s.ShardOf(e.op, e.a, e.b, e.c, e.p), true
}

// PeekTime returns the timestamp of the earliest queued event. ok=false
// means the queue is empty. Like Run's peek, it slides the calendar
// window so the subsequent DrainWindow pops in O(1).
func (k *Kernel) PeekTime() (Time, bool) {
	e := k.peek()
	if e == nil {
		return 0, false
	}
	return e.at, true
}

// DrainWindow removes and returns every event queued before winEnd, in
// (time, seq) order (dead events included — the caller skips or executes
// them). The returned handles address the events where they sat in the
// calendar: they stay valid, cancellable and unmoved until the next
// DrainWindow, which is when the chunks and far/late structs this one
// consumed are released — a window's merge is long over by then. It does
// NOT touch the clock: a window can contain only dead events, for which
// the serial loop would never have advanced now; the merge advances the
// clock per live event instead. It reuses buf's backing array; an empty
// window returns buf[:0].
func (k *Kernel) DrainWindow(winEnd Time, buf []*Event) []*Event {
	k.release()
	for _, e := range k.heldEv {
		k.recycle(e)
	}
	k.heldEv = k.heldEv[:0]
	buf = buf[:0]
	for {
		e := k.peek()
		if e == nil || e.at >= winEnd {
			return buf
		}
		k.take(e)
		if e.flags&evPooled != 0 {
			//hxlint:allow allocfree — grows to the per-window high-water count of far/late events and is reset every drain
			k.heldEv = append(k.heldEv, e)
		}
		buf = append(buf, e)
	}
}

// SetNow forces the clock, mirroring Run's until-boundary behaviour
// (k.now = until), including the historical quirk that the boundary can
// rewind the clock below an already-executed event's time.
func (k *Kernel) SetNow(t Time) { k.now = t }

// AddExecuted credits n executed events to the kernel's counter on
// behalf of the sharded executor (shards run callbacks off-kernel; the
// merge accounts for them).
func (k *Kernel) AddExecuted(n uint64) { k.nexec += n }

// InjectStaged copies a Stage-created event into the calendar, assigning
// the next kernel sequence number, and returns the copy's address: from
// here on that is the event's one Cancel handle, and a model holding the
// staged handle must repoint it before anything can cancel again (the
// merge does, through Rebinder). Called by the coordinator during the
// merge, in the exact order the serial kernel would have assigned
// sequence numbers; staged events that were cancelled in the meantime
// are enqueued dead — they consume a seq, as the serial schedule did.
// Events already executed (or popped dead) inside the window on their
// own shard consume their seq here too, but never enter the calendar:
// the result is nil. The staged struct itself, seq stamped, stays with
// its stage until ResetOps.
func (k *Kernel) InjectStaged(e *Event) *Event {
	e.seq = k.seq
	k.seq++
	if e.flags&evDone != 0 {
		return nil
	}
	s := k.slot(e.at, e.seq)
	s.flags |= e.flags & evDead
	s.act = e.act
	s.op = e.op
	s.a, s.b, s.c = e.a, e.b, e.c
	s.p = e.p
	return s
}

// Rebinder is told where each staged event landed in the calendar, so the
// model can repoint a Cancel handle it kept from Stage.AtAct — the same
// rewiring Restore's restored callback does. Called once per staged event
// that outlives its window, at the merge.
type Rebinder interface {
	Rebind(staged, placed *Event)
}

// Stage is one shard's private scheduling context during the parallel
// phase of a window: it collects the shard's schedule calls in program
// order, holds the in-window portion of them on a pending heap for local
// execution, and owns a private pool of staging structs — self-contained:
// the calendar takes copies, so every struct comes back at ResetOps — so
// shards share no mutable kernel state. Create one per shard with
// NewStage; the coordinator opens each parallel phase with StartWindow.
type Stage struct {
	now    Time
	idx    int  // this stage's shard index, for the in-window ownership assertion
	winEnd Time // current window's exclusive end; schedules before it stay local
	free   []*Event
	ops    []*Event // staged schedule calls, program order
	pend   farHeap  // in-window staged events, keyed (at, staging rank)

	// Tail of the last RunWindow: the (time, seq)-maximal processed
	// event, live or dead, for the executor's until-overshoot quirk. A
	// staged tail keeps its handle (its kernel seq is assigned only at
	// the merge's replay); a drained tail's stamps are copied out.
	tailEv   *Event
	tailAt   Time
	tailSeq  uint64
	tailDead bool
	hasTail  bool
}

// NewStage returns an empty stage for shard idx, pre-stocked with one
// slab of staging structs. Steady state never restocks: the pool only has
// to cover one window's staging.
func NewStage(idx int) *Stage {
	return &Stage{idx: idx, free: stockEvents(make([]*Event, 0, eventChunk))}
}

// StartWindow opens a parallel phase covering [now, winEnd): schedule
// calls landing before winEnd stay on this stage's pending heap and
// execute locally inside RunWindow instead of round-tripping through the
// calendar. It also clears the previous window's tail; the stage clock
// advances per executed event inside RunWindow.
func (st *Stage) StartWindow(winEnd Time) {
	st.winEnd = winEnd
	st.hasTail = false
	st.tailEv = nil
}

// Now returns the stage's clock: the time of the event currently
// executing on this shard.
func (st *Stage) Now() Time { return st.now }

// alloc takes an event from the stage pool and stamps its time. The seq
// stays unassigned until the merge injects the event (AtAct reuses the
// field for the staging rank in the meantime).
func (st *Stage) alloc(t Time) *Event {
	if t < st.now {
		panic("sim: event scheduled in the past")
	}
	e := takeEvent(&st.free)
	e.at = t
	// Queued from the moment of staging so Kernel.Cancel works on a staged
	// handle exactly as on an enqueued one (same-cycle cancels of reroute
	// timers are same-shard and therefore race-free).
	e.flags = evQueued
	return e
}

// AtAct stages a typed event for absolute time t and returns its handle,
// which supports Kernel.Cancel like a directly scheduled event until the
// window's merge; there an event that outlives the window gets its
// calendar handle, reported once through Rebinder. An event
// landing inside the current window additionally joins the stage's
// pending heap for local execution; the window width is capped at the
// minimum cross-shard latency (see internal/shard), so such an event is
// same-shard by construction — scheduling a cross-shard event inside the
// window is a model ownership bug, and the assertion here is what keeps
// the window determinism argument mechanized rather than hoped-for.
func (st *Stage) AtAct(t Time, act Actor, op uint8, a, b, c int32, p any) *Event {
	e := st.alloc(t)
	e.act = act
	e.op = op
	e.a, e.b, e.c = a, b, c
	e.p = p
	// Staging rank: position in this stage's ops log. The pending heap
	// orders equal-time events by it, which equals their eventual kernel
	// seq order (the merge's replay walks this shard's records in the
	// same order RunWindow processed them, and each record's ops in
	// program order). InjectStaged overwrites it with the real seq.
	e.seq = uint64(len(st.ops))
	//hxlint:allow allocfree — the staged-ops list grows to the shard's per-window high-water schedule count and is reset (not reallocated) every merge
	st.ops = append(st.ops, e)
	if t < st.winEnd {
		if s, ok := act.(Sharded); !ok || s.ShardOf(op, a, b, c, p) != st.idx {
			panic("sim: cross-shard event staged inside the execution window")
		}
		st.pend.push(e)
	}
	return e
}

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
// order. For a drained event, seq is its kernel sequence number and ev
// is nil. For a staged event executed in-window, seq is zero and ev is
// the handle — its kernel seq is assigned during the merge's replay,
// strictly before the merge consumes the record (the staging record
// precedes it in the same shard's stream).
type Recorder interface {
	Record(at Time, seq uint64, ev *Event)
}

// RunWindow executes this shard's slice of a window: the drained batch
// (already in (time, seq) order) interleaved with events the callbacks
// stage inside the window, in exactly the serial kernel's order — by
// time; at equal times drained before staged (every drained seq predates
// every staged seq, which the merge assigns from a later counter value);
// among staged, by staging rank (equal to eventual seq order, see AtAct).
// Dead events are skipped without a record, as the serial pop-dead loop
// skips them; deadness is read here, at processing time, so a
// same-window cancel from an earlier event lands exactly as it would
// serially. Each processed event, live or dead, updates the tail.
func (st *Stage) RunWindow(batch []*Event, rec Recorder) {
	i := 0
	for {
		var e *Event
		staged := false
		switch {
		case i < len(batch):
			e = batch[i]
			if len(st.pend.h) > 0 && st.pend.h[0].at < e.at {
				e = st.pend.h[0]
				staged = true
			}
		case len(st.pend.h) > 0:
			e = st.pend.h[0]
			staged = true
		default:
			return
		}
		if staged {
			st.pend.pop()
		} else {
			i++
		}
		dead := e.flags&evDead != 0
		st.tailAt = e.at
		st.tailDead = dead
		st.hasTail = true
		if staged {
			st.tailEv = e
			if dead {
				// Never runs, but consumes its seq at the merge's replay,
				// as the serial schedule did; ResetOps recycles it.
				e.flags = evDone | evDead
				continue
			}
			// Done and no longer queued before the callback, mirroring the
			// serial pop-then-exec: a Cancel from here on is a no-op. The
			// struct is not recycled yet — the ops log, the shard's effect
			// records, and the tail reference it until the merge.
			st.now = e.at
			e.flags = evDone
			e.act.Act(e.op, e.a, e.b, e.c, e.p)
			rec.Record(e.at, 0, e)
		} else {
			st.tailEv = nil
			st.tailSeq = e.seq
			if dead {
				continue
			}
			// Executed in place, and no longer cancellable: the flags write
			// touches this event's own cache line only. The kernel releases
			// the slot at the next drain; clock advance, counting, and
			// tracing are the merge's job.
			st.now = e.at
			e.flags &^= evQueued
			e.act.Act(e.op, e.a, e.b, e.c, e.p)
			rec.Record(e.at, e.seq, nil)
		}
	}
}

// Tail returns the (time, seq) of the last event this shard processed in
// its window — live or dead — and whether it was dead. The executor
// needs the global (time, seq)-maximal tail across shards for the
// serial until-overshoot quirk. Call after the merge's ops replay (a
// staged tail's seq is assigned there) and before ResetOps (which
// recycles the staged structs).
func (st *Stage) Tail() (at Time, seq uint64, dead, ok bool) {
	if !st.hasTail {
		return 0, 0, false, false
	}
	if st.tailEv != nil {
		return st.tailAt, st.tailEv.seq, st.tailDead, true
	}
	return st.tailAt, st.tailSeq, st.tailDead, true
}

// StagedLen returns how many schedule calls have been staged this cycle;
// the shard records it per executed event to delimit each event's ops.
func (st *Stage) StagedLen() int { return len(st.ops) }

// ReplayOps injects staged ops [i, j) into the kernel in program order,
// assigning their sequence numbers, and reports each one that entered
// the calendar to rb. Coordinator-only.
func (st *Stage) ReplayOps(k *Kernel, i, j int, rb Rebinder) {
	for _, e := range st.ops[i:j] {
		if placed := k.InjectStaged(e); placed != nil {
			rb.Rebind(e, placed)
		}
	}
}

// ResetOps clears the staged-ops list after a merge and returns every
// staged struct to the stage pool: the calendar holds copies of the ones
// that live on, and the merge has finished reading the seqs of the ones
// executed in-window. The backing array is reused next window.
func (st *Stage) ResetOps() {
	for _, e := range st.ops {
		st.recycle(e)
	}
	st.ops = st.ops[:0]
}
