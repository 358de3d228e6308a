// Sharded-execution support: the kernel-side half of the barrier-
// synchronized parallel executor (internal/shard).
//
// The executor runs one simulation on several cores while keeping the
// executed event sequence bit-identical to a serial run. The kernel holds
// one calendar and one inbox per shard (SetCalendars), and a window
// [t, winEnd) runs in three steps; the contract that makes them
// serial-equivalent is split between this file and the model
// (internal/network):
//
//   - Parallel: each shard runs its window through its Stage
//     (RunWindow), which is the serial pop loop over the shard's own
//     calendar and its inbox up to winEnd: exactly the events, in exactly
//     the (time, seq) order, a serial Run would execute from them before
//     the clock reaches the boundary, each executed as it is popped. The
//     Stage records schedule calls (At) in program order WITHOUT
//     assigning kernel sequence numbers. A schedule call whose event
//     belongs to the stage's own shard, whatever its time, goes straight
//     into the shard's own calendar under a tagged seq, stagedSeq|rank,
//     where rank is the call's position in the stage's log. No kernel
//     seq reaches the tag bit, so a tagged event sorts after every event
//     the calendar held at window start (their serial seqs predate every
//     staged seq), and tagged events sort among themselves by rank, the
//     order the merge stamps their seqs in: each bucket and the far heap
//     stay (time, seq)-ordered with no extra code, and RunWindow pops
//     the in-window ones where the serial loop would have run them. A schedule call for another shard lands at or beyond
//     winEnd — the window width is capped at the minimum cross-shard
//     latency, and At asserts it — and goes into a struct from a
//     private pool, so this phase writes no calendar but the shard's own.
//   - Serial: the coordinator walks the executed events the model
//     recorded (every one that staged a schedule call, at least) in
//     global (time, seq) order and Stamps each one's staged calls with
//     the next kernel seqs, exactly as the serial kernel would have:
//     serial seq assignment is a pure function of execution order and
//     per-callback program order, both of which the walk reproduces.
//     Stamping appends to a compact per-stage list the coordinator alone
//     writes; the staged events themselves stay untouched. Schedule calls
//     already executed inside the window consume their seq too.
//   - Parallel: each shard Places its window. It writes the stamped seq
//     over the tag of each of its own events beyond the window, in place:
//     every stamped seq exceeds every seq the calendar held before, and
//     rank order is stamp order, so the relabel keeps every bucket and
//     heap in order. It then copies the events the other stages
//     staged for it, merged in seq order, into its inbox. The inbox is a
//     calendar of its own because a cross-shard event and an own event
//     of one window can share a timestamp with interleaved seqs: appended
//     to one bucket they would break its FIFO. Nothing is copied into a
//     shard's own calendar. The staged structs return to their stage's
//     pool when the stage opens its next window.
//
// Outside a window every pending event sits in some calendar under its
// kernel seq, so the serial loop, PeekTime and Snapshot always see the
// whole queue. Which calendar an event belongs to is a function of its
// actor id alone, read from the kernel's owner table at the schedule
// point: Stage.At refuses an id whose actor is not Sharded.
//
// Within one callback the serial kernel interleaves schedule calls with
// model side effects; the merge handles all of an event's schedule calls
// as a block instead. The interleaving is unobservable: sequence numbers
// are never exposed to model code, and side effects (counters, observer
// callbacks) are themselves replayed in the same per-event order by the
// network's effect log.
package sim

import "fmt"

// Sharded is implemented by actors whose events can be assigned to a
// shard: ShardOf(i) must name the single shard whose state the callbacks
// of the actor's i-th id touch, i counting from 0 over the ids Register
// gave it. The kernel asks once per id, when the queue splits or when the
// actor registers on a split kernel, so an event's shard is a function of
// its id alone. Every actor scheduled on a split kernel must implement
// it: At, Stage.At, SetCalendars and Restore refuse any other actor's
// events once the queue is split.
type Sharded interface {
	Actor
	ShardOf(i int) int
}

// PeekTime returns the timestamp of the earliest queued event, across
// every calendar. ok=false means the queue is empty. Like Run's peek, it
// slides the calendar windows toward that time.
func (k *Kernel) PeekTime() (Time, bool) {
	_, e, at := k.peek()
	return at, e != nil
}

// SetNow forces the clock, mirroring Run's until-boundary behaviour
// (k.now = until), including the historical quirk that the boundary can
// rewind the clock below an already-executed event's time.
func (k *Kernel) SetNow(t Time) { k.now = t }

// AddExecuted credits n executed events to the kernel's counter on
// behalf of the sharded executor (shards run callbacks off-kernel; the
// merge accounts for them).
func (k *Kernel) AddExecuted(n uint64) { k.nexec += n }

// stagedSeq tags the seq of a same-shard staged event in its calendar:
// stagedSeq|rank, rank being its position in the stage's log. No kernel
// seq reaches the top bit, so a tagged event sorts after every event the
// calendar held at window start, and tagged events among themselves in
// rank order — the order the merge stamps their seqs in. Placement
// replaces the tag of every one still pending with its stamped seq.
const stagedSeq = 1 << 63

// Stage is one shard's private scheduling context during the parallel
// phase of a window: it collects the shard's schedule calls in program
// order, puts the ones for its own shard into the shard's own calendar
// under a tagged seq, and owns a private pool of staging structs for the
// cross-shard rest — self-contained: the inboxes take copies, so every
// struct comes back at ResetOps — so shards share no mutable kernel
// state. Create one per shard with NewStage; the coordinator opens each
// parallel phase with StartWindow.
type Stage struct {
	now    Time
	idx    int       // this stage's shard index
	cal    *calendar // the shard's own calendar, set by StartWindow
	owner  []int32   // the kernel's id -> shard table, set by StartWindow
	winEnd Time      // current window's exclusive end; a cross-shard schedule before it is a model bug
	n      int       // schedule calls staged this window: the next rank
	free   []*timedEvent

	// out[t] lists, in rank order, the window's staged events for shard t
	// at or beyond winEnd: staging structs for placement to copy into t's
	// inbox, and for t = idx the own calendar slots whose tags placement
	// patches.
	out [][]stagedOp

	// seqs[i] is the kernel seq of the schedule call of rank i, appended by
	// the merge (Stamp): the coordinator writes it, placement reads it, the
	// shard never does.
	seqs []uint64

	// Tail of the last RunWindow: the (time, seq)-maximal processed
	// event, live or expired, for the executor's until-overshoot quirk. A
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

// stagedOp is a staged event beyond the window and its staging rank:
// for the stage's own shard the calendar slot, for another shard the
// staging struct.
type stagedOp struct {
	e    *Event
	te   *timedEvent
	rank int
}

// NewStage returns an empty stage for shard idx of n, pre-stocked with
// one slab of staging structs. Steady state never restocks: the pool only
// has to cover one window's cross-shard staging.
func NewStage(idx, n int) *Stage {
	return &Stage{idx: idx, out: make([][]stagedOp, n), free: stockEvents(make([]*timedEvent, 0, eventChunk))}
}

// StartWindow opens a parallel phase covering [now, winEnd) on k:
// schedule calls for this stage's shard go into its calendar, the ones
// landing before winEnd to execute inside RunWindow. It also clears the
// previous window's tail; the stage clock advances per executed event
// inside RunWindow.
func (st *Stage) StartWindow(k *Kernel, winEnd Time) {
	st.cal = &k.cals[st.idx]
	st.owner = k.owner
	st.winEnd = winEnd
	st.hasTail = false
}

// Now returns the stage's clock: the time of the event currently
// executing on this shard.
func (st *Stage) Now() Time { return st.now }

// At stages an event for absolute time t on the actor registered under
// id. An event for this stage's shard goes into the shard's own calendar
// under a tagged seq (stagedSeq), whatever its time: one inside the
// window runs later in the same RunWindow. An event for another shard
// must land at or beyond the window end — the window width is capped at
// the minimum cross-shard latency (see internal/shard), so scheduling one
// inside the window is a model ownership bug, and the assertion here is
// what keeps the window determinism argument mechanized rather than
// hoped-for. It is a struct from the stage pool, copied into the
// target's inbox at placement.
func (st *Stage) At(t Time, id int32, op uint8, a, b, c int32) {
	if t < st.now {
		panic("sim: event scheduled in the past")
	}
	tgt := 0 // a stage over one calendar: every id is its
	if st.owner != nil {
		tgt = int(st.owner[id])
	}
	rank := st.n
	var e *Event
	var te *timedEvent
	switch {
	case tgt == st.idx:
		e = st.cal.slot(t, stagedSeq|uint64(rank))
	case tgt < 0:
		panic(fmt.Sprintf("sim: stage: event at t=%d for id %d, whose actor does not implement sim.Sharded", t, id))
	case t < st.winEnd:
		panic("sim: cross-shard event staged inside the execution window")
	default:
		te = takeEvent(&st.free)
		te.at, te.flags = t, 0
		e = &te.Event
	}
	e.set(id, op, a, b, c)
	st.n++
	if t >= st.winEnd {
		//hxlint:allow allocfree — each per-target list grows to its per-window high-water count and is reset (not reallocated) every window
		st.out[tgt] = append(st.out[tgt], stagedOp{e, te, rank})
	}
}

// Recorder observes every live event RunWindow processes, in execution
// order, with the seq it holds in its calendar: its kernel seq, or for an
// event staged inside the window its tagged rank, which Stage.Seq
// resolves once the merge has stamped the record that staged it — a
// record that precedes it in the same shard's stream.
type Recorder interface {
	Record(at Time, seq uint64)
}

// RunWindow executes this shard's slice of the window: the serial pop
// loop (peek, popPeeked, unpool) over the shard's own calendar and its
// inbox, taking the (time, seq)-smaller head of the two, up to the
// window end. The own calendar's order is the serial kernel's, the
// events staged inside the window included (see stagedSeq). Expired
// events are skipped without a record, as the serial loop skips them;
// expiry is read at pop time, so an earlier event of the window that
// expires a later one acts exactly as it would serially. Each processed
// event, live or expired, updates the tail. The kernel clock is left
// alone — a window can hold only expired events, for which the serial
// loop never moves it — and the merge sets it instead.
func (st *Stage) RunWindow(k *Kernel, rec Recorder) {
	own, in := st.cal, k.inbox(st.idx)
	// Nothing enters the inbox during a window, so its head stays put
	// until popped. The own calendar slides no further than it: an inbox
	// event may schedule into the own calendar at its own time.
	var next *Event
	var nextAt Time
	if in != nil {
		next, nextAt = in.peek(st.winEnd)
	}
	for {
		limit := st.winEnd
		if next != nil {
			limit = min(limit, nextAt)
		}
		c := own
		e, at := own.peek(limit)
		if next != nil && (e == nil || nextAt < at || (nextAt == at && next.seq < e.seq)) {
			c, e, at = in, next, nextAt
		}
		if e == nil || at >= st.winEnd {
			return
		}
		fe := c.popPeeked(e, at)
		seq, id, op, a, b, cc := e.seq, e.act, e.op, e.a, e.b, e.c
		c.unpool(fe)
		if c == in {
			next, nextAt = in.peek(st.winEnd)
		}
		dead := k.expired(id, op, a, b, cc)
		st.tailAt, st.tailSeq, st.tailDead, st.hasTail = at, seq, dead, true
		if dead {
			continue
		}
		// Counting and tracing are the merge's job.
		st.now = at
		k.acts[id].Act(op, a, b, cc, nil)
		rec.Record(at, seq)
	}
}

// Tail returns the (time, seq) of the last event this shard processed in
// its window — live or expired — and whether it had expired. The executor
// needs the global (time, seq)-maximal tail across shards for the
// serial until-overshoot quirk. Call after the merge has stamped this
// stage's ops (a staged tail's seq is assigned there).
func (st *Stage) Tail() (at Time, seq uint64, dead, ok bool) {
	if !st.hasTail {
		return 0, 0, false, false
	}
	return st.tailAt, st.Seq(st.tailSeq), st.tailDead, true
}

// StagedLen returns how many schedule calls the stage holds; the shard
// records it per executed event to delimit each event's ops.
func (st *Stage) StagedLen() int { return st.n }

// Stamp assigns the next kernel sequence numbers to the staged ops not
// yet stamped, up to (excluding) op j, in program order. The merge calls
// it once per executed event that staged any, in global execution order
// — the serial kernel's assignment order. It appends to seqs only; the
// staged events stay untouched for placement. Coordinator-only.
func (st *Stage) Stamp(k *Kernel, j int) {
	for i := len(st.seqs); i < j; i++ {
		//hxlint:allow allocfree — the seq list grows to the shard's per-window high-water schedule count and is reset (not reallocated) every window
		st.seqs = append(st.seqs, k.seq)
		k.seq++
	}
}

// Seq returns the kernel seq of a seq RunWindow recorded: the seq
// itself, or for a tagged one the seq Stamp gave its staging rank.
func (st *Stage) Seq(seq uint64) uint64 {
	if seq&stagedSeq != 0 {
		return st.seqs[seq&^stagedSeq]
	}
	return seq
}

// ResetOps clears the window's staging state and returns every
// cross-shard staging struct to the stage pool: the inboxes hold copies
// of them, and the same-shard events were calendar slots all along. Call
// it when no shard's placement can still read this stage — the shard's
// next window is the natural point. The backing arrays are reused.
func (st *Stage) ResetOps() {
	for t, o := range st.out {
		if t != st.idx {
			for _, x := range o {
				putEvent(&st.free, x.te)
			}
		}
		st.out[t] = o[:0]
	}
	st.n = 0
	st.seqs = st.seqs[:0]
}

// Place finishes shard t's window once the merge has stamped every
// stage. It writes the stamped seq over the tag of each event stage t
// staged for its own shard beyond the window, in place (see the package
// notes for why that keeps the calendar ordered), then copies into t's
// inbox every event the other stages staged for t, in kernel-seq order —
// a merge of their per-target lists, each already in seq order, taken a
// run at a time: the source with the smallest next seq places everything
// below the others' next seqs — so each inbox bucket stays a (time, seq)
// FIFO. An event that has expired meanwhile is placed all the same (it
// holds its seq, as it did serially). Called by shard t: it reads the stages, which no one writes
// until their next window, and writes only shard t's calendar and inbox.
func (k *Kernel) Place(t int, stages []*Stage) {
	own := stages[t]
	for _, x := range own.out[t] {
		x.e.seq = own.seqs[x.rank]
	}
	c := k.inbox(t)
	if c == nil {
		return
	}
	const none = ^uint64(0) // no kernel seq reaches it
	src := c.sources
	for s, st := range stages {
		src[s] = placeSource{head: none}
		if o := st.out[t]; s != t && len(o) > 0 {
			src[s].head = st.seqs[o[0].rank]
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
			seq := st.seqs[o[p].rank]
			if seq > second {
				break
			}
			te := o[p].te
			c.slot(te.at, seq).set(te.act, te.op, te.a, te.b, te.c)
		}
		src[pick].pos, src[pick].head = p, none
		if p < len(o) {
			src[pick].head = st.seqs[o[p].rank]
		}
	}
}

// placeSource is Place's read position in one stage's list for the
// inbox being filled, and the seq found there.
type placeSource struct {
	pos  int
	head uint64
}
