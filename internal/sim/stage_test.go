package sim

// Unit tests for the sharded-execution staging layer: RunWindow's pops
// from the calendar in (time, seq) order across calendar tiers (dead
// events and behind-window events included) and clock neutrality, its in-window
// local execution (same-cycle staging, expiry read at pop time,
// done-event seq consumption), Stamp's serial-order seq assignment with
// Place's in-place relabel of the own calendar and its copy into the
// inbox, and the Stage pool's self-contained struct circulation.

import (
	"fmt"
	"testing"
)

// logActor appends its event's a operand to a shared log. Its events all
// belong to shard 0.
type logActor struct{ log *[]int32 }

func (l logActor) Act(_ uint8, a, _, _ int32, _ any) { *l.log = append(*l.log, a) }

func (logActor) ShardOf(int) int { return 0 }

// TestInjectStagedSerialSeq: staged events stamped by Stamp and placed by
// Place receive exactly the seq numbers — and therefore the execution
// order — the serial kernel would have assigned had the callbacks
// scheduled directly. Same-shard events beyond the window sit in the
// calendar from the start, so none of them takes a staging struct.
func TestInjectStagedSerialSeq(t *testing.T) {
	serial := NewKernel()
	var wantLog []int32
	wact := logActor{&wantLog}
	for i := int32(0); i < 6; i++ {
		serial.AtAct(10, wact, 0, i, 0, 0, nil)
	}
	serial.Run(0)

	k := NewKernel()
	var log []int32
	act := logActor{&log}
	st := NewStage(0, 1)
	st.StartWindow(k, 0)
	pool := len(st.free)
	for i := int32(0); i < 6; i++ {
		st.At(10, k.idOf(act), 0, i, 0, 0)
	}
	if st.StagedLen() != 6 {
		t.Fatalf("StagedLen = %d, want 6", st.StagedLen())
	}
	st.Stamp(k, 3)
	st.Stamp(k, 6)
	k.Place(0, []*Stage{st})
	st.ResetOps()
	if len(st.free) != pool {
		t.Fatalf("stage pool = %d after ResetOps, want %d: same-shard events are calendar slots, not staging structs", len(st.free), pool)
	}
	k.Run(0)
	if len(log) != len(wantLog) {
		t.Fatalf("staged path executed %d events, serial %d", len(log), len(wantLog))
	}
	for i := range log {
		if log[i] != wantLog[i] {
			t.Fatalf("staged execution order %v, serial %v", log, wantLog)
		}
	}
}

// TestStagedCancelConsumesSeq: a staged timer that expires before it is
// placed is placed all the same and skipped at its pop, and it still
// consumes a seq number at the merge — exactly as an expired timer does
// serially.
func TestStagedCancelConsumesSeq(t *testing.T) {
	k, s := newScript()
	st := NewStage(0, 1)
	st.StartWindow(k, 0)
	s.gen[0]++
	st.At(10, s.id(0), opLogTimer, 0, s.gen[0], 0)
	st.At(10, s.id(1), opLog, 1, 0, 0)
	s.expire(0)
	st.Stamp(k, 2)
	k.Place(0, []*Stage{st})
	if k.Pending() != 2 {
		t.Fatalf("Pending = %d after placement, want 2 (the expired timer too)", k.Pending())
	}
	var seqs []uint64
	k.TraceExec = func(_ Time, seq uint64) { seqs = append(seqs, seq) }
	k.Run(0)
	if log := s.log; len(log) != 1 || log[0] != 1 {
		t.Fatalf("executed %v, want only the live event", log)
	}
	// The live event was staged second, so it carries seq 1: the dead
	// event consumed seq 0.
	if len(seqs) != 1 || seqs[0] != 1 {
		t.Fatalf("live event got seq %v, want [1] (the expired staged timer must consume a seq)", seqs)
	}
}

// TestDrainWindowMixedTimestamps: a window drains its calendar as it
// runs — RunWindow pops every event strictly before winEnd in (time, seq)
// order, across timestamps, out-of-order scheduling, expired timers (they
// hold seq positions and are skipped) and events behind the window —
// executes the live ones, leaves events at or past winEnd queued, and
// never touches the clock (the merge advances it per live event). A
// second, unbounded window then runs the rest.
func TestDrainWindowMixedTimestamps(t *testing.T) {
	type ev struct {
		at     Time
		a      int32
		expire bool // an expired timer
	}
	var interleaved []ev
	for i := int32(0); i < 10; i++ {
		interleaved = append(interleaved, ev{at: 5, a: i}, ev{at: 7, a: 100 + i})
	}
	rows := []struct {
		name   string
		behind bool // schedule behind the calendar window, onto the far heap
		sched  []ev
		winEnd Time
		want   []int32 // a operands executed by the window, in order
		rest   []int32 // what the next, unbounded window executes
	}{
		{
			name:   "out_of_order_times",
			sched:  []ev{{at: 7, a: 0}, {at: 5, a: 1}, {at: 6, a: 2}, {at: 5, a: 3}, {at: 9, a: 4}},
			winEnd: 8,
			want:   []int32{1, 3, 2, 0},
			rest:   []int32{4},
		},
		{
			name:   "interleaved_seq_order",
			sched:  interleaved,
			winEnd: 6,
			want:   []int32{0, 1, 2, 3, 4, 5, 6, 7, 8, 9},
			rest:   []int32{100, 101, 102, 103, 104, 105, 106, 107, 108, 109},
		},
		{
			name:   "dead_included",
			sched:  []ev{{at: 5, a: 0}, {at: 5, a: 1, expire: true}, {at: 5, a: 2}, {at: 9, a: 3, expire: true}},
			winEnd: 6,
			want:   []int32{0, 2},
		},
		{
			// Near-term events behind winStart wait on the far heap; the
			// in-window ring event at a later time runs after them.
			name:   "behind_window",
			behind: true,
			sched:  []ev{{at: 150, a: 0}, {at: 150, a: 1}, {at: 6000, a: 2}},
			winEnd: 151,
			want:   []int32{0, 1},
			rest:   []int32{2},
		},
		{name: "empty_calendar", winEnd: 100},
	}
	for _, row := range rows {
		t.Run(row.name, func(t *testing.T) {
			k, s := newScript()
			if row.behind {
				// Advance the window far ahead, then rewind the clock (the
				// executor does this at an until-boundary).
				s.at(5000, opLog, 99, 0, 0)
				k.Run(0)
				k.SetNow(100)
			}
			now := k.Now()
			pending := 0
			for _, e := range row.sched {
				if e.expire {
					s.arm(e.at, e.a, 0)
					s.expire(0)
				} else {
					s.at(e.at, opLog, e.a, 0, 0)
				}
				if e.at >= row.winEnd {
					pending++
				}
			}
			st := NewStage(0, 1)
			run := func(winEnd Time, want []int32) {
				t.Helper()
				s.log = s.log[:0]
				rec := &windowRecorder{}
				st.StartWindow(k, winEnd)
				st.RunWindow(k, rec)
				if k.Now() != now {
					t.Fatalf("RunWindow moved the clock %d -> %d; it must not touch it", now, k.Now())
				}
				if len(s.log) != len(want) {
					t.Fatalf("executed %v, want %v", s.log, want)
				}
				for i := range want {
					if s.log[i] != want[i] {
						t.Fatalf("executed %v, want %v", s.log, want)
					}
				}
				for i := 1; i < len(rec.ats); i++ {
					if p, q := i-1, i; rec.ats[p] > rec.ats[q] || (rec.ats[p] == rec.ats[q] && rec.seqs[p] >= rec.seqs[q]) {
						t.Fatalf("records not in (time, seq) order at %d: (%d,%d) then (%d,%d)",
							i, rec.ats[p], rec.seqs[p], rec.ats[q], rec.seqs[q])
					}
				}
			}
			run(row.winEnd, row.want)
			if k.Pending() != pending {
				t.Fatalf("Pending = %d after the window, want %d", k.Pending(), pending)
			}
			run(1<<40, row.rest)
			if k.Pending() != 0 {
				t.Fatalf("Pending = %d after the unbounded window, want 0", k.Pending())
			}
		})
	}
}

// TestDrainWindowCancelDrained: a timer of the window that is still in
// its calendar when an earlier event of the same window expires it is
// skipped — RunWindow asks whether an event has expired when it pops it,
// as the serial loop does. This is how an earlier-in-window event's
// expiry lands under the windowed executor.
func TestDrainWindowCancelDrained(t *testing.T) {
	k, s := newScript()
	s.at(5, opExpire, -1, 0, 0)
	s.at(5, opLog, 0, 0, 0)
	s.arm(6, 1, 0)
	s.at(7, opLog, 2, 0, 0)
	st := NewStage(0, 1)
	st.StartWindow(k, 10)
	st.RunWindow(k, &windowRecorder{})
	if log := s.log; len(log) != 3 || log[0] != -1 || log[1] != 0 || log[2] != 2 {
		t.Fatalf("executed %v, want [-1 0 2] (the timer expired mid-window skipped)", log)
	}
	if k.Pending() != 0 {
		t.Fatalf("Pending = %d after the window, want 0 (the expired timer is popped too)", k.Pending())
	}
}

// windowActor is a Sharded actor that logs its a operand and stages
// follow-up events on its stage according to a spawn table, exercising
// RunWindow's in-window local execution path. Its expiring events carry
// a generation in b and have expired once gen has moved on.
type windowActor struct {
	k     *Kernel
	st    *Stage
	log   *[]int32
	spawn map[int32][]Time // a operand -> follow-up event times (staged as a+100, a+200, ...)
	gen   int32
}

func (w *windowActor) Expired(_ uint8, _, b, _ int32) bool { return b != w.gen }

func (w *windowActor) Act(_ uint8, a, _, _ int32, _ any) {
	*w.log = append(*w.log, a)
	for i, at := range w.spawn[a] {
		w.st.At(at, w.k.idOf(w), 0, a+int32(100*(i+1)), 0, 0)
	}
}

func (w *windowActor) ShardOf(int) int { return 0 }

// windowRecorder captures RunWindow's Record stream: times and seqs, a
// calendar event's kernel seq or a staged one's tagged rank (its seq is
// stamped later, at the merge).
type windowRecorder struct {
	ats  []Time
	seqs []uint64
}

func (r *windowRecorder) Record(at Time, seq uint64) {
	r.ats = append(r.ats, at)
	r.seqs = append(r.seqs, seq)
}

// TestRunWindowSameCycleStaging: an event that stages a same-cycle
// follow-up sees it execute inside the same window, after the remaining
// calendar events of that cycle (calendar-before-staged at equal time)
// and before any later-cycle work — the serial kernel's exact
// interleaving.
func TestRunWindowSameCycleStaging(t *testing.T) {
	k := NewKernel()
	var log []int32
	st := NewStage(0, 1)
	w := &windowActor{k: k, st: st, log: &log, spawn: map[int32][]Time{
		0: {5, 6}, // same-cycle (t=5) and mid-window (t=6) follow-ups
	}}
	k.AtAct(5, w, 0, 0, 0, 0, nil)
	k.AtAct(5, w, 0, 1, 0, 0, nil)
	k.AtAct(7, w, 0, 2, 0, 0, nil)
	st.StartWindow(k, 10)
	rec := &windowRecorder{}
	st.RunWindow(k, rec)
	// The calendar's t=5 pair first (schedule order), then the staged t=5
	// follow-up, the staged t=6 one, then the calendar's t=7 event.
	wantLog := []int32{0, 1, 100, 200, 2}
	if len(log) != len(wantLog) {
		t.Fatalf("executed %v, want %v", log, wantLog)
	}
	for i := range wantLog {
		if log[i] != wantLog[i] {
			t.Fatalf("executed %v, want %v", log, wantLog)
		}
	}
	wantAts := []Time{5, 5, 5, 6, 7}
	wantStaged := []bool{false, false, true, true, false}
	for i := range wantAts {
		if rec.ats[i] != wantAts[i] || (rec.seqs[i]&stagedSeq != 0) != wantStaged[i] {
			t.Fatalf("record stream ats=%v seqs=%#x, want %v with tags %v", rec.ats, rec.seqs, wantAts, wantStaged)
		}
	}
	if st.Now() != 7 {
		t.Fatalf("stage clock = %d after window, want 7", st.Now())
	}
}

// TestRunWindowStagedAfterRingAndFar: an event staged inside the window
// joins its calendar under a tagged seq and runs after the far-heap and
// ring events of its timestamp, and before an event staged after it.
// With a ring event ahead of it in the bucket the FIFO alone orders it;
// heading the bucket, only the tag orders it after the far event, whose
// kernel seq (0) it would otherwise tie with on its staging rank (0).
func TestRunWindowStagedAfterRingAndFar(t *testing.T) {
	const at = ringSize + 500 // beyond the initial ring: the first schedule lands on the far heap
	for _, row := range []struct {
		name   string
		ringAt Time             // the ring event's time: `at`, or the cycle before, staging at `at`
		spawn  map[int32][]Time // 0 is the far event, 1 the ring event
		want   []int32
	}{
		{"ring_ahead", at, map[int32][]Time{0: {at}, 1: {at}}, []int32{0, 1, 100, 101}},
		{"heading_bucket", at - 1, map[int32][]Time{1: {at, at}}, []int32{1, 0, 101, 201}},
	} {
		t.Run(row.name, func(t *testing.T) {
			k := NewKernel()
			var log []int32
			st := NewStage(0, 1)
			w := &windowActor{k: k, st: st, log: &log, spawn: row.spawn}
			k.AtAct(at, w, 0, 0, 0, 0, nil)
			k.AtAct(at-100, fn(func(int32) { k.AtAct(row.ringAt, w, 0, 1, 0, 0, nil) }), 0, 0, 0, 0, nil)
			k.Run(at - 2)
			if c := &k.cals[0]; len(c.far.h) != 1 || c.nring != 1 {
				t.Fatalf("%d far and %d ring events before the window, want 1 and 1", len(c.far.h), c.nring)
			}
			st.StartWindow(k, at+1)
			rec := &windowRecorder{}
			st.RunWindow(k, rec)
			if len(log) != len(row.want) {
				t.Fatalf("executed %v, want %v", log, row.want)
			}
			for i := range row.want {
				if log[i] != row.want[i] {
					t.Fatalf("executed %v, want %v", log, row.want)
				}
			}
			// The staged pair records its tagged staging ranks, in order.
			if n := len(rec.seqs); n != 4 || rec.seqs[2] != stagedSeq|0 || rec.seqs[3] != stagedSeq|1 {
				t.Fatalf("record stream seqs=%#x, want the staged pair last with tagged ranks 0, 1", rec.seqs)
			}
			if k.Pending() != 0 {
				t.Fatalf("Pending = %d after the window, want 0", k.Pending())
			}
		})
	}
}

// hopActor is a two-shard actor: event a runs on shard a%2 — it has two
// ids, base+0 and base+1 — logs a, and schedules the follow-ups its spawn
// table lists, all at time at, each on the shard its own operand names —
// through the executing shard's stage when staged, on the kernel
// otherwise.
type hopActor struct {
	k      *Kernel
	base   int32
	stages []*Stage // nil: serial
	log    []int32
	spawn  map[int32][]int32
	at     Time
}

func (h *hopActor) Act(_ uint8, a, _, _ int32, _ any) {
	h.log = append(h.log, a)
	for _, f := range h.spawn[a] {
		if h.stages != nil {
			h.stages[a%2].At(h.at, h.base+f%2, 0, f, 0, 0)
		} else {
			h.k.At(h.at, h.base+f%2, 0, f, 0, 0)
		}
	}
}

func (h *hopActor) ShardOf(i int) int { return i }

// TestPlaceInterleavesOwnAndInbox: in one window, shard 1 stages an event
// for itself beyond the window, and shard 0 stages events for shard 1 at
// the same timestamp, their seqs interleaved with shard 1's — both ways
// round. Shard 1's own events sit in its calendar and the cross-shard
// ones land in its inbox, so the next window pops them in seq order, as
// the serial kernel runs them. Appending the cross-shard events to the
// own calendar instead would run every own event of the timestamp first.
// (The first window's log is in shard order; its trace is the merge's.)
func TestPlaceInterleavesOwnAndInbox(t *testing.T) {
	const at = 20
	for _, row := range []struct {
		name  string
		roots []int32           // root events at t = 1, 2, 3; a%2 is the shard
		spawn map[int32][]int32 // follow-ups at t = at, all on shard 1
		cross int               // follow-ups staged by shard 0
	}{
		{"cross_own_cross", []int32{0, 1, 2}, map[int32][]int32{0: {11}, 1: {13}, 2: {15}}, 2},
		{"own_cross_own", []int32{1, 0, 3}, map[int32][]int32{1: {11}, 0: {13}, 3: {15}}, 1},
	} {
		t.Run(row.name, func(t *testing.T) {
			run := func(windowed bool) (*hopActor, [][2]uint64) {
				k := NewKernel()
				var trace [][2]uint64
				k.TraceExec = func(at Time, seq uint64) { trace = append(trace, [2]uint64{uint64(at), seq}) }
				h := &hopActor{k: k, spawn: row.spawn, at: at}
				if windowed {
					k.SetCalendars(2)
					h.stages = []*Stage{NewStage(0, 2), NewStage(1, 2)}
				}
				h.base = k.Register(h, 2)
				for i, a := range row.roots {
					k.At(Time(1+i), h.base+a%2, 0, a, 0, 0)
				}
				if !windowed {
					k.Run(0)
					return h, trace
				}
				runStagedWindow(k, h.stages, []int{0, 1}, 10)
				if n := k.inbox(1).npend; n != row.cross {
					t.Errorf("shard 1's inbox holds %d events after placement, want %d", n, row.cross)
				}
				runStagedWindow(k, h.stages, []int{1, 0}, at+1)
				return h, trace
			}
			serial, strace := run(false)
			windowed, wtrace := run(true)
			if fmt.Sprint(windowed.log[3:]) != fmt.Sprint(serial.log[3:]) || fmt.Sprint(wtrace) != fmt.Sprint(strace) {
				t.Fatalf("windowed ran %v as %v, serial %v as %v", windowed.log, wtrace, serial.log, strace)
			}
		})
	}
}

// TestRunWindowCancelStaged: a staged timer that expires before its
// in-window execution point is skipped by RunWindow without a record —
// it still becomes the tail and still consumes a seq at the merge's
// replay, exactly as an expired timer does serially.
func TestRunWindowCancelStaged(t *testing.T) {
	k := NewKernel()
	var log []int32
	st := NewStage(0, 1)
	w := &windowActor{k: k, st: st, log: &log, spawn: map[int32][]Time{}}
	k.AtAct(5, w, 0, 0, 0, 0, nil)
	st.StartWindow(k, 10)
	st.now = 5
	st.At(8, k.idOf(w), OpExpires, 50, w.gen, 0)
	w.gen++
	rec := &windowRecorder{}
	st.RunWindow(k, rec)
	if len(log) != 1 || log[0] != 0 {
		t.Fatalf("executed %v, want only the calendar event", log)
	}
	if len(rec.ats) != 1 {
		t.Fatalf("recorded %d events, want 1 (expired staged timer skipped without a record)", len(rec.ats))
	}
	// The expired in-window timer is done: Stamp assigns it a seq but
	// placement never re-enqueues it.
	seqBefore := k.seq
	k.AtAct(100, w, 0, 9, 0, 0, nil)
	st.Stamp(k, st.StagedLen())
	at, _, dead, ok := st.Tail()
	if !ok || at != 8 || !dead {
		t.Fatalf("Tail = (%d, dead=%v, ok=%v), want the expired staged timer at t=8", at, dead, ok)
	}
	k.Place(0, []*Stage{st})
	if k.Pending() != 1 {
		t.Fatalf("Pending = %d after placing a done event, want 1 (only the probe)", k.Pending())
	}
	if got := st.Seq(stagedSeq | 0); got != seqBefore+1 {
		t.Fatalf("done event got seq %d, want %d (must consume the next kernel seq)", got, seqBefore+1)
	}
	if _, seq, _, _ := st.Tail(); seq != seqBefore+1 {
		t.Fatalf("Tail seq = %d, want the expired timer's stamped seq %d", seq, seqBefore+1)
	}
	st.ResetOps()
}

// TestInjectStagedDoneNoEnqueue: an event executed in-window on its own
// shard (done) consumes a kernel seq at the merge's Stamp but never
// re-enters the calendar, and it never took a struct from the stage
// pool.
func TestInjectStagedDoneNoEnqueue(t *testing.T) {
	k := NewKernel()
	var log []int32
	st := NewStage(0, 1)
	w := &windowActor{k: k, st: st, log: &log, spawn: map[int32][]Time{}}
	st.StartWindow(k, 10)
	pool := len(st.free)
	st.At(5, k.idOf(w), 0, 7, 0, 0)
	st.RunWindow(k, &windowRecorder{})
	if len(log) != 1 || log[0] != 7 {
		t.Fatalf("RunWindow on staged-only window executed %v, want [7]", log)
	}
	st.Stamp(k, st.StagedLen())
	k.Place(0, []*Stage{st})
	if k.Pending() != 0 {
		t.Fatalf("Pending = %d, want 0 (done event must not re-enter the calendar)", k.Pending())
	}
	if got := st.Seq(stagedSeq | 0); got != 0 {
		t.Fatalf("done event seq = %d, want 0 (first kernel seq)", got)
	}
	if k.seq != 1 {
		t.Fatalf("next kernel seq = %d, want 1 (done event consumed seq 0)", k.seq)
	}
	st.ResetOps()
	if len(st.free) != pool {
		t.Fatalf("ResetOps pool = %d, want %d (an in-window event is a calendar slot)", len(st.free), pool)
	}
}

func TestStageAllocPanicsOnPast(t *testing.T) {
	st := NewStage(0, 1)
	st.now = 10
	defer func() {
		if recover() == nil {
			t.Fatal("staging an event in the past did not panic")
		}
	}()
	st.At(5, NewKernel().Register(logActor{new([]int32)}, 1), 0, 0, 0, 0)
}
