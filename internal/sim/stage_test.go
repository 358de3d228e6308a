package sim

// Unit tests for the sharded-execution staging layer: DrainWindow's
// (time, seq) order across calendar tiers (dead events and the late list
// included) and clock neutrality, RunWindow's in-window local execution
// (same-cycle staging, window-granularity cancels, done-event seq
// consumption), InjectStaged's serial-order seq assignment and handle
// relocation, and the Stage pool's self-contained struct circulation.

import "testing"

// logActor appends its event's a operand to a shared log.
type logActor struct{ log *[]int32 }

func (l logActor) Act(_ uint8, a, _, _ int32, _ any) { *l.log = append(*l.log, a) }

// noRebind is the Rebinder of tests that keep no staged handle.
type noRebind struct{}

func (noRebind) Rebind(_, _ *Event) {}

// TestInjectStagedSerialSeq: staged events replayed through InjectStaged
// receive exactly the seq numbers — and therefore the execution order —
// the serial kernel would have assigned had the callbacks scheduled
// directly.
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
	st := NewStage(0)
	pool := len(st.free)
	for i := int32(0); i < 6; i++ {
		st.AtAct(10, act, 0, i, 0, 0, nil)
	}
	if st.StagedLen() != 6 {
		t.Fatalf("StagedLen = %d, want 6", st.StagedLen())
	}
	st.ReplayOps(k, 0, 3, noRebind{})
	st.ReplayOps(k, 3, 6, noRebind{})
	st.ResetOps()
	if len(st.free) != pool {
		t.Fatalf("stage pool = %d after ResetOps, want %d: the calendar holds copies, so every staged struct comes home", len(st.free), pool)
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

// TestStagedCancelConsumesSeq: Kernel.Cancel works on a staged handle
// (queued is set at stage time), and the dead event still consumes a seq
// number at injection — exactly as a cancelled event does serially.
func TestStagedCancelConsumesSeq(t *testing.T) {
	k := NewKernel()
	var log []int32
	act := logActor{&log}
	st := NewStage(0)
	e0 := st.AtAct(10, act, 0, 0, 0, 0, nil)
	st.AtAct(10, act, 0, 1, 0, 0, nil)
	k.Cancel(e0)
	if e0.flags&evDead == 0 {
		t.Fatal("Cancel on a staged handle did not take")
	}
	st.ReplayOps(k, 0, 2, noRebind{})
	var seqs []uint64
	k.TraceExec = func(_ Time, seq uint64) { seqs = append(seqs, seq) }
	k.Run(0)
	if len(log) != 1 || log[0] != 1 {
		t.Fatalf("executed %v, want only the live event", log)
	}
	// The live event was staged second, so it carries seq 1: the dead
	// event consumed seq 0.
	if len(seqs) != 1 || seqs[0] != 1 {
		t.Fatalf("live event got seq %v, want [1] (dead staged event must consume a seq)", seqs)
	}
}

// TestDrainWindowMixedTimestamps: DrainWindow pops every event strictly
// before winEnd in (time, seq) order — across timestamps, out-of-order
// scheduling, dead events (they hold seq positions) and the late list —
// leaves events at or past winEnd queued, and never touches the clock
// (the merge advances it per live event). Each row's batch then runs
// through a Stage, the only consumer of a drained batch: live events
// execute in drain order, dead ones are skipped.
func TestDrainWindowMixedTimestamps(t *testing.T) {
	type ev struct {
		at     Time
		a      int32
		cancel bool
	}
	var interleaved []ev
	for i := int32(0); i < 10; i++ {
		interleaved = append(interleaved, ev{at: 5, a: i}, ev{at: 7, a: 100 + i})
	}
	rows := []struct {
		name   string
		late   bool // schedule behind the calendar window, onto the late list
		sched  []ev
		winEnd Time
		want   []int32 // a operands drained, in order
		rest   []int32 // what the next, unbounded drain returns
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
			sched:  []ev{{at: 5, a: 0}, {at: 5, a: 1, cancel: true}, {at: 5, a: 2}},
			winEnd: 6,
			want:   []int32{0, 1, 2},
		},
		{
			// Near-term events behind winStart wait on the late list; the
			// in-window ring event at a later time drains after them.
			name:   "late_list",
			late:   true,
			sched:  []ev{{at: 150, a: 0}, {at: 150, a: 1}, {at: 6000, a: 2}},
			winEnd: 151,
			want:   []int32{0, 1},
			rest:   []int32{2},
		},
		{name: "empty_calendar", winEnd: 100},
	}
	for _, row := range rows {
		t.Run(row.name, func(t *testing.T) {
			k := NewKernel()
			var log []int32
			act := logActor{&log}
			if row.late {
				// Advance the window far ahead, then rewind the clock (the
				// executor does this at an until-boundary).
				k.AtAct(5000, act, 0, 99, 0, 0, nil)
				k.Run(0)
				k.SetNow(100)
				log = log[:0]
			}
			now := k.Now()
			dead := map[int32]bool{}
			for _, e := range row.sched {
				h := k.AtAct(e.at, act, 0, e.a, 0, 0, nil)
				if e.cancel {
					k.Cancel(h)
					dead[e.a] = true
				}
			}
			batch := k.DrainWindow(row.winEnd, nil)
			if k.Now() != now {
				t.Fatalf("DrainWindow moved the clock %d -> %d; it must not touch it", now, k.Now())
			}
			if k.Pending() != len(row.rest) {
				t.Fatalf("Pending = %d after drain, want %d", k.Pending(), len(row.rest))
			}
			check := func(batch []*Event, want []int32) {
				t.Helper()
				if len(batch) != len(want) {
					t.Fatalf("drained %d events, want %d", len(batch), len(want))
				}
				for i, e := range batch {
					if isDead := e.flags&evDead != 0; e.a != want[i] || isDead != dead[e.a] {
						t.Fatalf("batch[%d] = (a=%d dead=%v), want (a=%d dead=%v)", i, e.a, isDead, want[i], dead[want[i]])
					}
					if i > 0 {
						if p := batch[i-1]; p.At() > e.At() || (p.At() == e.At() && p.Seq() >= e.Seq()) {
							t.Fatalf("batch not in (time, seq) order at %d: (%d,%d) then (%d,%d)",
								i, p.At(), p.Seq(), e.At(), e.Seq())
						}
					}
				}
			}
			check(batch, row.want)
			st := NewStage(0)
			st.StartWindow(row.winEnd)
			st.RunWindow(batch, &windowRecorder{})
			var live []int32
			for _, a := range row.want {
				if !dead[a] {
					live = append(live, a)
				}
			}
			if len(log) != len(live) {
				t.Fatalf("executed %v, want %v", log, live)
			}
			for i := range live {
				if log[i] != live[i] {
					t.Fatalf("executed %v, want %v", log, live)
				}
			}
			check(k.DrainWindow(1<<40, batch[:0]), row.rest)
		})
	}
}

// TestDrainWindowCancelDrained: a drained-but-unexecuted event is still
// cancellable — drain does not clear the queued flag — and RunWindow
// honours the dead flag at processing time: this is how an
// earlier-in-window event's cancel lands under the windowed executor.
func TestDrainWindowCancelDrained(t *testing.T) {
	k := NewKernel()
	var log []int32
	act := logActor{&log}
	k.AtAct(5, act, 0, 0, 0, 0, nil)
	victim := k.AtAct(6, act, 0, 1, 0, 0, nil)
	k.AtAct(7, act, 0, 2, 0, 0, nil)
	batch := k.DrainWindow(10, nil)
	k.Cancel(victim)
	if victim.flags&evDead == 0 {
		t.Fatal("Cancel after DrainWindow did not take; window-granularity cancels would be lost")
	}
	st := NewStage(0)
	st.StartWindow(10)
	st.RunWindow(batch, &windowRecorder{})
	if len(log) != 2 || log[0] != 0 || log[1] != 2 {
		t.Fatalf("executed %v, want [0 2] (cancelled-after-drain event skipped)", log)
	}
}

// windowActor is a Sharded actor that logs its a operand and stages
// follow-up events on its stage according to a spawn table, exercising
// RunWindow's in-window local execution path.
type windowActor struct {
	st    *Stage
	log   *[]int32
	spawn map[int32][]Time // a operand -> follow-up event times (staged as a+100, a+200, ...)
}

func (w *windowActor) Act(_ uint8, a, _, _ int32, _ any) {
	*w.log = append(*w.log, a)
	for i, at := range w.spawn[a] {
		w.st.AtAct(at, w, 0, a+int32(100*(i+1)), 0, 0, nil)
	}
}

func (w *windowActor) ShardOf(uint8, int32, int32, int32, any) int { return 0 }

// windowRecorder captures RunWindow's Record stream: times, and whether
// each record was a drained event (ev nil, kernel seq) or a staged one
// (handle, seq assigned later at the merge).
type windowRecorder struct {
	ats    []Time
	staged []bool
}

func (r *windowRecorder) Record(at Time, _ uint64, ev *Event) {
	r.ats = append(r.ats, at)
	r.staged = append(r.staged, ev != nil)
}

// TestRunWindowSameCycleStaging: an event that stages a same-cycle
// follow-up sees it execute inside the same window, after the remaining
// drained events of that cycle (drained-before-staged at equal time) and
// before any later-cycle work — the serial kernel's exact interleaving.
func TestRunWindowSameCycleStaging(t *testing.T) {
	k := NewKernel()
	var log []int32
	st := NewStage(0)
	w := &windowActor{st: st, log: &log, spawn: map[int32][]Time{
		0: {5, 6}, // same-cycle (t=5) and mid-window (t=6) follow-ups
	}}
	k.AtAct(5, w, 0, 0, 0, 0, nil)
	k.AtAct(5, w, 0, 1, 0, 0, nil)
	k.AtAct(7, w, 0, 2, 0, 0, nil)
	batch := k.DrainWindow(10, nil)
	st.StartWindow(10)
	rec := &windowRecorder{}
	st.RunWindow(batch, rec)
	// Drained t=5 pair first (schedule order), then the staged t=5
	// follow-up, the staged t=6 one, then the drained t=7 event.
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
		if rec.ats[i] != wantAts[i] || rec.staged[i] != wantStaged[i] {
			t.Fatalf("record stream ats=%v staged=%v, want %v/%v", rec.ats, rec.staged, wantAts, wantStaged)
		}
	}
	if st.Now() != 7 {
		t.Fatalf("stage clock = %d after window, want 7", st.Now())
	}
}

// TestRunWindowCancelStaged: Kernel.Cancel on a staged handle before its
// in-window execution point makes RunWindow skip it without a record —
// it still becomes the tail and still consumes a seq at the merge's
// replay, exactly as a cancelled event does serially.
func TestRunWindowCancelStaged(t *testing.T) {
	k := NewKernel()
	var log []int32
	st := NewStage(0)
	w := &windowActor{st: st, log: &log, spawn: map[int32][]Time{}}
	k.AtAct(5, w, 0, 0, 0, 0, nil)
	batch := k.DrainWindow(10, nil)
	st.StartWindow(10)
	st.now = 5
	victim := st.AtAct(8, w, 0, 50, 0, 0, nil)
	k.Cancel(victim)
	rec := &windowRecorder{}
	st.RunWindow(batch, rec)
	if len(log) != 1 || log[0] != 0 {
		t.Fatalf("executed %v, want only the drained event", log)
	}
	if len(rec.ats) != 1 {
		t.Fatalf("recorded %d events, want 1 (dead staged event skipped without a record)", len(rec.ats))
	}
	at, _, dead, ok := st.Tail()
	if !ok || at != 8 || !dead {
		t.Fatalf("Tail = (%d, dead=%v, ok=%v), want the dead staged event at t=8", at, dead, ok)
	}
	// The dead in-window event is done: ReplayOps assigns it a seq but
	// never re-enqueues it.
	seqBefore := k.AtAct(100, w, 0, 9, 0, 0, nil).Seq()
	st.ReplayOps(k, 0, st.StagedLen(), noRebind{})
	if k.Pending() != 1 {
		t.Fatalf("Pending = %d after replaying a done event, want 1 (only the probe)", k.Pending())
	}
	if victim.Seq() != seqBefore+1 {
		t.Fatalf("done event got seq %d, want %d (must consume the next kernel seq)", victim.Seq(), seqBefore+1)
	}
	st.ResetOps()
}

// TestInjectStagedDoneNoEnqueue: an event executed in-window on its own
// shard (done) consumes a kernel seq at injection but never re-enters
// the calendar, and ResetOps recycles its struct back to the stage pool.
func TestInjectStagedDoneNoEnqueue(t *testing.T) {
	k := NewKernel()
	var log []int32
	st := NewStage(0)
	w := &windowActor{st: st, log: &log, spawn: map[int32][]Time{}}
	st.StartWindow(10)
	pool := len(st.free)
	e := st.AtAct(5, w, 0, 7, 0, 0, nil)
	st.RunWindow(nil, &windowRecorder{})
	if len(log) != 1 || log[0] != 7 {
		t.Fatalf("RunWindow on staged-only window executed %v, want [7]", log)
	}
	st.ReplayOps(k, 0, st.StagedLen(), noRebind{})
	if k.Pending() != 0 {
		t.Fatalf("Pending = %d, want 0 (done event must not re-enter the calendar)", k.Pending())
	}
	if e.Seq() != 0 {
		t.Fatalf("done event seq = %d, want 0 (first kernel seq)", e.Seq())
	}
	if next := k.AtAct(20, w, 0, 8, 0, 0, nil); next.Seq() != 1 {
		t.Fatalf("next kernel seq = %d, want 1 (done event consumed seq 0)", next.Seq())
	}
	st.ResetOps()
	if len(st.free) != pool {
		t.Fatalf("ResetOps pool = %d, want %d (done struct recycled to the stage pool)", len(st.free), pool)
	}
}

func TestStageAllocPanicsOnPast(t *testing.T) {
	st := NewStage(0)
	st.now = 10
	defer func() {
		if recover() == nil {
			t.Fatal("staging an event in the past did not panic")
		}
	}()
	st.AtAct(5, logActor{new([]int32)}, 0, 0, 0, 0, nil)
}
