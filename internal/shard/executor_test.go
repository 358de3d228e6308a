package shard

// Executor tests against a toy sharded model, independent of the network:
// a ring of counter slots where each event increments its slot and
// schedules follow-on events, sometimes across shards. The toy implements
// the same staging discipline as internal/network (stage into the
// executing shard, window-local execution via Stage.RunWindow, merge
// replays in global (time, seq) order), so these tests pin the executor's
// serial-equivalence edge cases — until boundaries, expired seq-tails,
// windowed expiry — with exact expectations computed from a serial
// kernel running the identical schedule.
//
// Toy latencies: same-slot ticks re-arm at +3 (same-shard), pokes cross
// to the next slot at +5 — the toy's minimum cross-shard latency — so
// window widths up to 5 are safe, and the tests sweep {1, 2, 3, 5}.

import (
	"context"
	"fmt"
	"strings"
	"testing"
	"time"

	"hyperx/internal/sim"
)

// toyWindows are the widths every serial-equivalence test sweeps: the
// degenerate per-cycle barrier, partial windows, and the toy's full
// cross-shard latency bound.
var toyWindows = []sim.Time{1, 2, 3, 5}

// toyRec mirrors network.execRec: one executed event's replay window. A
// calendar event carries its (at, seq); an in-window staged event carries
// its tagged staging rank (seq stamped at the merge, sim.Stage.Seq).
type toyRec struct {
	at     sim.Time
	seq    uint64
	opsEnd int
}

// toyShardRec is shard s's sim.Recorder.
type toyShardRec struct {
	m *toy
	s int
}

func (r *toyShardRec) Record(at sim.Time, seq uint64) {
	m, s := r.m, r.s
	m.recs[s] = append(m.recs[s], toyRec{at: at, seq: seq, opsEnd: m.stages[s].StagedLen()})
}

// toy is a sharded model over nsh counter slots; slot i has actor id
// base+i and lives on shard i%nsh. Each event increments slot a and,
// while below limit, schedules the slot's next tick at +3; every third
// tick also pokes slot a+1 at +5 — cross-shard traffic whose ordering the
// merge must serialize.
type toy struct {
	k       *sim.Kernel
	base    int32
	stages  []*sim.Stage
	srecs   []*toyShardRec
	recs    [][]toyRec
	cur     []int
	slots   []int64
	sharded bool
	limit   sim.Time
	solo    bool // every slot on shard 0: the other shards idle

	// phases[s] counts the RunShard and PlaceShard calls shard s ran.
	phases []int

	// winEnd is the open window's exclusive end; windowCancels counts
	// opCancel events whose timer was due inside the window they ran in —
	// the expiries that land mid-parallel-phase rather than on the
	// calendar; stagedArms counts opArm events that staged their timer at
	// or beyond the window end.
	winEnd        sim.Time
	windowCancels int
	stagedArms    int

	// timers and calls are what opArm, opCancel, opTimer and opCall name
	// by index.
	timers []toyTimer
	calls  []func()
}

// toyTimer is a timer the toy keeps: its generation, which opCancel
// bumps, and its time.
type toyTimer struct {
	gen int32
	at  sim.Time
}

// Toy ops. Every op increments slot a first.
const (
	opTick   uint8 = iota // re-arm at +3 (b counts ticks); every third also pokes slot a+1 at +5
	opPoke                // nothing more
	opArm                 // arm timers[c] as an opTimer on slot a at +b
	opCancel              // expire timers[c]
	opCall                // call calls[c]

	// opTimer is a poke that expires with its timer: timers[c], armed
	// under generation b.
	opTimer = sim.OpExpires | opPoke
)

func newToy(k *sim.Kernel, nsh, slots int, limit sim.Time) *toy {
	m := &toy{k: k, slots: make([]int64, slots), limit: limit}
	m.base = k.Register(m, slots)
	for s := 0; s < nsh; s++ {
		m.stages = append(m.stages, sim.NewStage(s, nsh))
		m.srecs = append(m.srecs, &toyShardRec{m: m, s: s})
		m.recs = append(m.recs, nil)
		m.cur = append(m.cur, 0)
		m.phases = append(m.phases, 0)
	}
	return m
}

func (m *toy) shardOf(slot int32) int {
	if m.solo {
		return 0
	}
	return int(slot) % len(m.stages)
}

// ShardOf implements sim.Sharded: the toy's i-th id is slot i's.
func (m *toy) ShardOf(i int) int { return m.shardOf(int32(i)) }

// at schedules the toy's event (op, a, b, c) on slot a's id.
func (m *toy) at(t sim.Time, op uint8, a, b, c int32) {
	m.k.At(t, m.base+a, op, a, b, c)
}

// timer adds a timer for opArm and opCancel and returns its index.
func (m *toy) timer() int32 {
	m.timers = append(m.timers, toyTimer{})
	return int32(len(m.timers) - 1)
}

// arm schedules timer i as an opTimer on slot a at time t, from outside
// any event.
func (m *toy) arm(i int32, t sim.Time, a int32) {
	m.timers[i].at = t
	m.at(t, opTimer, a, m.timers[i].gen, i)
}

// Expired implements sim.Expirer: an opTimer has expired once its timer's
// generation has moved on.
func (m *toy) Expired(_ uint8, _, b, c int32) bool { return m.timers[c].gen != b }

// Act implements sim.Actor.
func (m *toy) Act(op uint8, a, b, c int32, _ any) {
	m.slots[a]++
	sched := func(at sim.Time, op uint8, slot, b, c int32) {
		if m.sharded {
			// Stage into the EXECUTING shard (slot a's), whatever shard the
			// new event will run on — the merge replays it from here.
			m.stages[m.shardOf(a)].At(at, m.base+slot, op, slot, b, c)
			return
		}
		m.k.At(at, m.base+slot, op, slot, b, c)
	}
	now := m.now(a)
	switch op {
	case opTick:
		if now+3 <= m.limit {
			sched(now+3, opTick, a, b+1, 0)
		}
		if b%3 == 0 {
			sched(now+5, opPoke, (a+1)%int32(len(m.slots)), 0, 0)
		}
	case opArm:
		tm := &m.timers[c]
		tm.at = now + sim.Time(b)
		sched(tm.at, opTimer, a, tm.gen, c)
		if m.sharded && tm.at >= m.winEnd {
			m.stagedArms++
		}
	case opCancel:
		tm := &m.timers[c]
		if m.sharded && tm.at < m.winEnd {
			m.windowCancels++
		}
		tm.gen++
	case opCall:
		m.calls[c]()
	}
}

// now reads the model clock: the executing shard's stage clock during a
// parallel phase (the kernel clock is frozen at the window start then),
// the kernel clock otherwise — the same contract the network model uses.
func (m *toy) now(slot int32) sim.Time {
	if m.sharded {
		return m.stages[m.shardOf(slot)].Now()
	}
	return m.k.Now()
}

func (m *toy) NumShards() int { return len(m.stages) }

// split gives the toy's kernel one calendar per shard, as
// network.ConfigureShards does; the executor requires it.
func (m *toy) split() { m.k.SetCalendars(len(m.stages)) }

// PartitionWindow stages the toy until MergeWindow returns, as the
// network model does.
func (m *toy) PartitionWindow(batch []*sim.Event, winEnd sim.Time) bool {
	if len(batch) > 0 {
		return false
	}
	m.winEnd = winEnd
	for s := range m.stages {
		m.stages[s].StartWindow(m.k, winEnd)
	}
	m.sharded = true
	return true
}

func (m *toy) RunShard(s int) {
	m.phases[s]++
	m.stages[s].ResetOps()
	m.stages[s].RunWindow(m.k, m.srecs[s])
}

func (m *toy) MergeWindow() bool {
	var live uint64
	for {
		pick := -1
		var pAt sim.Time
		var pSeq uint64
		for s := range m.recs {
			if m.cur[s] >= len(m.recs[s]) {
				continue
			}
			rec := &m.recs[s][m.cur[s]]
			at, seq := rec.at, m.stages[s].Seq(rec.seq) // a tagged one stamped by this shard's earlier record
			if pick < 0 || at < pAt || (at == pAt && seq < pSeq) {
				pick, pAt, pSeq = s, at, seq
			}
		}
		if pick < 0 {
			break
		}
		rec := &m.recs[pick][m.cur[pick]]
		m.cur[pick]++
		live++
		m.k.SetNow(pAt)
		if tr := m.k.TraceExec; tr != nil {
			tr(pAt, pSeq)
		}
		m.stages[pick].Stamp(m.k, rec.opsEnd)
	}
	m.k.AddExecuted(live)
	var tAt sim.Time
	var tSeq uint64
	var dead, has bool
	for s := range m.stages {
		at, seq, d, ok := m.stages[s].Tail()
		if !ok {
			continue
		}
		if !has || at > tAt || (at == tAt && seq > tSeq) {
			tAt, tSeq, dead, has = at, seq, d, true
		}
	}
	for s := range m.stages {
		m.recs[s] = m.recs[s][:0]
		m.cur[s] = 0
	}
	m.sharded = false
	return dead
}

func (m *toy) PlaceShard(s int) {
	m.phases[s]++
	m.k.Place(s, m.stages)
}

// trace captures the executed (time, seq) stream of a kernel.
func trace(k *sim.Kernel) *[][2]uint64 {
	var tr [][2]uint64
	k.TraceExec = func(at sim.Time, seq uint64) { tr = append(tr, [2]uint64{uint64(at), seq}) }
	return &tr
}

// seedToy schedules the initial ticks: one per slot at staggered times.
func seedToy(k *sim.Kernel, m *toy) {
	for i := range m.slots {
		m.at(sim.Time(1+i%4), opTick, int32(i), 0, 0)
	}
}

// runPair runs the seeded toy serially and under the executor and
// requires identical traces, slots and end state. mutate, when non-nil,
// adds the same extra schedule to each kernel/model pair in turn. It
// returns the executor-side model for path assertions.
func runPair(t *testing.T, nsh int, win sim.Time, slots int, limit, until sim.Time, mutate func(k *sim.Kernel, m *toy)) *toy {
	t.Helper()
	return runToys(t, win, until, newToy(sim.NewKernel(), nsh, slots, limit), newToy(sim.NewKernel(), nsh, slots, limit), mutate)
}

// runToys is runPair over two identically built toys: sm runs serially,
// xm under the executor.
func runToys(t *testing.T, win, until sim.Time, sm, xm *toy, mutate func(k *sim.Kernel, m *toy)) *toy {
	t.Helper()
	nsh, sk, xk := len(xm.stages), sm.k, xm.k
	seedToy(sk, sm)
	seedToy(xk, xm)
	// Split after seeding, so the move to per-shard calendars is part of
	// every run.
	xm.split()
	if mutate != nil {
		mutate(sk, sm)
		mutate(xk, xm)
	}
	str, xtr := trace(sk), trace(xk)

	sk.Run(until)
	x := New(xk, xm, win)
	defer x.Close()
	if _, err := x.RunCtx(context.Background(), until); err != nil {
		t.Fatal(err)
	}

	if len(*str) != len(*xtr) {
		t.Fatalf("nsh=%d win=%d: executor ran %d events, serial %d", nsh, win, len(*xtr), len(*str))
	}
	for i := range *str {
		if (*str)[i] != (*xtr)[i] {
			t.Fatalf("nsh=%d win=%d: event %d diverged: executor (t=%d seq=%d), serial (t=%d seq=%d)",
				nsh, win, i, (*xtr)[i][0], (*xtr)[i][1], (*str)[i][0], (*str)[i][1])
		}
	}
	for i := range sm.slots {
		if sm.slots[i] != xm.slots[i] {
			t.Fatalf("nsh=%d win=%d: slot %d: executor %d, serial %d", nsh, win, i, xm.slots[i], sm.slots[i])
		}
	}
	if sk.Now() != xk.Now() || sk.Executed() != xk.Executed() {
		t.Fatalf("nsh=%d win=%d: end state: executor (now=%d exec=%d), serial (now=%d exec=%d)",
			nsh, win, xk.Now(), xk.Executed(), sk.Now(), sk.Executed())
	}
	return xm
}

func TestExecutorMatchesSerial(t *testing.T) {
	for _, nsh := range []int{1, 2, 3, 4} {
		for _, win := range toyWindows {
			runPair(t, nsh, win, 8, 400, 0, nil)
		}
	}
}

// TestExecutorIdleShards: with every slot on shard 0 of four, shards 1-3
// have no event in any window, yet each runs both parallel phases of
// every window, as shard 0 does, and the run still matches serial.
func TestExecutorIdleShards(t *testing.T) {
	for _, win := range toyWindows {
		sm, xm := newToy(sim.NewKernel(), 4, 8, 400), newToy(sim.NewKernel(), 4, 8, 400)
		sm.solo, xm.solo = true, true
		runToys(t, win, 0, sm, xm, nil)
		for _, n := range xm.phases {
			if n == 0 || n != xm.phases[0] {
				t.Fatalf("win=%d: shard phase counts %v, want every shard at shard 0's nonzero count", win, xm.phases)
			}
		}
	}
}

// TestExecutorWideFanout: a wide fan-out (8 shards, 7 workers) over a
// long run, every shard on its own worker. Serial equivalence must
// survive any interleaving of the owners; `go test -race
// ./internal/shard` is the memory-model half of this claim.
func TestExecutorWideFanout(t *testing.T) {
	runPair(t, 8, 5, 32, 2000, 0, nil)
}

// TestExecutorUntilBoundary: stopping at an until that falls between,
// on, and just before event times matches Kernel.Run's boundary behavior
// (including the clock assignment to until) at every window width.
func TestExecutorUntilBoundary(t *testing.T) {
	for _, until := range []sim.Time{1, 2, 7, 100, 101, 399, 400, 1000} {
		for _, win := range toyWindows {
			runPair(t, 3, win, 8, 400, until, nil)
		}
	}
}

// TestExecutorDeadTailOvershoot: when the boundary window's seq-tail has
// expired and the next live event lies beyond until, serial Run executes
// that one extra event before stopping (and the subsequent boundary stop
// rewinds the clock to until); the executor must reproduce both quirks
// at every window width. The ticks stop at 400 and their last pokes land
// by 405, so at t=450 a lone expired timer is the whole cycle, and the
// pop-until-live chain skips past it to the call at t=500 — which must
// run on both sides.
func TestExecutorDeadTailOvershoot(t *testing.T) {
	for _, win := range toyWindows {
		var ran [2]bool // serial, executor
		side := 0
		runPair(t, 2, win, 4, 400, 450, func(k *sim.Kernel, m *toy) {
			mine := &ran[side]
			side++
			m.calls = []func(){func() { *mine = true }}
			i := m.timer()
			m.arm(i, 450, 0)
			m.timers[i].gen++
			m.at(500, opCall, 1, 0, 0)
		})
		if !ran[0] || !ran[1] {
			t.Fatalf("win=%d: the event past until ran serially=%v, executor=%v; the overshoot was not reached", win, ran[0], ran[1])
		}
	}
}

// TestExecutorSameWindowCancel: an event expiring a later timer of its
// own shard — one still in the shard's calendar, one staged inside the
// window by an earlier event — must see the expiry land exactly as
// serially. Expiry is read at pop time, which this pins. The expiries
// run inside the parallel phase: at every width above 1 both timers are
// due in the expiring events' own window (asserted), and at width 1 the
// same expiries land on a calendar timer and on a staged one beyond the
// window, which placement keeps, expired, under its stamped seq.
func TestExecutorSameWindowCancel(t *testing.T) {
	for _, win := range toyWindows {
		xm := runPair(t, 2, win, 4, 400, 0, func(k *sim.Kernel, m *toy) {
			// All on slot 1, so one shard owns the timers and their expiry.
			queued, staged := m.timer(), m.timer()
			m.arm(queued, 42, 1)
			m.at(41, opArm, 1, 1, staged) // stages the t=42 timer
			m.at(41, opCancel, 1, 0, queued)
			m.at(41, opCancel, 1, 0, staged)
		})
		if win > 1 && xm.windowCancels != 2 {
			t.Fatalf("win=%d: %d expiries landed inside their parallel window, want 2", win, xm.windowCancels)
		}
	}
}

// TestExecutorCancelAcrossMerge: a timer staged beyond its window and
// expired from the same shard in a later one. The timer sits in its
// shard's calendar from the moment it is staged — a ring slot, or a
// far-tier struct when the delay exceeds the calendar window — and
// placement only relabels its seq in place; the expiry is asked at its
// pop, so the run matches serial whichever tier holds it.
func TestExecutorCancelAcrossMerge(t *testing.T) {
	for _, delay := range []int32{20, 2000} {
		for _, win := range toyWindows {
			xm := runPair(t, 2, win, 4, 400, 0, func(k *sim.Kernel, m *toy) {
				h := m.timer()
				m.at(41, opArm, 1, delay, h)
				m.at(50, opCancel, 1, 0, h) // at least one merge later at every width
			})
			if xm.stagedArms != 1 {
				t.Fatalf("delay=%d win=%d: %d arms staged beyond their window, want 1", delay, win, xm.stagedArms)
			}
		}
	}
}

// foreign is an actor outside the toy model: it has no ShardOf.
type foreign struct{ ran bool }

func (f *foreign) Act(uint8, int32, int32, int32, any) { f.ran = true }

// panicOf runs fn and returns what it panicked with, or nil.
func panicOf(fn func()) (v any) {
	defer func() { v = recover() }()
	fn()
	return nil
}

// TestExecutorRejectsUnshardedActor: an actor that does not implement
// sim.Sharded is a model bug, refused where its event would enter a split
// kernel's calendar — SetCalendars, AtAct (through At), Restore — with a
// report naming the type and the event time. The event never runs
// sharded. Registering one is no error.
func TestExecutorRejectsUnshardedActor(t *testing.T) {
	report := func(t *testing.T, v any) {
		t.Helper()
		if s := fmt.Sprint(v); v == nil || !strings.Contains(s, "*shard.foreign") || !strings.Contains(s, "t=20") {
			t.Fatalf("report = %v, want one naming *shard.foreign at t=20", v)
		}
	}
	t.Run("SetCalendars", func(t *testing.T) {
		k := sim.NewKernel()
		m := newToy(k, 2, 4, 100)
		seedToy(k, m)
		f := &foreign{}
		k.AtAct(20, f, 0, 0, 0, 0, nil)
		pending := k.Pending()
		report(t, panicOf(m.split))
		if k.Calendars() != 1 || k.Pending() != pending {
			t.Fatalf("refused split left %d calendars, %d pending; want 1, %d", k.Calendars(), k.Pending(), pending)
		}
		if panicOf(func() { New(k, m, 5).Close() }) == nil {
			t.Fatal("an executor was built over the unsplit kernel")
		}
		if f.ran {
			t.Fatal("the unsharded event executed")
		}
	})
	t.Run("AtAct", func(t *testing.T) {
		k := sim.NewKernel()
		m := newToy(k, 2, 4, 100)
		seedToy(k, m)
		m.split()
		f := &foreign{}
		pending := k.Pending()
		report(t, panicOf(func() { k.AtAct(20, f, 0, 0, 0, 0, nil) }))
		if k.Pending() != pending {
			t.Fatalf("refused schedule left %d pending, want %d", k.Pending(), pending)
		}
		x := New(k, m, 5)
		defer x.Close()
		if _, err := x.RunCtx(context.Background(), 0); err != nil {
			t.Fatal(err)
		}
		if f.ran {
			t.Fatal("the unsharded event executed")
		}
	})
	t.Run("Restore", func(t *testing.T) {
		k := sim.NewKernel()
		m := newToy(k, 2, 4, 100)
		seedToy(k, m)
		f := &foreign{}
		k.AtAct(20, f, 0, 0, 0, 0, nil)
		snap, err := k.Snapshot(nil)
		if err != nil {
			t.Fatal(err)
		}
		rk := sim.NewKernel()
		rm := newToy(rk, 2, 4, 100)
		rm.split()
		rk.Register(f, 1) // the id it has on k
		report(t, rk.Restore(snap, nil))
		if f.ran {
			t.Fatal("the unsharded event executed")
		}
	})
}

// TestExecutorEmptyCalendar: an empty calendar returns immediately.
func TestExecutorEmptyCalendar(t *testing.T) {
	for _, win := range toyWindows {
		k := sim.NewKernel()
		m := newToy(k, 2, 4, 100)
		m.split()
		x := New(k, m, win)
		if now, err := x.RunCtx(context.Background(), 0); err != nil || now != 0 {
			t.Fatalf("win=%d: empty run = (%d, %v), want (0, nil)", win, now, err)
		}
		x.Close()
	}
}

// TestExecutorRunAfterClose: Close is idempotent and retires the worker
// pool; a later RunCtx must fail at once rather than wake workers that
// have exited and wait on them forever.
func TestExecutorRunAfterClose(t *testing.T) {
	k := sim.NewKernel()
	m := newToy(k, 2, 4, 100)
	seedToy(k, m)
	m.split()
	x := New(k, m, 5)
	x.Close()
	x.Close()
	// The guard context bounds only this test's wait; RunCtx itself gets
	// a context that never ends, as a hung caller would have.
	guard, stop := context.WithTimeout(context.Background(), 10*time.Second)
	defer stop()
	done := make(chan error, 1)
	go func() {
		_, err := x.RunCtx(context.Background(), 0)
		done <- err
	}()
	select {
	case err := <-done:
		if err == nil {
			t.Fatal("RunCtx on a closed executor succeeded")
		}
	case <-guard.Done():
		t.Fatal("RunCtx on a closed executor hung")
	}
	if k.Executed() != 0 {
		t.Fatalf("closed executor executed %d events", k.Executed())
	}
}

// TestExecutorContextCancel: cancellation stops the run with ctx.Err()
// after a strict prefix of the serial schedule.
func TestExecutorContextCancel(t *testing.T) {
	k := sim.NewKernel()
	m := newToy(k, 2, 4, 100000)
	seedToy(k, m)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	m.split()
	x := New(k, m, 5)
	defer x.Close()
	if _, err := x.RunCtx(ctx, 0); err != context.Canceled {
		t.Fatalf("cancelled run returned %v, want context.Canceled", err)
	}
}

// TestExecutorContextCancelMidRunWindowed: cancelling from inside an
// event (an opCall both schedules carry, so they stay identical; only the
// executor's func is live) stops the windowed executor at the next window
// boundary, having executed a strict — and non-empty — prefix of the
// serial schedule.
func TestExecutorContextCancelMidRunWindowed(t *testing.T) {
	for _, win := range []sim.Time{2, 3, 5} {
		sk := sim.NewKernel()
		sm := newToy(sk, 3, 8, 100000)
		seedToy(sk, sm)
		sm.calls = []func(){func() {}}
		sm.at(500, opCall, 0, 0, 0)
		xk := sim.NewKernel()
		xm := newToy(xk, 3, 8, 100000)
		seedToy(xk, xm)
		ctx, cancel := context.WithCancel(context.Background())
		xm.calls = []func(){cancel}
		xm.at(500, opCall, 0, 0, 0)
		str, xtr := trace(sk), trace(xk)

		sk.Run(2000)
		xm.split()
		x := New(xk, xm, win)
		_, err := x.RunCtx(ctx, 2000)
		x.Close()
		if err != context.Canceled {
			t.Fatalf("win=%d: cancelled run returned %v, want context.Canceled", win, err)
		}
		if len(*xtr) == 0 || len(*xtr) >= len(*str) {
			t.Fatalf("win=%d: cancelled run executed %d events, serial full run %d — want a non-empty strict prefix",
				win, len(*xtr), len(*str))
		}
		for i := range *xtr {
			if (*xtr)[i] != (*str)[i] {
				t.Fatalf("win=%d: cancelled run diverged at event %d: executor (t=%d seq=%d), serial (t=%d seq=%d)",
					win, i, (*xtr)[i][0], (*xtr)[i][1], (*str)[i][0], (*str)[i][1])
			}
		}
	}
}
