package shard

// Executor tests against a toy sharded model, independent of the network:
// a ring of counter slots where each event increments its slot and
// schedules follow-on events, sometimes across shards. The toy implements
// the same staging discipline as internal/network (stage into the
// executing shard, window-local execution via Stage.RunWindow, merge
// replays in global (time, seq) order), so these tests pin the executor's
// serial-equivalence edge cases — until boundaries, dead seq-tails,
// windowed cancellation — with exact expectations computed from a serial
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
// its staging rank (seq stamped at the merge).
type toyRec struct {
	at     sim.Time
	seq    uint64
	staged bool
	opsEnd int
}

// toyShardRec is shard s's sim.Recorder, and its placement's
// sim.Rebinder.
type toyShardRec struct {
	m       *toy
	s       int
	rebinds int
}

func (r *toyShardRec) Record(at sim.Time, seq uint64, staged bool) {
	m, s := r.m, r.s
	m.recs[s] = append(m.recs[s], toyRec{at: at, seq: seq, staged: staged, opsEnd: m.stages[s].StagedLen()})
}

// Rebind repoints the kept handles shard s's own events staged: opArm
// arms a poke on its own slot, so the kept event targets the stager's
// shard, and placement on that shard is the only writer.
func (r *toyShardRec) Rebind(staged, placed *sim.Event) {
	for _, h := range r.m.holders[r.s] {
		if *h == staged {
			*h = placed
			r.rebinds++
		}
	}
}

// toy is a sharded model over nsh counter slots; slot i lives on shard
// i%nsh. Each event increments slot a and, while below limit, schedules
// the slot's next tick at +3; every third tick also pokes slot a+1 at +5
// — cross-shard traffic whose ordering the merge must serialize.
type toy struct {
	k       *sim.Kernel
	stages  []*sim.Stage
	srecs   []*toyShardRec
	recs    [][]toyRec
	cur     []int
	slots   []int64
	sharded bool
	limit   sim.Time

	// winEnd is the open window's exclusive end; windowCancels counts
	// opCancel events whose victim was due inside the window they ran in —
	// the cancels that land mid-parallel-phase rather than on the calendar.
	winEnd        sim.Time
	windowCancels int

	// holders[s] are the handle cells opArm filled from shard s's stage
	// this window; placement repoints the ones whose event entered the
	// calendar (toyShardRec.Rebind) and counts them.
	holders [][]**sim.Event
}

// Toy ops. Every op increments slot a first.
const (
	opTick   uint8 = iota // re-arm at +3 (b counts ticks); every third also pokes slot a+1 at +5
	opPoke                // nothing more
	opArm                 // schedule a poke on slot a at +b, leaving its handle in *p.(**sim.Event)
	opCancel              // cancel the handle in *p.(**sim.Event)
	opCall                // call p.(context.CancelFunc)
)

func newToy(k *sim.Kernel, nsh, slots int, limit sim.Time) *toy {
	m := &toy{k: k, slots: make([]int64, slots), limit: limit}
	for s := 0; s < nsh; s++ {
		m.stages = append(m.stages, sim.NewStage(s, nsh))
		m.srecs = append(m.srecs, &toyShardRec{m: m, s: s})
		m.recs = append(m.recs, nil)
		m.cur = append(m.cur, 0)
		m.holders = append(m.holders, nil)
	}
	return m
}

func (m *toy) shardOf(slot int32) int { return int(slot) % len(m.stages) }

// ShardOf implements sim.Sharded.
func (m *toy) ShardOf(_ uint8, a, _, _ int32, _ any) int { return m.shardOf(a) }

// Act implements sim.Actor.
func (m *toy) Act(op uint8, a, b, _ int32, p any) {
	m.slots[a]++
	sched := func(at sim.Time, op uint8, slot, gen int32) *sim.Event {
		if m.sharded {
			// Stage into the EXECUTING shard (slot a's), whatever shard the
			// new event will run on — the merge replays it from here.
			return m.stages[m.shardOf(a)].AtAct(at, m, op, slot, gen, 0, nil)
		}
		return m.k.AtAct(at, m, op, slot, gen, 0, nil)
	}
	now := m.now(a)
	switch op {
	case opTick:
		if now+3 <= m.limit {
			sched(now+3, opTick, a, b+1)
		}
		if b%3 == 0 {
			sched(now+5, opPoke, (a+1)%int32(len(m.slots)), 0)
		}
	case opArm:
		h := p.(**sim.Event)
		*h = sched(now+sim.Time(b), opPoke, a, 0)
		if m.sharded {
			m.stages[m.shardOf(a)].Keep(*h)
			m.holders[m.shardOf(a)] = append(m.holders[m.shardOf(a)], h)
		}
	case opCancel:
		victim := *p.(**sim.Event)
		if m.sharded && victim.At() < m.winEnd {
			m.windowCancels++
		}
		m.k.Cancel(victim)
	case opCall:
		p.(context.CancelFunc)()
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

// Rebind implements sim.Rebinder for SetCalendars, which moves every
// pending event: any handle cell holding an old address is repointed.
func (m *toy) Rebind(old, placed *sim.Event) {
	for _, hs := range m.holders {
		for _, h := range hs {
			if *h == old {
				*h = placed
			}
		}
	}
}

// rebinds counts the kept handles placement repointed, over every shard.
func (m *toy) rebinds() int {
	n := 0
	for _, r := range m.srecs {
		n += r.rebinds
	}
	return n
}

func (m *toy) NumShards() int { return len(m.stages) }

// split gives the toy's kernel one calendar per shard, as
// network.ConfigureShards does; the executor requires it.
func (m *toy) split() { m.k.SetCalendars(len(m.stages), m) }

// PartitionWindow stages the toy until MergeWindow returns, as the
// network model does.
func (m *toy) PartitionWindow(batch []*sim.Event, winEnd sim.Time) bool {
	if len(batch) > 0 {
		return false
	}
	m.winEnd = winEnd
	for s := range m.stages {
		m.stages[s].StartWindow(winEnd)
	}
	m.sharded = true
	return true
}

func (m *toy) BatchLen(s int) int {
	if m.stages[s].StagedLen() > 0 || m.k.Due(s, m.winEnd) {
		return 1
	}
	return 0
}

func (m *toy) RunShard(s int) {
	m.stages[s].ResetOps()
	m.holders[s] = m.holders[s][:0]
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
			at, seq := rec.at, rec.seq
			if rec.staged {
				seq = m.stages[s].Seq(int(seq)) // stamped by this shard's earlier record
			}
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

func (m *toy) PlaceLen(s int) int {
	n := 0
	for _, st := range m.stages {
		n += st.Outgoing(s)
	}
	return n
}

func (m *toy) PlaceShard(s int) { m.k.Place(s, m.stages, m.srecs[s]) }

// trace captures the executed (time, seq) stream of a kernel.
func trace(k *sim.Kernel) *[][2]uint64 {
	var tr [][2]uint64
	k.TraceExec = func(at sim.Time, seq uint64) { tr = append(tr, [2]uint64{uint64(at), seq}) }
	return &tr
}

// seedToy schedules the initial ticks: one per slot at staggered times.
func seedToy(k *sim.Kernel, m *toy) {
	for i := range m.slots {
		k.AtAct(sim.Time(1+i%4), m, opTick, int32(i), 0, 0, nil)
	}
}

// runPair runs the seeded toy serially and under the executor and
// requires identical traces, slots and end state. mutate, when non-nil,
// adds the same extra schedule to each kernel/model pair in turn. It
// returns the executor-side model for path assertions.
func runPair(t *testing.T, nsh int, win sim.Time, slots int, limit, until sim.Time, mutate func(k *sim.Kernel, m *toy)) *toy {
	t.Helper()
	sk := sim.NewKernel()
	sm := newToy(sk, nsh, slots, limit)
	seedToy(sk, sm)
	xk := sim.NewKernel()
	xm := newToy(xk, nsh, slots, limit)
	seedToy(xk, xm)
	// Split after seeding, so the move to per-shard calendars is part of
	// every run, and before mutate, whose handles must be the final ones.
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

// TestExecutorDeadTailOvershoot: when the boundary window's seq-tail is
// dead and the next live event lies beyond until, serial Run executes
// that one extra event before stopping (and the subsequent boundary stop
// rewinds the clock to until); the executor must reproduce both quirks
// at every window width.
func TestExecutorDeadTailOvershoot(t *testing.T) {
	for _, win := range toyWindows {
		// A lone dead event at the boundary cycle, nothing else there: the
		// pop-until-live chain skips past it into the next cycle.
		runPair(t, 2, win, 4, 400, 50, func(k *sim.Kernel, m *toy) {
			k.Cancel(k.AtAct(50, m, opPoke, 0, 0, 0, nil))
		})
	}
}

// TestExecutorSameWindowCancel: an event cancelling a later event of its
// own shard — one still in the shard's calendar, one staged inside the
// window by an earlier event — must see the cancel land exactly as
// serially. Deadness is read at pop time, which this pins. The cancels
// run inside the parallel phase: at every width above 1 both victims are
// due in the cancellers' own window (asserted), and at width 1 the same
// cancels land on a calendar event and on a staged event the merge then
// places dead.
func TestExecutorSameWindowCancel(t *testing.T) {
	for _, win := range toyWindows {
		xm := runPair(t, 2, win, 4, 400, 0, func(k *sim.Kernel, m *toy) {
			// All on slot 1, so one shard owns canceller and victim alike.
			queued := k.AtAct(42, m, opPoke, 1, 0, 0, nil)
			staged := new(*sim.Event)
			k.AtAct(41, m, opArm, 1, 1, 0, staged) // stages the t=42 victim
			k.AtAct(41, m, opCancel, 1, 0, 0, &queued)
			k.AtAct(41, m, opCancel, 1, 0, 0, staged)
		})
		if win > 1 && xm.windowCancels != 2 {
			t.Fatalf("win=%d: %d cancels landed inside their parallel window, want 2", win, xm.windowCancels)
		}
	}
}

// TestExecutorCancelAcrossMerge: a handle taken from Stage.AtAct in one
// window and cancelled from the same shard in a later one. The merge in
// between copies the staged event into the calendar — a ring slot, or a
// far-tier struct when the delay exceeds the calendar window — so the
// cancel only lands if the handle was repointed at the copy.
func TestExecutorCancelAcrossMerge(t *testing.T) {
	for _, delay := range []int32{20, 2000} {
		for _, win := range toyWindows {
			xm := runPair(t, 2, win, 4, 400, 0, func(k *sim.Kernel, m *toy) {
				h := new(*sim.Event)
				k.AtAct(41, m, opArm, 1, delay, 0, h)
				k.AtAct(50, m, opCancel, 1, 0, 0, h) // at least one merge later at every width
			})
			if n := xm.rebinds(); n != 1 {
				t.Fatalf("delay=%d win=%d: %d handles repointed at placement, want 1", delay, win, n)
			}
		}
	}
}

// foreign is an actor outside the toy model: it has no ShardOf.
type foreign struct{ ran bool }

func (f *foreign) Act(uint8, int32, int32, int32, any) { f.ran = true }

// toyCoder is a sim.EventCoder over a fixed actor table, for payload-free
// events.
type toyCoder []sim.Actor

func (c toyCoder) EncodeActor(a sim.Actor) (uint64, error) {
	for i, x := range c {
		if x == a {
			return uint64(i), nil
		}
	}
	return 0, fmt.Errorf("unknown actor %T", a)
}

func (c toyCoder) DecodeActor(code uint64) (sim.Actor, error) { return c[code], nil }
func (toyCoder) EncodePayload(uint8, any) (uint64, error)     { return 0, nil }
func (toyCoder) DecodePayload(uint8, uint64) (any, error)     { return nil, nil }

// panicOf runs fn and returns what it panicked with, or nil.
func panicOf(fn func()) (v any) {
	defer func() { v = recover() }()
	fn()
	return nil
}

// TestExecutorRejectsUnshardedActor: an actor that does not implement
// sim.Sharded is a model bug, refused where its event would enter a split
// kernel's calendar — SetCalendars, AtAct, Restore — with a report naming
// the type and the event time. The event never runs sharded.
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
		snap, err := k.Snapshot(toyCoder{m, f})
		if err != nil {
			t.Fatal(err)
		}
		rk := sim.NewKernel()
		rm := newToy(rk, 2, 4, 100)
		rm.split()
		report(t, rk.Restore(snap, toyCoder{rm, f}, nil))
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
		sk.AtAct(500, sm, opCall, 0, 0, 0, context.CancelFunc(func() {}))
		xk := sim.NewKernel()
		xm := newToy(xk, 3, 8, 100000)
		seedToy(xk, xm)
		ctx, cancel := context.WithCancel(context.Background())
		xk.AtAct(500, xm, opCall, 0, 0, 0, cancel)
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
