package sim

import (
	"context"
	"fmt"
	"strings"
	"testing"
	"testing/quick"
)

// Ops of scriptActor, this file's one actor. Every op first appends its a
// operand to the log.
const (
	opLog    uint8 = iota // nothing more
	opChain               // re-arm (a+1) b cycles ahead while the log is shorter than c (c == 0: forever)
	opBurst               // schedule c opLog events a+1, a+2, … at absolute time b
	opStage               // stage c opLog events a+n, a+2n, … at absolute time b through st[a's calendar], n the calendar count
	opExpire              // expire timer slot c

	// opLogTimer is opLog on an expiring event: timer slot c's, armed under
	// the slot's generation b (arm).
	opLogTimer = OpExpires | opLog
)

// scriptActor logs what ran, in order, and re-schedules per the op table
// above. hook, when set, observes the log length after every event; st
// holds the stages opStage schedules through, one per calendar. gen is
// the timer slots' generation table (Expired).
type scriptActor struct {
	k    *Kernel
	log  []int32
	hook func(n int)
	st   []*Stage
	base int32 // the first of the script's scriptIDs ids
	gen  [4]int32
}

// scriptIDs is how many ids a script holds: id base+i runs on calendar i,
// and an event with operand a uses id base + a mod the calendar count.
const scriptIDs = 8

func (s *scriptActor) Act(op uint8, a, b, c int32, _ any) {
	s.log = append(s.log, a)
	if s.hook != nil {
		s.hook(len(s.log))
	}
	switch op {
	case opChain:
		if c == 0 || len(s.log) < int(c) {
			s.at(s.k.Now()+Time(b), opChain, a+1, b, c)
		}
	case opBurst:
		for i := int32(1); i <= c; i++ {
			s.at(Time(b), opLog, a+i, 0, 0)
		}
	case opStage:
		n := int32(s.k.Calendars())
		st := s.st[uint32(a)%uint32(n)]
		for i := int32(1); i <= c; i++ {
			st.At(Time(b), s.id(a+i*n), opLog, a+i*n, 0, 0)
		}
	case opExpire:
		s.expire(c)
	}
}

// Expired implements Expirer: a timer has expired once its slot's
// generation has moved on.
func (s *scriptActor) Expired(_ uint8, _, b, c int32) bool { return s.gen[c] != b }

// arm schedules an opLogTimer event with operand a for time t on timer slot
// slot, under the slot's next generation: any timer the slot had armed
// expires.
func (s *scriptActor) arm(t Time, a, slot int32) {
	s.gen[slot]++
	s.at(t, opLogTimer, a, s.gen[slot], slot)
}

// expire expires slot's armed timer, if it has one.
func (s *scriptActor) expire(slot int32) { s.gen[slot]++ }

// ShardOf spreads the script over a split kernel's calendars: its i-th id
// runs on calendar i.
func (s *scriptActor) ShardOf(i int) int { return i }

// id returns the id of the script's events with operand a: they belong
// to calendar a mod the calendar count.
func (s *scriptActor) id(a int32) int32 {
	return s.base + int32(uint32(a)%uint32(s.k.Calendars()))
}

// at schedules the script's event (op, a, b, c) for time t.
func (s *scriptActor) at(t Time, op uint8, a, b, c int32) {
	s.k.At(t, s.id(a), op, a, b, c)
}

// newScript returns a kernel and a scriptActor registered with it.
func newScript() (*Kernel, *scriptActor) {
	k := NewKernel()
	s := &scriptActor{k: k}
	s.base = k.Register(s, scriptIDs)
	return k, s
}

func TestKernelOrdering(t *testing.T) {
	k, s := newScript()
	s.at(30, opLog, 3, 0, 0)
	s.at(10, opLog, 1, 0, 0)
	s.at(20, opLog, 2, 0, 0)
	k.Run(0)
	if got := s.log; len(got) != 3 || got[0] != 1 || got[1] != 2 || got[2] != 3 {
		t.Fatalf("execution order %v", got)
	}
	if k.Now() != 30 {
		t.Fatalf("Now() = %d, want 30", k.Now())
	}
}

// TestKernelFIFOWithinTimestamp: events at the same time run in schedule
// order (determinism requirement).
func TestKernelFIFOWithinTimestamp(t *testing.T) {
	k, s := newScript()
	for i := int32(0); i < 100; i++ {
		s.at(5, opLog, i, 0, 0)
	}
	k.Run(0)
	for i, v := range s.log {
		if v != int32(i) {
			t.Fatalf("same-timestamp events reordered: %v at %d", v, i)
		}
	}
}

func TestKernelNestedScheduling(t *testing.T) {
	k, s := newScript()
	s.at(0, opChain, 0, 7, 10)
	k.Run(0)
	if len(s.log) != 10 {
		t.Fatalf("count = %d", len(s.log))
	}
	if k.Now() != 63 {
		t.Fatalf("Now() = %d, want 63", k.Now())
	}
}

// TestKernelCancel: an expired timer does not run, is not counted, and
// counts as pending until it is popped; expiring twice, or after the
// timer ran, is a no-op, and re-arming a slot expires its earlier timer.
func TestKernelCancel(t *testing.T) {
	k, s := newScript()
	s.arm(10, 0, 0)
	s.expire(0)
	if k.Pending() != 1 {
		t.Fatalf("pending = %d, want the expired timer until it is popped", k.Pending())
	}
	k.Run(0)
	if len(s.log) != 0 || k.Executed() != 0 || k.Pending() != 0 {
		t.Fatalf("log = %v, executed %d, pending %d: the expired timer ran, counted or stayed", s.log, k.Executed(), k.Pending())
	}
	s.expire(0)
	s.arm(20, 1, 0)
	k.Run(0)
	s.expire(0)
	if len(s.log) != 1 || s.log[0] != 1 {
		t.Fatalf("log = %v, want the one live timer", s.log)
	}
	s.arm(30, 2, 1)
	s.arm(40, 3, 1)
	k.Run(0)
	if len(s.log) != 2 || s.log[1] != 3 || k.Now() != 40 {
		t.Fatalf("log = %v at %d, want the re-armed timer alone at 40", s.log, k.Now())
	}
}

// TestExpiringOpNeedsExpirer: an OpExpires event whose actor does not
// implement Expirer is a model bug, refused when it is popped with a
// report naming the actor's type.
func TestExpiringOpNeedsExpirer(t *testing.T) {
	k := NewKernel()
	ran := false
	k.AtAct(5, fn(func(int32) { ran = true }), OpExpires|1, 0, 0, 0, nil)
	v := func() (v any) {
		defer func() { v = recover() }()
		k.Run(0)
		return nil
	}()
	if s := fmt.Sprint(v); v == nil || !strings.Contains(s, "*sim.funcActor") || !strings.Contains(s, "Expirer") {
		t.Fatalf("Run panicked with %v, want a report naming *sim.funcActor and Expirer", v)
	}
	if ran {
		t.Fatal("the event ran")
	}
}

func TestKernelRunUntil(t *testing.T) {
	k, s := newScript()
	for _, at := range []int32{5, 15, 25} {
		s.at(Time(at), opLog, at, 0, 0)
	}
	k.Run(10)
	if len(s.log) != 1 || k.Now() != 10 {
		t.Fatalf("after Run(10): got=%v now=%d", s.log, k.Now())
	}
	k.Run(0)
	if len(s.log) != 3 {
		t.Fatalf("remaining events not run: %v", s.log)
	}
}

func TestKernelPastSchedulingPanics(t *testing.T) {
	k, s := newScript()
	s.at(10, opLog, 0, 0, 0)
	k.Run(0)
	defer func() {
		if recover() == nil {
			t.Fatal("scheduling in the past did not panic")
		}
	}()
	s.at(5, opLog, 0, 0, 0)
}

// TestKernelHeapProperty: random schedules always execute in
// nondecreasing time order.
func TestKernelHeapProperty(t *testing.T) {
	f := func(times []uint16) bool {
		k, s := newScript()
		for _, at := range times {
			s.at(Time(at), opLog, int32(at), 0, 0)
		}
		k.Run(0)
		if len(s.log) != len(times) {
			return false
		}
		for i := 1; i < len(s.log); i++ {
			if s.log[i] < s.log[i-1] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// TestRunCtxMatchesRun: an uncancelled RunCtx executes exactly the same
// schedule as Run, including the until-boundary clock behaviour.
func TestRunCtxMatchesRun(t *testing.T) {
	build := func() (*Kernel, *scriptActor) {
		k, s := newScript()
		for i, at := range []Time{5, 15, 25, 25, 40} {
			s.at(at, opLog, int32(i), 0, 0)
		}
		return k, s
	}
	ka, sa := build()
	kb, sb := build()
	ka.Run(20)
	ka.Run(0)
	if now, err := kb.RunCtx(context.Background(), 20); err != nil || now != 20 {
		t.Fatalf("RunCtx(20) = %d, %v", now, err)
	}
	if _, err := kb.RunCtx(context.Background(), 0); err != nil {
		t.Fatal(err)
	}
	if len(sa.log) != len(sb.log) || ka.Now() != kb.Now() || ka.Executed() != kb.Executed() {
		t.Fatalf("RunCtx diverged from Run: %v vs %v", sa.log, sb.log)
	}
	for i := range sa.log {
		if sa.log[i] != sb.log[i] {
			t.Fatalf("event order diverged at %d: %v vs %v", i, sa.log, sb.log)
		}
	}
}

// TestRunCtxCancel: a cancelled context stops the run within the poll
// interval and reports ctx.Err; the executed prefix is a prefix of the
// serial schedule.
func TestRunCtxCancel(t *testing.T) {
	k, s := newScript()
	ctx, cancel := context.WithCancel(context.Background())
	s.hook = func(n int) {
		if n == 3*pollEvery {
			cancel()
		}
	}
	s.at(0, opChain, 0, 1, 0)
	if _, err := k.RunCtx(ctx, 0); err != context.Canceled {
		t.Fatalf("RunCtx error = %v, want context.Canceled", err)
	}
	if n := len(s.log); n < 3*pollEvery || n > 4*pollEvery {
		t.Fatalf("stopped after %d events, want within one poll interval of %d", n, 3*pollEvery)
	}
}

func TestKernelExecutedAndPending(t *testing.T) {
	k, s := newScript()
	s.at(1, opLog, 0, 0, 0)
	s.at(2, opLog, 0, 0, 0)
	if k.Pending() != 2 {
		t.Fatalf("pending = %d", k.Pending())
	}
	k.Run(0)
	if k.Executed() != 2 || k.Pending() != 0 {
		t.Fatalf("executed=%d pending=%d", k.Executed(), k.Pending())
	}
}
