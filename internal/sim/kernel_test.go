package sim

import (
	"context"
	"testing"
	"testing/quick"
)

// Ops of scriptActor, this file's one actor. Every op first appends its a
// operand to the log.
const (
	opLog   uint8 = iota // nothing more
	opChain              // re-arm (a+1) b cycles ahead while the log is shorter than c (c == 0: forever)
	opBurst              // schedule c opLog events a+1, a+2, … at absolute time b
)

// scriptActor logs what ran, in order, and re-schedules per the op table
// above. hook, when set, observes the log length after every event.
type scriptActor struct {
	k    *Kernel
	log  []int32
	hook func(n int)
}

func (s *scriptActor) Act(op uint8, a, b, c int32, _ any) {
	s.log = append(s.log, a)
	if s.hook != nil {
		s.hook(len(s.log))
	}
	switch op {
	case opChain:
		if c == 0 || len(s.log) < int(c) {
			s.k.AfterAct(Time(b), s, opChain, a+1, b, c, nil)
		}
	case opBurst:
		for i := int32(1); i <= c; i++ {
			s.k.AtAct(Time(b), s, opLog, a+i, 0, 0, nil)
		}
	}
}

// ShardOf spreads the script over a split kernel's calendars: a event
// belongs to calendar a mod the calendar count.
func (s *scriptActor) ShardOf(_ uint8, a, _, _ int32, _ any) int {
	return int(uint32(a) % uint32(s.k.Calendars()))
}

// newScript returns a kernel and a scriptActor bound to it.
func newScript() (*Kernel, *scriptActor) {
	k := NewKernel()
	return k, &scriptActor{k: k}
}

func TestKernelOrdering(t *testing.T) {
	k, s := newScript()
	k.AtAct(30, s, opLog, 3, 0, 0, nil)
	k.AtAct(10, s, opLog, 1, 0, 0, nil)
	k.AtAct(20, s, opLog, 2, 0, 0, nil)
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
		k.AtAct(5, s, opLog, i, 0, 0, nil)
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
	k.AtAct(0, s, opChain, 0, 7, 10, nil)
	k.Run(0)
	if len(s.log) != 10 {
		t.Fatalf("count = %d", len(s.log))
	}
	if k.Now() != 63 {
		t.Fatalf("Now() = %d, want 63", k.Now())
	}
}

func TestKernelCancel(t *testing.T) {
	k, s := newScript()
	e := k.AtAct(10, s, opLog, 0, 0, 0, nil)
	k.Cancel(e)
	k.Run(0)
	if len(s.log) != 0 {
		t.Fatal("cancelled event ran")
	}
	// Double-cancel and cancel-after-run are no-ops.
	k.Cancel(e)
	e2 := k.AtAct(20, s, opLog, 0, 0, 0, nil)
	k.Run(0)
	k.Cancel(e2)
	if len(s.log) != 1 {
		t.Fatalf("log = %v, want the one live event", s.log)
	}
}

func TestKernelRunUntil(t *testing.T) {
	k, s := newScript()
	for _, at := range []int32{5, 15, 25} {
		k.AtAct(Time(at), s, opLog, at, 0, 0, nil)
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
	k.AtAct(10, s, opLog, 0, 0, 0, nil)
	k.Run(0)
	defer func() {
		if recover() == nil {
			t.Fatal("scheduling in the past did not panic")
		}
	}()
	k.AtAct(5, s, opLog, 0, 0, 0, nil)
}

// TestKernelHeapProperty: random schedules always execute in
// nondecreasing time order.
func TestKernelHeapProperty(t *testing.T) {
	f := func(times []uint16) bool {
		k, s := newScript()
		for _, at := range times {
			k.AtAct(Time(at), s, opLog, int32(at), 0, 0, nil)
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
			k.AtAct(at, s, opLog, int32(i), 0, 0, nil)
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
	k.AtAct(0, s, opChain, 0, 1, 0, nil)
	if _, err := k.RunCtx(ctx, 0); err != context.Canceled {
		t.Fatalf("RunCtx error = %v, want context.Canceled", err)
	}
	if n := len(s.log); n < 3*pollEvery || n > 4*pollEvery {
		t.Fatalf("stopped after %d events, want within one poll interval of %d", n, 3*pollEvery)
	}
}

func TestKernelExecutedAndPending(t *testing.T) {
	k, s := newScript()
	k.AtAct(1, s, opLog, 0, 0, 0, nil)
	k.AtAct(2, s, opLog, 0, 0, 0, nil)
	if k.Pending() != 2 {
		t.Fatalf("pending = %d", k.Pending())
	}
	k.Run(0)
	if k.Executed() != 2 || k.Pending() != 0 {
		t.Fatalf("executed=%d pending=%d", k.Executed(), k.Pending())
	}
}
