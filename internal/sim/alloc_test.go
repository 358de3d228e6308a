package sim

// Allocation regression tests for the kernel hot path. The calendar-queue
// rewrite exists to make steady-state scheduling free of per-event heap
// work; these tests pin that property so it cannot silently rot. They
// count every allocation of a few thousand operations (countMallocs), not
// a per-operation average, which would round a rare one down to zero.

import (
	"fmt"
	"runtime"
	"strings"
	"testing"
)

// runtimeAllocs is how many allocations countMallocs forgives: the count
// is the process's, and the runtime allocates on its own now and then (a
// timer heap growing), so that many objects are its and not the kernel's.
const runtimeAllocs = 2

// countMallocs returns how many heap objects f allocates, on one P.
func countMallocs(f func()) uint64 {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	f()
	runtime.ReadMemStats(&after)
	return after.Mallocs - before.Mallocs
}

// countActor is a minimal sim.Actor that records its invocations. Its
// expiring events carry a generation in b, and have expired once gen has
// moved on.
type countActor struct {
	n    int
	last [3]int32
	op   uint8
	p    any
	gen  int32
}

func (a *countActor) Expired(_ uint8, _, b, _ int32) bool { return b != a.gen }

func (a *countActor) Act(op uint8, x, y, z int32, p any) {
	a.n++
	a.op = op
	a.last = [3]int32{x, y, z}
	a.p = p
}

// warmKernel cycles enough typed events through k to stock the chunk free
// list, so subsequent scheduling exercises only the steady-state path.
func warmKernel(k *Kernel, act Actor) {
	for i := 0; i < 4*ringSize; i++ {
		k.AtAct(k.Now()+Time(i%7)+1, act, 0, 0, 0, 0, nil)
	}
	k.Run(0)
}

// TestTypedScheduleDispatchZeroAlloc: one AtAct plus its dispatch allocates
// nothing once the pool and ring are warm — the invariant that makes the
// router pipeline's per-flit events free.
func TestTypedScheduleDispatchZeroAlloc(t *testing.T) {
	k := NewKernel()
	act := &countActor{}
	warmKernel(k, act)
	allocs := countMallocs(func() {
		for i := 0; i < 2000; i++ {
			k.AtAct(k.Now()+1, act, 3, 7, -1, 9, nil)
			k.Step()
		}
	})
	if allocs > runtimeAllocs {
		t.Fatalf("2000 typed schedule+dispatch pairs allocated %d objects, want at most the runtime's own %d", allocs, runtimeAllocs)
	}
}

// TestReserveColdScheduleZeroAlloc: a kernel pre-sized with Reserve
// schedules and dispatches without any warm-up traffic — the build-time
// path the network model uses so a sweep point's first cycles don't pay
// pool-growth allocations. The actor is registered first, as a model
// registers its actors at build.
func TestReserveColdScheduleZeroAlloc(t *testing.T) {
	k := NewKernel()
	act := &countActor{}
	k.idOf(act)
	k.Reserve(1024)
	allocs := countMallocs(func() {
		for i := 0; i < 2000; i++ {
			k.AtAct(k.Now()+1, act, 0, 0, 0, 0, nil)
			k.AtAct(k.Now()+3, act, 0, 0, 0, 0, nil)
			k.Step()
			k.Step()
		}
	})
	if allocs > runtimeAllocs {
		t.Fatalf("2000 reserved-kernel schedule+dispatch rounds allocated %d objects, want at most the runtime's own %d", allocs, runtimeAllocs)
	}
}

// TestReservePreservesPendingOrder: Reserve on a kernel that already
// holds events only stocks the free list; pending FIFO order is untouched.
func TestReservePreservesPendingOrder(t *testing.T) {
	k, s := newScript()
	for i := int32(0); i < 40; i++ {
		s.at(Time(1+i%5), opLog, i, 0, 0)
	}
	k.Reserve(512)
	k.Run(0)
	got := s.log
	if len(got) != 40 {
		t.Fatalf("executed %d events, want 40", len(got))
	}
	for i := 1; i < len(got); i++ {
		a, b := got[i-1], got[i]
		// Same-time events (equal i%5) must keep schedule order.
		if a%5 == b%5 && a > b {
			t.Fatalf("FIFO violated after Reserve: %d before %d", a, b)
		}
	}
}

// TestTypedEventDelivery: At and the AtAct adapter pass the op code and
// arguments through to the actor unchanged, at the scheduled time, with a
// nil payload; both land on the actor's one id.
func TestTypedEventDelivery(t *testing.T) {
	k := NewKernel()
	act := &countActor{p: "unset"}
	k.AtAct(5, act, 9, 1, -2, 3, nil)
	k.Run(0)
	if act.n != 1 || act.op != 9 || act.last != [3]int32{1, -2, 3} || act.p != nil {
		t.Fatalf("typed event delivered wrong values: n=%d op=%d args=%v p=%v",
			act.n, act.op, act.last, act.p)
	}
	if k.Now() != 5 {
		t.Fatalf("Now() = %d, want 5", k.Now())
	}
	id := k.idOf(act)
	k.At(7, id, 4, -1, 0, 1)
	k.Run(0)
	if act.n != 2 || act.op != 4 || act.last != [3]int32{-1, 0, 1} || k.Actors() != 1 || k.Actor(id) != Actor(act) {
		t.Fatalf("At on the adapter's id delivered n=%d op=%d args=%v over %d ids", act.n, act.op, act.last, k.Actors())
	}
}

// TestAtActPanicsOnPayload: an event carries no payload, so the adapter
// refuses one with a message naming its type, and schedules nothing.
func TestAtActPanicsOnPayload(t *testing.T) {
	k := NewKernel()
	act := &countActor{}
	defer func() {
		v := recover()
		if s := fmt.Sprint(v); v == nil || !strings.Contains(s, "*int") || !strings.Contains(s, "payload") {
			t.Fatalf("AtAct with a payload panicked with %v, want a message naming the payload's type", v)
		}
		if k.Pending() != 0 {
			t.Fatalf("the refused event is pending (%d)", k.Pending())
		}
	}()
	k.AtAct(5, act, 0, 0, 0, 0, new(int))
}

// TestTypedEventCancel: an expiring event scheduled through AfterAct is
// skipped once its actor reports it expired, and runs while it does not.
func TestTypedEventCancel(t *testing.T) {
	k := NewKernel()
	act := &countActor{}
	k.AfterAct(10, act, OpExpires|2, 0, 0, 0, nil)
	act.gen++
	k.AfterAct(20, act, OpExpires|2, 0, act.gen, 0, nil)
	k.Run(0)
	if act.n != 1 || act.op != OpExpires|2 || k.Executed() != 1 || k.Now() != 20 {
		t.Fatalf("ran %d events (executed %d, now %d), want only the live one at 20", act.n, k.Executed(), k.Now())
	}
}

// TestFIFOAcrossTiers: events landing in the far-future heap keep FIFO
// order among equal timestamps relative to events scheduled directly into
// the window once it has slid over their time.
func TestFIFOAcrossTiers(t *testing.T) {
	k, s := newScript()
	const at = ringSize + 500 // beyond the initial window: lands in the far heap
	for i := int32(0); i < 50; i++ {
		s.at(at, opLog, i, 0, 0)
	}
	// Drag the window forward over the far events' time, then add more at
	// the same timestamp directly into the ring. The burst runs first and
	// logs its own operand, 49, ahead of everything at `at`.
	s.at(at-100, opBurst, 49, at, 50)
	k.Run(0)
	if len(s.log) != 101 {
		t.Fatalf("executed %d events, want 101", len(s.log))
	}
	for i, v := range s.log[1:] {
		if v != int32(i) {
			t.Fatalf("cross-tier FIFO violated at %d: got %v", i, s.log[1:i+2])
		}
	}
}
