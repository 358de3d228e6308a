package sim

// Tests for the calendar's storage: events live by value in per-bucket
// chunk chains. The layout facts the design rests on, the three ways a
// chunked FIFO with address handles goes wrong, and the footprint
// property (memory follows pending events, not ring size × peak bucket).

import (
	"testing"
	"unsafe"
)

// numChunks counts every chunk the kernel has ever allocated: chunks are
// never handed back to the runtime, so each one is in a bucket, parked, or
// on the free list.
func numChunks(k *Kernel) int {
	n := 0
	for i := range k.ring {
		for c := k.ring[i].head; c != nil; c = c.next {
			n++
		}
	}
	for c := k.spent; c != nil; c = c.next {
		n++
	}
	for c := k.chunks; c != nil; c = c.next {
		n++
	}
	return n
}

// funcActor runs a closure with the event's a operand.
type funcActor func(a int32)

func (f funcActor) Act(_ uint8, a, _, _ int32, _ any) { f(a) }

// TestEventIsOneCacheLine: an Event is exactly 64 bytes and every slot of
// every chunk — from Reserve's slab or from on-demand growth — starts on
// a 64-byte boundary. Shrinking Event would put two events on one line, and
// two shards executing neighbouring drained events would then write the
// same line in the parallel phase.
func TestEventIsOneCacheLine(t *testing.T) {
	if n := unsafe.Sizeof(Event{}); n != 64 {
		t.Fatalf("sizeof(Event) = %d, want exactly 64", n)
	}
	if n := unsafe.Sizeof(chunk{}); n != 4096 {
		t.Fatalf("sizeof(chunk) = %d, want one 4 KiB page", n)
	}
	k := NewKernel()
	k.Reserve(3 * chunkCap)
	reserved := numChunks(k)
	act := funcActor(func(int32) {})
	for i := 0; i < 3*chunkSlab*chunkCap; i++ { // outgrows the reserve: the rest is on-demand growth
		e := k.AtAct(Time(i%2), act, 0, 0, 0, 0, nil)
		if a := uintptr(unsafe.Pointer(e)); a%64 != 0 {
			t.Fatalf("event %d at %#x is not 64-byte aligned", i, a)
		}
	}
	if n := numChunks(k); n <= reserved {
		t.Fatalf("allocated %d chunks; the test meant to outgrow Reserve's %d", n, reserved)
	}
}

// TestBucketHeadChunkExhaustedBehindTail: a bucket spanning several chunks
// whose head chunk is fully consumed while later chunks hold events — and
// more are appended at the same timestamp meanwhile — loses nothing and
// stays FIFO. (Treating "read index reached the head's fill" as "bucket
// empty" silently drops every chunk behind the head.)
func TestBucketHeadChunkExhaustedBehindTail(t *testing.T) {
	const n, extra = 3*chunkCap + 10, 2 * chunkCap
	for _, consumed := range []int{1, chunkCap - 1, chunkCap, chunkCap + 1, 2 * chunkCap, n - 1} {
		// Serial: event number `consumed` is a burst appending to its own
		// bucket from inside the callback.
		k, s := newScript()
		for i := int32(0); i < n; i++ {
			if int(i) == consumed {
				k.AtAct(5, s, opBurst, 1000, 5, extra, nil)
				continue
			}
			k.AtAct(5, s, opLog, i, 0, 0, nil)
		}
		k.Run(0)
		if len(s.log) != n+extra {
			t.Fatalf("consumed=%d: executed %d events, want %d", consumed, len(s.log), n+extra)
		}
		for i, v := range s.log {
			want := int32(i)
			switch {
			case i == consumed:
				want = 1000
			case i >= n:
				want = 1000 + int32(i-n) + 1
			}
			if v != want {
				t.Fatalf("consumed=%d: log[%d] = %d, want %d", consumed, i, v, want)
			}
		}

		// DrainWindow: part-consume with Step, append directly, drain.
		k, s = newScript()
		for i := int32(0); i < n; i++ {
			k.AtAct(5, s, opLog, i, 0, 0, nil)
		}
		for i := 0; i < consumed; i++ {
			k.Step()
		}
		for i := int32(0); i < extra; i++ {
			k.AtAct(5, s, opLog, n+i, 0, 0, nil)
		}
		batch := k.DrainWindow(6, nil)
		if len(batch) != n+extra-consumed || k.Pending() != 0 {
			t.Fatalf("consumed=%d: drained %d events (pending %d), want %d (0)", consumed, len(batch), k.Pending(), n+extra-consumed)
		}
		for i, e := range batch {
			if e.a != int32(consumed+i) {
				t.Fatalf("consumed=%d: batch[%d].a = %d, want %d", consumed, i, e.a, consumed+i)
			}
		}
	}
}

// TestFarAndRingShareATimestamp: events pushed on the far heap stay there
// when the window slides over their time; later direct ring appends at
// the same timestamp run after them, in seq order, and a Cancel on a far
// handle still lands.
func TestFarAndRingShareATimestamp(t *testing.T) {
	k, s := newScript()
	const at = ringSize + 500
	var far []*Event
	for i := int32(0); i < 50; i++ {
		far = append(far, k.AtAct(at, s, opLog, i, 0, 0, nil))
	}
	k.AtAct(at-100, s, opBurst, -1, at, 50, nil) // window now covers `at`: 50 direct appends, logged as 0..49
	k.AtAct(at-50, funcActor(func(int32) {
		if k.winStart+ringSize <= at || len(k.far.h) != 50 {
			t.Errorf("window [%d, +%d) with %d far events; the test meant the window to cover t=%d with the far events unmoved", k.winStart, ringSize, len(k.far.h), at)
		}
		k.Cancel(far[10])
		k.Cancel(far[49])
	}), 0, 0, 0, 0, nil)
	var seqs []uint64 // of the events executed at t=at
	k.TraceExec = func(t Time, seq uint64) {
		if t == at {
			seqs = append(seqs, seq)
		}
	}
	k.Run(0)
	var want []int32
	want = append(want, -1)
	for i := int32(0); i < 50; i++ {
		if i != 10 && i != 49 {
			want = append(want, i)
		}
	}
	for i := int32(0); i < 50; i++ {
		want = append(want, i)
	}
	if len(s.log) != len(want) {
		t.Fatalf("executed %d logged events, want %d", len(s.log), len(want))
	}
	for i := range want {
		if s.log[i] != want[i] {
			t.Fatalf("log[%d] = %d, want %d (far tier first, cancelled handles skipped, then the direct appends)", i, s.log[i], want[i])
		}
	}
	for i := 1; i < len(seqs); i++ {
		if seqs[i] <= seqs[i-1] {
			t.Fatalf("same-timestamp events ran out of seq order: %v", seqs)
		}
	}
	if k.Pending() != 0 || len(k.far.h) != 0 {
		t.Fatalf("pending %d, far %d after the run, want 0", k.Pending(), len(k.far.h))
	}
}

// TestCancelOwnExecutingHandle: a callback cancels the handle of its own
// executing event — before and after scheduling well over a chunk's worth
// of events (the model's reroute → unregister → Cancel(w.timer) pattern)
// — and must cancel nothing else: the chunk the executing event sits in,
// exhausted by its pop, is not reusable until the callback has returned.
func TestCancelOwnExecutingHandle(t *testing.T) {
	const burst = 3 * chunkCap
	k := NewKernel()
	ran := 0
	count := funcActor(func(int32) { ran++ })
	var self *Event
	self = k.AtAct(5, funcActor(func(int32) { // alone in its bucket: its pop exhausts the chunk
		k.Cancel(self)
		for i := 0; i < burst; i++ {
			k.AtAct(5+Time(i%3), count, 0, 0, 0, 0, nil)
		}
		k.Cancel(self)
	}), 0, 0, 0, 0, nil)
	k.Run(0)
	if ran != burst {
		t.Fatalf("%d of %d events scheduled by the self-cancelling callback ran", ran, burst)
	}
}

// TestDrainedEventsOutliveTheirMerge: the same pattern through the
// sharded path. The drained event's callback cancels its own handle and
// stages over a chunk's worth of events; the merge's replay injects them
// into the calendar. The drained events must sit untouched and
// addressable throughout — their chunks are released by the NEXT
// DrainWindow, not by this one and not by the merge.
func TestDrainedEventsOutliveTheirMerge(t *testing.T) {
	const burst = 3 * chunkCap
	k := NewKernel()
	st := NewStage(0)
	var log []int32
	w := &windowActor{st: st, log: &log, spawn: map[int32][]Time{}}
	for i := 0; i < burst; i++ {
		w.spawn[7] = append(w.spawn[7], 20+Time(i%3))
	}
	var self *Event
	canceller := funcActor(func(a int32) {
		k.Cancel(self)
		w.Act(0, a, 0, 0, nil)
		k.Cancel(self)
	})
	self = k.AtAct(5, canceller, 0, 7, 0, 0, nil)
	k.AtAct(6, w, 0, 8, 0, 0, nil)
	free := k.chunks
	batch := k.DrainWindow(10, nil)
	if k.chunks != free {
		t.Fatal("DrainWindow freed the chunks of the events it just handed out")
	}
	st.StartWindow(10)
	st.RunWindow(batch, &windowRecorder{})
	st.ReplayOps(k, 0, st.StagedLen(), noRebind{})
	st.ResetOps()
	if k.Pending() != burst {
		t.Fatalf("Pending = %d after the merge, want %d", k.Pending(), burst)
	}
	for i, want := range []struct {
		at Time
		a  int32
	}{{5, 7}, {6, 8}} {
		if e := batch[i]; e.at != want.at || e.a != want.a || e.seq != uint64(i) {
			t.Fatalf("drained event %d reads (t=%d seq=%d a=%d) after the merge, want (t=%d seq=%d a=%d): its slot was reused", i, e.at, e.seq, e.a, want.at, i, want.a)
		}
	}
	log = log[:0]
	k.Run(0)
	if len(log) != burst {
		t.Fatalf("%d of %d events staged by the self-cancelling callback ran", len(log), burst)
	}
}

// TestCalendarFootprintFollowsPending: a steady population of P pending
// events spread over T live timestamps never makes the kernel allocate
// more than ⌈P/chunkCap⌉ chunks plus two per live timestamp (a
// part-consumed head and a part-filled tail) plus the one parked behind
// the executing event, rounded up to whole growth slabs — however many
// events flow through, and far below
// one chunk per ring bucket, let alone ring size × peak bucket.
func TestCalendarFootprintFollowsPending(t *testing.T) {
	const (
		pending = 100 * chunkCap
		spread  = 64      // delays are 1..spread, so at most spread+1 timestamps are live
		total   = 400_000 // events executed: ~63 full turnovers of the population
	)
	k := NewKernel()
	ran := 0
	var chain funcActor
	chain = func(a int32) {
		ran++
		k.AfterAct(1+Time((a*7+int32(ran))%spread), chain, 0, a, 0, 0, nil)
	}
	for i := int32(0); i < pending; i++ {
		k.AtAct(Time(i%spread), chain, 0, i, 0, 0, nil)
	}
	for ran < total {
		k.Step()
	}
	if k.Pending() != pending {
		t.Fatalf("Pending = %d, want the constant population %d", k.Pending(), pending)
	}
	bound := pending/chunkCap + 2*(spread+1) + 1 + chunkSlab - 1
	if n := numChunks(k); n > bound {
		t.Fatalf("allocated %d chunks for %d pending events over <= %d timestamps, want <= %d", n, pending, spread+1, bound)
	}
	if bound >= ringSize {
		t.Fatalf("bound %d is not below one chunk per ring bucket (%d); the test proves nothing", bound, ringSize)
	}
}
