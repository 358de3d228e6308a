package sim

// Tests for the calendar's storage: events live by value in per-bucket
// chunk chains. The layout facts the design rests on, the three ways a
// chunked FIFO with address handles goes wrong — each on one calendar and
// on a kernel split into two — and the footprint property (memory follows
// pending events, not ring size × peak bucket).

import (
	"testing"
	"unsafe"
)

// numChunks counts every chunk the kernel has ever allocated: chunks are
// never handed back to the runtime, so each one is in a bucket, parked, or
// on a free list.
func numChunks(k *Kernel) int {
	n := 0
	for ci := range k.cals {
		c := &k.cals[ci]
		for i := range c.ring {
			for ch := c.ring[i].head; ch != nil; ch = ch.next {
				n++
			}
		}
		for ch := c.spent; ch != nil; ch = ch.next {
			n++
		}
		for ch := c.chunks; ch != nil; ch = ch.next {
			n++
		}
	}
	return n
}

// funcActor runs a closure with the event's a operand.
type funcActor func(a int32)

func (f funcActor) Act(_ uint8, a, _, _ int32, _ any) { f(a) }

// shardedFunc is a funcActor whose events belong to calendar a mod the
// kernel's calendar count.
type shardedFunc struct {
	k *Kernel
	f funcActor
}

func (s *shardedFunc) Act(op uint8, a, b, c int32, p any) { s.f(a) }

func (s *shardedFunc) ShardOf(_ uint8, a, _, _ int32, _ any) int {
	return int(uint32(a) % uint32(s.k.Calendars()))
}

// calendarCounts are the kernel shapes the chunk-lifetime hazards run on:
// one calendar, and one split into two.
var calendarCounts = []int{1, 2}

// TestEventIsOneCacheLine: an Event is exactly 64 bytes and every slot of
// every chunk — from Reserve's slab or from on-demand growth — starts on
// a 64-byte boundary. Shrinking Event would put two events on one line.
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
// empty" silently drops every chunk behind the head.) On a split kernel
// the events alternate calendars, so every count scales with the
// calendar count to put the same chunk boundaries in each calendar.
func TestBucketHeadChunkExhaustedBehindTail(t *testing.T) {
	for _, ncal := range calendarCounts {
		n, extra := int32(ncal*(3*chunkCap+10)), int32(ncal*2*chunkCap)
		for _, per := range []int{1, chunkCap - 1, chunkCap, chunkCap + 1, 2 * chunkCap, 3*chunkCap + 9} {
			consumed := int32(ncal * per)
			// Serial: event number `consumed` is a burst appending to its own
			// bucket from inside the callback.
			k, s := newScript()
			k.SetCalendars(ncal, nil)
			for i := int32(0); i < n; i++ {
				if i == consumed {
					k.AtAct(5, s, opBurst, 1000, 5, extra, nil)
					continue
				}
				k.AtAct(5, s, opLog, i, 0, 0, nil)
			}
			k.Run(0)
			if len(s.log) != int(n+extra) {
				t.Fatalf("calendars=%d consumed=%d: executed %d events, want %d", ncal, consumed, len(s.log), n+extra)
			}
			for i, v := range s.log {
				want := int32(i)
				switch {
				case int32(i) == consumed:
					want = 1000
				case int32(i) >= n:
					want = 1000 + int32(i) - n + 1
				}
				if v != want {
					t.Fatalf("calendars=%d consumed=%d: log[%d] = %d, want %d", ncal, consumed, i, v, want)
				}
			}

			// Windowed: part-consume with Step, append directly, then run a
			// window over every calendar, each through its own stage.
			k, s = newScript()
			k.SetCalendars(ncal, nil)
			for i := int32(0); i < n; i++ {
				k.AtAct(5, s, opLog, i, 0, 0, nil)
			}
			for i := int32(0); i < consumed; i++ {
				k.Step()
			}
			for i := int32(0); i < extra; i++ {
				k.AtAct(5, s, opLog, n+i, 0, 0, nil)
			}
			ran := 0
			for c := 0; c < ncal; c++ {
				s.log = s.log[:0]
				st := NewStage(c, ncal)
				st.StartWindow(6)
				st.RunWindow(k, &windowRecorder{})
				ran += len(s.log)
				for i, a := range s.log {
					if want := consumed + int32(c+i*ncal); a != want {
						t.Fatalf("calendars=%d consumed=%d: calendar %d ran %d as its event %d, want %d", ncal, consumed, c, a, i, want)
					}
				}
			}
			if ran != int(n+extra-consumed) || k.Pending() != 0 {
				t.Fatalf("calendars=%d consumed=%d: windows ran %d events (pending %d), want %d (0)", ncal, consumed, ran, k.Pending(), n+extra-consumed)
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
		if c := &k.cals[0]; c.winStart+ringSize <= at || len(c.far.h) != 50 {
			t.Errorf("window [%d, +%d) with %d far events; the test meant the window to cover t=%d with the far events unmoved", c.winStart, ringSize, len(c.far.h), at)
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
	if k.Pending() != 0 || len(k.cals[0].far.h) != 0 {
		t.Fatalf("pending %d, far %d after the run, want 0", k.Pending(), len(k.cals[0].far.h))
	}
}

// TestCancelOwnExecutingHandle: a callback cancels the handle of its own
// executing event — before and after scheduling well over a chunk's worth
// of events (the model's reroute → unregister → Cancel(w.timer) pattern)
// — and must cancel nothing else: the chunk the executing event sits in,
// exhausted by its pop, is not reusable until the callback has returned.
// On a split kernel the burst lands in both calendars, the executing
// event's own among them.
func TestCancelOwnExecutingHandle(t *testing.T) {
	const burst = 3 * chunkCap
	for _, ncal := range calendarCounts {
		k := NewKernel()
		k.SetCalendars(ncal, nil)
		ran := 0
		count := &shardedFunc{k: k, f: func(int32) { ran++ }}
		var self *Event
		self = k.AtAct(5, &shardedFunc{k: k, f: func(int32) { // alone in its bucket: its pop exhausts the chunk
			k.Cancel(self)
			for i := 0; i < burst; i++ {
				k.AtAct(5+Time(i%3), count, 0, int32(i), 0, 0, nil)
			}
			k.Cancel(self)
		}}, 0, 0, 0, 0, nil)
		k.Run(0)
		if ran != burst {
			t.Fatalf("calendars=%d: %d of %d events scheduled by the self-cancelling callback ran", ncal, ran, burst)
		}
	}
}

// TestDrainedEventsOutliveTheirMerge: the same pattern through the
// sharded path. The window pops the event, whose callback cancels its own
// handle and stages over a chunk's worth of events; the merge stamps them
// and placement copies them into the calendars, growing their buckets.
// The popped event's slot must stay untouched and addressable
// throughout: the chunk its pop exhausted is parked until its calendar's
// next pop, and placement draws only from the free list, so a late
// Cancel on that handle still lands on the executed event and on nothing
// placed. On a split kernel each shard runs its own calendar, and the
// staged burst lands in both.
func TestDrainedEventsOutliveTheirMerge(t *testing.T) {
	const burst = 3 * chunkCap
	for _, ncal := range calendarCounts {
		k := NewKernel()
		k.SetCalendars(ncal, nil)
		stages := make([]*Stage, ncal)
		for s := range stages {
			stages[s] = NewStage(s, ncal)
			stages[s].StartWindow(10)
		}
		ran := 0
		count := &shardedFunc{k: k, f: func(int32) { ran++ }}
		var self *Event
		canceller := &shardedFunc{k: k}
		canceller.f = func(int32) {
			k.Cancel(self)
			for i := 0; i < burst; i++ {
				stages[0].AtAct(20+Time(i%3), count, 0, int32(i), 0, 0, nil)
			}
			k.Cancel(self)
		}
		k.AtAct(4, count, 0, int32(1%ncal), 0, 0, nil) // the last calendar, before self
		self = k.AtAct(5, canceller, 0, 0, 0, 0, nil)  // calendar 0, its last pop
		for s, st := range stages {
			st.RunWindow(k, &windowRecorder{})
			if k.cals[s].spent == nil {
				t.Fatalf("calendars=%d: calendar %d released the chunk of the event it popped last", ncal, s)
			}
		}
		stages[0].Stamp(k, stages[0].StagedLen())
		for c := range stages {
			k.Place(c, stages, noRebind{})
		}
		for _, st := range stages {
			st.ResetOps()
		}
		if k.Pending() != burst {
			t.Fatalf("calendars=%d: Pending = %d after placement, want %d", ncal, k.Pending(), burst)
		}
		if self.at != 5 || self.a != 0 || self.seq != 1 {
			t.Fatalf("calendars=%d: popped event reads (t=%d seq=%d a=%d) after placement, want (t=5 seq=1 a=0): its slot was reused", ncal, self.at, self.seq, self.a)
		}
		k.Cancel(self)
		ran = 0
		k.Run(0)
		if ran != burst {
			t.Fatalf("calendars=%d: %d of %d events staged by the self-cancelling callback ran", ncal, ran, burst)
		}
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
