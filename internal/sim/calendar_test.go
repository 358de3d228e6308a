package sim

// Tests for the calendar's storage: events live by value in per-bucket
// chunk chains. The layout facts the design rests on, the ways a chunked
// FIFO goes wrong — each on one calendar and on a kernel split into two —
// and the footprint property (memory follows pending events, not ring
// size × peak bucket).

import (
	"reflect"
	"testing"
	"unsafe"
)

// numChunks counts every chunk the kernel has ever allocated: chunks are
// never handed back to the runtime, so each one is in a bucket or on a
// free list.
func numChunks(k *Kernel) int {
	n := 0
	for ci := range k.cals {
		c := &k.cals[ci]
		for i := range c.ring {
			for ch := c.ring[i].head; ch != nil; ch = ch.next {
				n++
			}
		}
		for ch := c.chunks; ch != nil; ch = ch.next {
			n++
		}
	}
	return n
}

// funcActor runs a closure with the event's a operand. It is a pointer,
// so AtAct can tell one from another.
type funcActor struct{ f func(a int32) }

func fn(f func(a int32)) *funcActor { return &funcActor{f} }

func (f *funcActor) Act(_ uint8, a, _, _ int32, _ any) { f.f(a) }

// shardedFunc is a funcActor whose events belong to calendar a mod the
// kernel's calendar count: it holds one id per calendar (at), registered
// at its first schedule, on the split kernel.
type shardedFunc struct {
	k    *Kernel
	f    func(a int32)
	base int32
	n    int
}

func (s *shardedFunc) Act(op uint8, a, b, c int32, _ any) { s.f(a) }

func (s *shardedFunc) ShardOf(i int) int { return i }

// at schedules s's event with operand a for time t on calendar a mod the
// calendar count.
func (s *shardedFunc) at(t Time, a int32) {
	s.k.At(t, s.id(a), 0, a, 0, 0)
}

// id returns the id of s's events with operand a.
func (s *shardedFunc) id(a int32) int32 {
	if s.n == 0 {
		s.n = s.k.Calendars()
		s.base = s.k.Register(s, s.n)
	}
	return s.base + int32(uint32(a)%uint32(s.n))
}

// calendarCounts are the kernel shapes the chunk-lifetime hazards run on:
// one calendar, and one split into two.
var calendarCounts = []int{1, 2}

// TestEventIsHalfALine: an Event is exactly 32 bytes with no pointer,
// and every slot of every chunk — from Reserve's slab or from on-demand
// growth — starts on a 32-byte boundary, so two events share a cache line
// and none straddles two. A chunk holds 127 of them in one 4 KiB page.
func TestEventIsHalfALine(t *testing.T) {
	if n := unsafe.Sizeof(Event{}); n != 32 {
		t.Fatalf("sizeof(Event) = %d, want exactly 32", n)
	}
	if n := unsafe.Sizeof(chunk{}); n != 4096 || chunkCap != 127 {
		t.Fatalf("sizeof(chunk) = %d holding %d events, want one 4 KiB page of 127", n, chunkCap)
	}
	k := NewKernel()
	k.Reserve(3 * chunkCap)
	reserved := numChunks(k)
	act := fn(func(int32) {})
	for i := 0; i < 3*chunkSlab*chunkCap; i++ { // outgrows the reserve: the rest is on-demand growth
		k.AtAct(Time(i%2), act, 0, 0, 0, 0, nil)
	}
	k.cals[0].each(func(e *Event, _ Time) {
		if a := uintptr(unsafe.Pointer(e)); a%32 != 0 || a%4096 >= chunkCap*32 {
			t.Fatalf("event at %#x is not a 32-byte slot of a page-aligned chunk", a)
		}
	})
	for i := range k.cals[0].ring {
		for ch := k.cals[0].ring[i].head; ch != nil; ch = ch.next {
			if a := uintptr(unsafe.Pointer(ch)); a%4096 != 0 {
				t.Fatalf("chunk at %#x does not start a page", a)
			}
		}
	}
	if n := numChunks(k); n <= reserved {
		t.Fatalf("allocated %d chunks; the test meant to outgrow Reserve's %d", n, reserved)
	}
}

// TestEventHasNoPointer: no field of an Event, at any depth, is or holds a
// pointer, so the collector never traces a calendar chunk's events (only
// its link).
func TestEventHasNoPointer(t *testing.T) {
	var walk func(path string, typ reflect.Type)
	walk = func(path string, typ reflect.Type) {
		switch typ.Kind() {
		case reflect.Pointer, reflect.UnsafePointer, reflect.Interface, reflect.Slice,
			reflect.Map, reflect.Chan, reflect.Func, reflect.String:
			t.Errorf("%s is a %s: an Event must hold no pointer", path, typ.Kind())
		case reflect.Struct:
			for i := 0; i < typ.NumField(); i++ {
				f := typ.Field(i)
				walk(path+"."+f.Name, f.Type)
			}
		case reflect.Array:
			walk(path+"[]", typ.Elem())
		}
	}
	walk("Event", reflect.TypeOf(Event{}))
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
			k.SetCalendars(ncal)
			for i := int32(0); i < n; i++ {
				if i == consumed {
					s.at(5, opBurst, 1000, 5, extra)
					continue
				}
				s.at(5, opLog, i, 0, 0)
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
			k.SetCalendars(ncal)
			for i := int32(0); i < n; i++ {
				s.at(5, opLog, i, 0, 0)
			}
			for i := int32(0); i < consumed; i++ {
				k.Step()
			}
			for i := int32(0); i < extra; i++ {
				s.at(5, opLog, n+i, 0, 0)
			}
			ran := 0
			for c := 0; c < ncal; c++ {
				s.log = s.log[:0]
				st := NewStage(c, ncal)
				st.StartWindow(k, 6)
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

			// Staged: event number `consumed` runs inside the window and
			// stages its burst, all on its own calendar, into the bucket
			// being popped — appends under tagged seqs that cross its chunk
			// boundaries and run after every event the bucket held.
			k, s = newScript()
			k.SetCalendars(ncal)
			for c := 0; c < ncal; c++ {
				s.st = append(s.st, NewStage(c, ncal))
				s.st[c].StartWindow(k, 6)
			}
			const burstA = 1000 // on calendar 0 at every calendar count, above every logged index
			for i := int32(0); i < n; i++ {
				if i == consumed {
					s.at(5, opStage, burstA, 5, extra)
					continue
				}
				s.at(5, opLog, i, 0, 0)
			}
			ran = 0
			for c := 0; c < ncal; c++ {
				s.log = s.log[:0]
				s.st[c].RunWindow(k, &windowRecorder{})
				ran += len(s.log)
				for i, a := range s.log {
					want := int32(c + i*ncal)
					switch {
					case want == consumed:
						want = burstA
					case want >= n:
						want = burstA + (want - n + int32(ncal))
					}
					if a != want {
						t.Fatalf("calendars=%d consumed=%d: staged run, calendar %d ran %d as its event %d, want %d", ncal, consumed, c, a, i, want)
					}
				}
			}
			if ran != int(n+extra) || k.Pending() != 0 {
				t.Fatalf("calendars=%d consumed=%d: staged windows ran %d events (pending %d), want %d (0)", ncal, consumed, ran, k.Pending(), n+extra)
			}
		}
	}
}

// TestFarAndRingShareATimestamp: events pushed on the far heap stay there
// when the window slides over their time; later direct ring appends at
// the same timestamp run after them, in seq order, and a far timer's
// expiry still lands.
func TestFarAndRingShareATimestamp(t *testing.T) {
	k, s := newScript()
	const at = ringSize + 500
	for i := int32(0); i < 50; i++ {
		switch i {
		case 10:
			s.arm(at, i, 0)
		case 49:
			s.arm(at, i, 1)
		default:
			s.at(at, opLog, i, 0, 0)
		}
	}
	s.at(at-100, opBurst, -1, at, 50) // window now covers `at`: 50 direct appends, logged as 0..49
	k.AtAct(at-50, fn(func(int32) {
		if c := &k.cals[0]; c.winStart+ringSize <= at || len(c.far.h) != 50 {
			t.Errorf("window [%d, +%d) with %d far events; the test meant the window to cover t=%d with the far events unmoved", c.winStart, ringSize, len(c.far.h), at)
		}
		s.expire(0)
		s.expire(1)
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
			t.Fatalf("log[%d] = %d, want %d (far tier first, expired timers skipped, then the direct appends)", i, s.log[i], want[i])
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

// TestDrainedEventsOutliveTheirMerge: the events a window's last pop
// stages outlive the merge. The pop exhausts its chunk, which goes
// straight back to the free list, before its callback stages over a
// chunk's worth of events — into that chunk among others; the merge
// stamps them and placement copies them into the calendars, growing
// their buckets from the free lists. Every one must run once. On a split
// kernel each shard runs its own calendar, and the staged burst lands in
// both.
func TestDrainedEventsOutliveTheirMerge(t *testing.T) {
	const burst = 3 * chunkCap
	for _, ncal := range calendarCounts {
		k := NewKernel()
		k.SetCalendars(ncal)
		stages := make([]*Stage, ncal)
		for s := range stages {
			stages[s] = NewStage(s, ncal)
		}
		ran := 0
		count := &shardedFunc{k: k, f: func(int32) { ran++ }}
		stager := &shardedFunc{k: k}
		stager.f = func(int32) {
			for i := 0; i < burst; i++ {
				stages[0].At(20+Time(i%3), count.id(int32(i)), 0, int32(i), 0, 0)
			}
		}
		count.at(4, int32(1%ncal)) // the last calendar, before the stager
		stager.at(5, 0)            // calendar 0, its last pop
		for _, st := range stages {
			st.StartWindow(k, 10)
		}
		for _, st := range stages {
			st.RunWindow(k, &windowRecorder{})
		}
		stages[0].Stamp(k, stages[0].StagedLen())
		for c := range stages {
			k.Place(c, stages)
		}
		for _, st := range stages {
			st.ResetOps()
		}
		if k.Pending() != burst {
			t.Fatalf("calendars=%d: Pending = %d after placement, want %d", ncal, k.Pending(), burst)
		}
		ran = 0
		k.Run(0)
		if ran != burst {
			t.Fatalf("calendars=%d: %d of %d events staged by the last pop's callback ran", ncal, ran, burst)
		}
	}
}

// TestCalendarFootprintFollowsPending: a steady population of P pending
// events spread over T live timestamps never makes the kernel allocate
// more than ⌈P/chunkCap⌉ chunks plus two per live timestamp (a
// part-consumed head and a part-filled tail), rounded up to whole growth
// slabs — however many events flow through, and far below
// one chunk per ring bucket, let alone ring size × peak bucket.
func TestCalendarFootprintFollowsPending(t *testing.T) {
	const (
		pending = 100 * chunkCap
		spread  = 64      // delays are 1..spread, so at most spread+1 timestamps are live
		total   = 400_000 // events executed: ~63 full turnovers of the population
	)
	k := NewKernel()
	ran := 0
	var chain *funcActor
	chain = fn(func(a int32) {
		ran++
		k.AfterAct(1+Time((a*7+int32(ran))%spread), chain, 0, a, 0, 0, nil)
	})
	for i := int32(0); i < pending; i++ {
		k.AtAct(Time(i%spread), chain, 0, i, 0, 0, nil)
	}
	for ran < total {
		k.Step()
	}
	if k.Pending() != pending {
		t.Fatalf("Pending = %d, want the constant population %d", k.Pending(), pending)
	}
	bound := pending/chunkCap + 2*(spread+1) + chunkSlab - 1
	if n := numChunks(k); n > bound {
		t.Fatalf("allocated %d chunks for %d pending events over <= %d timestamps, want <= %d", n, pending, spread+1, bound)
	}
	if bound >= ringSize {
		t.Fatalf("bound %d is not below one chunk per ring bucket (%d); the test proves nothing", bound, ringSize)
	}
}
