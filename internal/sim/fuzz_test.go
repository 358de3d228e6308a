package sim

// FuzzCalendarOps drives one random event program three ways and requires
// the same (time, seq) execution order from all of them:
//
//   - a sorted-slice reference kernel, the obviously-correct model of the
//     (time, seq) FIFO contract and of Run's until-boundary quirks;
//   - the kernel run serially on n calendars (n in {1, 2, 3});
//   - the kernel on the same n calendars driven window by window the way
//     the sharded executor drives it — per-shard RunWindow popping the
//     shard's own calendar and inbox, a merge that Stamps, per-shard
//     Place — sequentially, in a fuzzed shard order.
//
// The program mixes what the network model does to the calendar: events
// scheduling children on their own slot or, at least the lookahead later,
// on the next one (a cross-calendar schedule when slots are spread over
// calendars: staged, it reaches the target's inbox at placement, while a
// same-calendar one goes straight into its calendar); re-armable per-slot
// timers (OpExpires) that expire by their slot's generation, which arming
// and expiring bump — the reference kills the armed timer instead —
// including a firing timer expiring its own slot and then scheduling a
// burst past a chunk's capacity into the chunk its pop just freed; delays
// past the ring (far heap), equal-time events on every calendar,
// until-boundaries with external schedules behind the window (far heap)
// and serial Steps between windowed runs. An expiry that hit a live
// bystander, a chunk reused too early, a mis-ordered bucket or a stale
// generation all show up as a diverging trace.
//
// The times the kernel keeps are checked directly too. After every step
// of the script each kernel's pending live events, read back with the
// time the kernel holds for them — a ring event's implied by its bucket,
// a far struct's stored beside it — must be the reference's pending
// events, (time, seq) for (time, seq). Inside every window, the events
// placement is about to move — the cross-shard staging structs with their
// stored times, and the own calendar's tagged ones — must be exactly what
// the calendars and inboxes hold once it has.

import (
	"fmt"
	"sort"
	"testing"
)

const (
	fzSlots     = 6
	fzMaxDepth  = 4 // with at most three offspring per event and bursts near the root, a program stays a few thousand events
	fzLookahead = 4 // minimum cross-slot delay: the window width bound
)

// fzDelays are the program's delays: same-cycle, a few cycles, the
// lookahead, a channel crossing, just past the ring, and far.
var fzDelays = [...]Time{0, 1, 2, 3, fzLookahead, 5, 7, 50, ringSize + 6, ringSize + 476}

// fzRuns are the until-boundary steps of the op script.
var fzRuns = [...]Time{1, 3, 5, 17, 60, ringSize + 76}

// fzProgram is the event program a fuzz input encodes.
type fzProgram struct {
	data []byte
	n    int // calendars; slot s lives on calendar s % n
}

func fzMix(x uint64) uint64 {
	x ^= x >> 33
	x *= 0xff51afd7ed558ccd
	x ^= x >> 33
	x *= 0xc4ceb9fe1a85ec53
	x ^= x >> 33
	return x
}

func (p *fzProgram) byteOf(id, salt uint64) byte {
	return p.data[fzMix(id*0x9e3779b97f4a7c15+salt)%uint64(len(p.data))]
}

// fzAct is one action of an executing event.
type fzAct struct {
	kind  uint8 // fzChild, fzArm, fzExpire
	slot  int32
	delay Time
	id    int32
	depth int32
}

const (
	fzChild  uint8 = iota // schedule a plain event
	fzArm                 // (re-)arm the slot's timer: the old one expires
	fzExpire              // expire the slot's timer, if armed
)

// Event ops. A timer's c is its depth plus its slot's generation when
// armed, shifted past the depth (fzSim).
const (
	opPlain uint8 = iota
	opTimer       = OpExpires | 1
)

// actions lists what event id does when it runs on slot, identically in
// every execution: a pure function of the program and the event.
func (p *fzProgram) actions(op uint8, slot, id, depth int32) []fzAct {
	var acts []fzAct
	b := p.byteOf(uint64(id), 1)
	child := func(k int, d Time, target int32, depth int32) {
		if target != slot && d < fzLookahead {
			target = slot // a cross-slot schedule inside the lookahead is the model bug Stage.At panics on
		}
		acts = append(acts, fzAct{kind: fzChild, slot: target, delay: d, id: int32(fzMix(uint64(id)<<8|uint64(k)) & 0x7fffffff), depth: depth})
	}
	if op == opTimer {
		// A firing timer is its slot's current one: it may expire its own
		// slot, then burst.
		if b&1 != 0 {
			acts = append(acts, fzAct{kind: fzExpire, slot: slot})
		}
		if depth < 2 {
			burst := [...]int{0, 3, 8, chunkCap + 7}[b>>1&3]
			for k := 0; k < burst; k++ {
				child(k, fzDelays[k%4], slot, fzMaxDepth)
			}
		}
		return acts
	}
	if depth >= fzMaxDepth {
		return acts
	}
	if b&8 != 0 {
		acts = append(acts, fzAct{kind: fzExpire, slot: slot})
	}
	for k := 0; k < [...]int{0, 1, 1, 2}[b&3]; k++ {
		c := p.byteOf(uint64(id), uint64(2+k))
		target := slot
		if c&1 != 0 {
			target = (slot + 1) % fzSlots
		}
		child(k, fzDelays[int(c>>1)%len(fzDelays)], target, depth+1)
	}
	if b&4 != 0 {
		c := p.byteOf(uint64(id), 9)
		acts = append(acts, fzAct{kind: fzArm, slot: slot, delay: fzDelays[int(c)%len(fzDelays)], id: int32(fzMix(uint64(id)<<8|0xff) & 0x7fffffff), depth: depth + 1})
	}
	return acts
}

// fzRef is the reference kernel: pending events in a slice kept sorted by
// (time, seq).
type fzRef struct {
	p     *fzProgram
	now   Time
	seq   uint64
	pend  []fzRefEv
	timer [fzSlots]uint64 // seq+1 of the slot's armed timer, 0 when none
	trace [][2]uint64
	t     *testing.T
}

type fzRefEv struct {
	at          Time
	seq         uint64
	op          uint8
	slot, id, d int32
	dead        bool
}

func (r *fzRef) at(t Time, op uint8, slot, id, depth int32) uint64 {
	e := fzRefEv{at: t, seq: r.seq, op: op, slot: slot, id: id, d: depth}
	r.seq++
	i := sort.Search(len(r.pend), func(i int) bool { return t < r.pend[i].at })
	r.pend = append(r.pend, fzRefEv{})
	copy(r.pend[i+1:], r.pend[i:])
	r.pend[i] = e
	return e.seq
}

// cancel kills the slot's armed timer: it must be pending, or be the
// event executing now (a self-cancel).
func (r *fzRef) cancel(slot int32, executing uint64) {
	if r.timer[slot] == 0 {
		return
	}
	s := r.timer[slot] - 1
	r.timer[slot] = 0
	if s == executing {
		return
	}
	for i := range r.pend {
		if r.pend[i].seq == s {
			r.pend[i].dead = true
			return
		}
	}
	r.t.Fatalf("reference: slot %d's timer seq %d is neither pending nor executing", slot, s)
}

func (r *fzRef) exec(e fzRefEv) {
	r.now = e.at
	r.trace = append(r.trace, [2]uint64{uint64(e.at), e.seq})
	if e.op == opTimer {
		defer func() {
			if r.timer[e.slot] == e.seq+1 {
				r.timer[e.slot] = 0
			}
		}()
	}
	for _, a := range r.p.actions(e.op, e.slot, e.id, e.d) {
		switch a.kind {
		case fzChild:
			r.at(r.now+a.delay, opPlain, a.slot, a.id, a.depth)
		case fzArm:
			r.cancel(a.slot, e.seq)
			r.timer[a.slot] = r.at(r.now+a.delay, opTimer, a.slot, a.id, a.depth) + 1
		case fzExpire:
			r.cancel(a.slot, e.seq)
		}
	}
}

// popLive pops up to and including the first live event and runs it;
// false when the queue ran dry first.
func (r *fzRef) popLive() bool {
	for len(r.pend) > 0 {
		e := r.pend[0]
		r.pend = r.pend[1:]
		if !e.dead {
			r.exec(e)
			return true
		}
	}
	return false
}

// run mirrors Kernel.Run: stop at until (rewinding the clock to it) when
// the head lies beyond; dead events skip without rechecking until.
func (r *fzRef) run(until Time) {
	for len(r.pend) > 0 {
		if until > 0 && r.pend[0].at > until {
			r.now = until
			return
		}
		if !r.popLive() {
			return
		}
	}
}

// live returns the reference's pending live events, (time, seq) sorted.
func (r *fzRef) live() [][2]uint64 {
	var out [][2]uint64
	for _, e := range r.pend {
		if !e.dead {
			out = append(out, [2]uint64{uint64(e.at), e.seq})
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i][0] < out[j][0] || (out[i][0] == out[j][0] && out[i][1] < out[j][1]) })
	return out
}

// fzSim is the program's actor on a real kernel, serial or windowed. Slot
// s has id base+s, which lives on calendar s mod the calendar count.
type fzSim struct {
	p      *fzProgram
	k      *Kernel
	base   int32
	gen    [fzSlots]int32 // the slots' timer generations
	stages []*Stage       // windowed only
	staged bool
	trace  [][2]uint64
}

// fzDepthBits is the width of a timer's depth in its c argument.
const fzDepthBits = 4

func (s *fzSim) ShardOf(slot int) int { return slot % s.p.n }

func (s *fzSim) now(slot int32) Time {
	if s.staged {
		return s.stages[s.ShardOf(int(slot))].Now()
	}
	return s.k.Now()
}

func (s *fzSim) sched(from int32, t Time, op uint8, slot, id, c int32) {
	if s.staged {
		s.stages[s.ShardOf(int(from))].At(t, s.base+slot, op, slot, id, c)
		return
	}
	s.k.At(t, s.base+slot, op, slot, id, c)
}

// live returns the kernel's pending live events, (time, seq) sorted, each
// with the time the kernel holds for it.
func (s *fzSim) live() [][2]uint64 {
	var out [][2]uint64
	for _, p := range s.k.collect(nil) {
		if deadOf(s.k, p.e) == 0 {
			out = append(out, [2]uint64{uint64(p.at), p.e.seq})
		}
	}
	return out
}

// expire bumps the slot's generation: its armed timer, if any, expires.
func (s *fzSim) expire(slot int32) { s.gen[slot]++ }

// Expired implements Expirer: a timer has expired once its slot's
// generation has moved on from the one it was armed under.
func (s *fzSim) Expired(_ uint8, slot, _, c int32) bool { return c>>fzDepthBits != s.gen[slot] }

func (s *fzSim) Act(op uint8, slot, id, c int32, _ any) {
	now := s.now(slot)
	depth := c
	if op == opTimer {
		depth = c & (1<<fzDepthBits - 1)
	}
	for _, a := range s.p.actions(op, slot, id, depth) {
		switch a.kind {
		case fzChild:
			s.sched(slot, now+a.delay, opPlain, a.slot, a.id, a.depth)
		case fzArm:
			s.expire(a.slot)
			s.sched(slot, now+a.delay, opTimer, a.slot, a.id, s.gen[a.slot]<<fzDepthBits|a.depth)
		case fzExpire:
			s.expire(a.slot)
		}
	}
}

// deadOf is 1 for an event that has expired, 0 otherwise.
func deadOf(k *Kernel, e *Event) uint64 {
	if k.expired(e.act, e.op, e.a, e.b, e.c) {
		return 1
	}
	return 0
}

// stampRecorder is one shard's Recorder in a windowed test run: its
// execution records, as the network's execRec log keeps them, each with
// the end of its staged ops.
type stampRecorder struct {
	st   *Stage
	recs []stampRec
}

type stampRec struct {
	at     Time
	seq    uint64
	opsEnd int
}

func (r *stampRecorder) Record(at Time, seq uint64) {
	r.recs = append(r.recs, stampRec{at: at, seq: seq, opsEnd: r.st.StagedLen()})
}

// runStagedWindow runs one window ending at winEnd the way the sharded
// executor does, sequentially, with the shards in the order given:
// RunWindow on each, a merge that walks the records in (time, seq) order
// setting the clock, tracing and stamping each record's ops, then Place
// on each. It reports whether the window's (time, seq)-last processed
// event was dead.
func runStagedWindow(k *Kernel, stages []*Stage, order []int, winEnd Time) (lastDead bool) {
	recs := make([]stampRecorder, len(stages))
	for sh, st := range stages {
		st.StartWindow(k, winEnd)
		recs[sh].st = st
	}
	for _, sh := range order {
		stages[sh].ResetOps()
		stages[sh].RunWindow(k, &recs[sh])
	}
	cur := make([]int, len(stages))
	var live uint64
	for {
		pick, pAt, pSeq := -1, Time(0), uint64(0)
		for sh := range recs {
			if cur[sh] >= len(recs[sh].recs) {
				continue
			}
			r := recs[sh].recs[cur[sh]]
			seq := stages[sh].Seq(r.seq)
			if pick < 0 || r.at < pAt || (r.at == pAt && seq < pSeq) {
				pick, pAt, pSeq = sh, r.at, seq
			}
		}
		if pick < 0 {
			break
		}
		r := recs[pick].recs[cur[pick]]
		cur[pick]++
		live++
		k.SetNow(pAt)
		k.TraceExec(pAt, pSeq)
		stages[pick].Stamp(k, r.opsEnd)
	}
	k.AddExecuted(live)
	var tAt Time
	var tSeq uint64
	var has bool
	for _, st := range stages {
		if at, seq, dead, ok := st.Tail(); ok && (!has || at > tAt || (at == tAt && seq > tSeq)) {
			tAt, tSeq, lastDead, has = at, seq, dead, true
		}
	}
	moving := placing(k, stages)
	for _, sh := range order {
		k.Place(sh, stages)
	}
	if got, want := fmt.Sprint(queued(k, nil)), fmt.Sprint(moving); got != want {
		panic(fmt.Sprintf("placement at winEnd=%d left the queue holding (time, seq, dead) %s, want %s", winEnd, got, want))
	}
	return lastDead
}

// queued lists every pending event of every calendar as (time, seq,
// dead), sorted, reading each time as the kernel holds it: implied by a
// ring bucket, stored in a far struct. With stages, a tagged seq in a
// shard's own calendar reads as the seq the merge stamped for it.
func queued(k *Kernel, stages []*Stage) [][3]uint64 {
	var out [][3]uint64
	for i := range k.cals {
		k.cals[i].each(func(e *Event, at Time) {
			seq := e.seq
			if stages != nil && i < len(stages) {
				seq = stages[i].Seq(seq)
			}
			out = append(out, [3]uint64{uint64(at), seq, deadOf(k, e)})
		})
	}
	return sortTriples(out)
}

// placing lists what the queue must hold once every shard has placed the
// merged window: what it holds now, tags resolved, plus every staging
// struct bound for another shard, at the time stored in it.
func placing(k *Kernel, stages []*Stage) [][3]uint64 {
	out := queued(k, stages)
	for sh, st := range stages {
		for t, o := range st.out {
			if t == sh {
				continue
			}
			for _, x := range o {
				out = append(out, [3]uint64{uint64(x.te.at), st.seqs[x.rank], deadOf(k, &x.te.Event)})
			}
		}
	}
	return sortTriples(out)
}

func sortTriples(s [][3]uint64) [][3]uint64 {
	sort.Slice(s, func(i, j int) bool {
		for k := range s[i] {
			if s[i][k] != s[j][k] {
				return s[i][k] < s[j][k]
			}
		}
		return false
	})
	return s
}

// runWindowed is the sharded executor's loop, sequential: it drives the
// kernel window by window, running the shards in the order given.
func (s *fzSim) runWindowed(until, win Time, order []int) {
	k := s.k
	for {
		t, ok := k.PeekTime()
		if !ok {
			return
		}
		if until > 0 && t > until {
			k.SetNow(until)
			return
		}
		winEnd := t + win
		if until > 0 && winEnd > until+1 {
			winEnd = until + 1
		}
		s.staged = true
		lastDead := runStagedWindow(k, s.stages, order, winEnd)
		s.staged = false
		if lastDead && until > 0 {
			if t2, ok := k.PeekTime(); ok && t2 > until {
				k.Step()
			}
		}
	}
}

func newFzSim(p *fzProgram, windowed bool) *fzSim {
	s := &fzSim{p: p, k: NewKernel()}
	s.base = s.k.Register(s, fzSlots)
	s.k.TraceExec = func(at Time, seq uint64) { s.trace = append(s.trace, [2]uint64{uint64(at), seq}) }
	s.k.SetCalendars(p.n)
	if windowed {
		for sh := 0; sh < p.n; sh++ {
			s.stages = append(s.stages, NewStage(sh, p.n))
		}
	}
	return s
}

func FuzzCalendarOps(f *testing.F) {
	f.Add([]byte{0, 0, 0, 1, 0, 2, 1, 3, 0x5a, 0xa5, 0xff, 0x13})
	f.Add([]byte{1, 3, 0, 0, 0, 0, 1, 1, 4, 1, 2, 1, 0xc7, 0x3c, 0x0f, 0xf0, 0x77})
	f.Add([]byte{2, 1, 0, 5, 0, 4, 3, 1, 2, 4, 5, 1, 0, 9, 1, 0xee, 0x11, 0x2f, 0x6b, 0x8d})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 4 {
			return
		}
		p := &fzProgram{data: data, n: 1 + int(data[0])%3}
		win := 1 + Time(data[1])%fzLookahead
		order := make([]int, p.n)
		for i := range order {
			order[i] = i
			if data[2]&1 != 0 {
				order[i] = p.n - 1 - i
			}
		}
		ref := &fzRef{p: p, t: t}
		serial, windowed := newFzSim(p, false), newFzSim(p, true)
		sims := []*fzSim{serial, windowed}
		now := func() Time { return ref.now }
		script := data[3:]
		if len(script) > 24 {
			script = script[:24]
		}
		for i, b := range script {
			switch b % 5 {
			case 0: // a root event, behind the window after an until-stop
				slot := int32(b/5) % fzSlots
				at := now() + fzDelays[int(b/30)%len(fzDelays)]
				id := int32(fzMix(uint64(i)|1<<40) & 0x7fffffff)
				ref.at(at, opPlain, slot, id, 0)
				for _, s := range sims {
					s.k.At(at, s.base+slot, opPlain, slot, id, 0)
				}
			case 1, 4: // run to an until-boundary; 4 runs the windowed kernel serially
				until := now() + fzRuns[int(b/5)%len(fzRuns)]
				ref.run(until)
				serial.k.Run(until)
				if b%5 == 1 {
					windowed.runWindowed(until, win, order)
				} else {
					windowed.k.Run(until)
				}
			case 2: // one serial pop
				ref.popLive()
				for _, s := range sims {
					s.k.Step()
				}
			case 3: // expire a slot's timer from outside any event
				slot := int32(b/5) % fzSlots
				ref.cancel(slot, ^uint64(0)) // no event is executing
				for _, s := range sims {
					s.expire(slot)
				}
			}
			for _, s := range sims {
				if s.k.Now() != ref.now || s.k.Executed() != uint64(len(ref.trace)) {
					t.Fatalf("step %d (%#x): kernel at (now=%d exec=%d), reference at (now=%d exec=%d)", i, b, s.k.Now(), s.k.Executed(), ref.now, len(ref.trace))
				}
				if got, want := fmt.Sprint(s.live()), fmt.Sprint(ref.live()); got != want {
					t.Fatalf("step %d (%#x): kernel holds live (time, seq) %s, reference %s", i, b, got, want)
				}
			}
		}
		ref.run(0)
		serial.k.Run(0)
		windowed.runWindowed(0, win, order)
		for _, s := range sims {
			if len(s.trace) != len(ref.trace) {
				t.Fatalf("calendars=%d window=%d: kernel executed %d events, reference %d", p.n, win, len(s.trace), len(ref.trace))
			}
			for i := range ref.trace {
				if s.trace[i] != ref.trace[i] {
					t.Fatalf("calendars=%d window=%d: event %d is (t=%d seq=%d), reference (t=%d seq=%d)", p.n, win, i, s.trace[i][0], s.trace[i][1], ref.trace[i][0], ref.trace[i][1])
				}
			}
			if s.k.Pending() != 0 || s.k.Now() != ref.now {
				t.Fatalf("calendars=%d: end state pending=%d now=%d, reference now=%d", p.n, s.k.Pending(), s.k.Now(), ref.now)
			}
		}
	})
}
