package sim

// FuzzCalendarOps drives one random event program three ways and requires
// the same (time, seq) execution order from all of them:
//
//   - a sorted-slice reference kernel, the obviously-correct model of the
//     (time, seq) FIFO contract and of Run's until-boundary quirks;
//   - the kernel run serially on n calendars (n in {1, 2, 3});
//   - the kernel on the same n calendars driven window by window the way
//     the sharded executor drives it — per-shard RunWindow popping the
//     shard's own calendar, a merge that Stamps, per-shard Place —
//     sequentially, in a fuzzed shard order.
//
// The program mixes what the network model does to the calendar: events
// scheduling children on their own slot or, at least the lookahead later,
// on the next one (a cross-calendar schedule when slots are spread over
// calendars); re-armable per-slot timers whose handle the slot keeps
// (Stage.Keep, Rebind) and cancels, including a firing timer cancelling
// its own handle and then scheduling a burst past a chunk's capacity;
// delays past the ring (far heap), equal-time events on every calendar,
// until-boundaries with external schedules behind the window (late list)
// and serial Steps between windowed runs. A cancel that hit a live
// bystander, a slot reused too early, a mis-ordered bucket or a stale
// kept handle all show up as a diverging trace.

import (
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
	kind  uint8 // fzChild, fzArm, fzCancel
	slot  int32
	delay Time
	id    int32
	depth int32
}

const (
	fzChild  uint8 = iota // schedule a plain event
	fzArm                 // (re-)arm the slot's timer: cancel the old one, keep the new handle
	fzCancel              // cancel the slot's timer, if armed
)

// Event ops.
const (
	opPlain uint8 = iota
	opTimer
)

// actions lists what event id does when it runs on slot, identically in
// every execution: a pure function of the program and the event.
func (p *fzProgram) actions(op uint8, slot, id, depth int32) []fzAct {
	var acts []fzAct
	b := p.byteOf(uint64(id), 1)
	child := func(k int, d Time, target int32, depth int32) {
		if target != slot && d < fzLookahead {
			target = slot // a cross-slot schedule inside the lookahead is the model bug Stage.AtAct panics on
		}
		acts = append(acts, fzAct{kind: fzChild, slot: target, delay: d, id: int32(fzMix(uint64(id)<<8|uint64(k)) & 0x7fffffff), depth: depth})
	}
	if op == opTimer {
		// A firing timer is its slot's current one: it may cancel its own
		// handle before the slot forgets it, then burst.
		if b&1 != 0 {
			acts = append(acts, fzAct{kind: fzCancel, slot: slot})
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
		acts = append(acts, fzAct{kind: fzCancel, slot: slot})
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
		case fzCancel:
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

// fzSim is the program's actor on a real kernel, serial or windowed.
type fzSim struct {
	p      *fzProgram
	k      *Kernel
	timer  [fzSlots]*Event
	stages []*Stage // windowed only
	staged bool
	trace  [][2]uint64
}

func (s *fzSim) ShardOf(_ uint8, slot, _, _ int32, _ any) int { return int(slot) % s.p.n }

func (s *fzSim) now(slot int32) Time {
	if s.staged {
		return s.stages[s.ShardOf(0, slot, 0, 0, nil)].Now()
	}
	return s.k.Now()
}

func (s *fzSim) sched(from int32, t Time, op uint8, slot, id, depth int32) *Event {
	if s.staged {
		return s.stages[s.ShardOf(0, from, 0, 0, nil)].AtAct(t, s, op, slot, id, depth, nil)
	}
	return s.k.AtAct(t, s, op, slot, id, depth, nil)
}

func (s *fzSim) cancel(slot int32) {
	if s.timer[slot] != nil {
		s.k.Cancel(s.timer[slot])
		s.timer[slot] = nil
	}
}

func (s *fzSim) Act(op uint8, slot, id, depth int32, _ any) {
	now := s.now(slot)
	for _, a := range s.p.actions(op, slot, id, depth) {
		switch a.kind {
		case fzChild:
			s.sched(slot, now+a.delay, opPlain, a.slot, a.id, a.depth)
		case fzArm:
			s.cancel(a.slot)
			h := s.sched(slot, now+a.delay, opTimer, a.slot, a.id, a.depth)
			if s.staged {
				s.stages[s.ShardOf(0, slot, 0, 0, nil)].Keep(h)
			}
			s.timer[a.slot] = h
		case fzCancel:
			s.cancel(a.slot)
		}
	}
	if op == opTimer {
		// A firing timer is its slot's armed one (re-arming and cancelling
		// kill the old timer): the slot forgets it, unless it cancelled
		// itself already. Timers arm nothing.
		s.timer[slot] = nil
	}
}

// Rebind implements Rebinder: a kept timer handle follows its event.
func (s *fzSim) Rebind(old, placed *Event) {
	if slot := placed.a; s.timer[slot] == old {
		s.timer[slot] = placed
	}
}

// fzRec is one shard's Recorder in the windowed loop: its execution
// records, as the network's execRec log, each with its op count.
type fzRec struct {
	st   *Stage
	recs []fzExec
}

func (r *fzRec) Record(at Time, seq uint64, staged bool) {
	r.recs = append(r.recs, fzExec{at: at, seq: seq, staged: staged, opsEnd: r.st.StagedLen()})
}

type fzExec struct {
	at     Time
	seq    uint64
	staged bool
	opsEnd int
}

// runWindowed is the sharded executor's loop, sequential: it drives the
// kernel window by window, running the shards in the order given.
func (s *fzSim) runWindowed(until, win Time, order []int) {
	k := s.k
	n := len(s.stages)
	recs := make([]fzRec, n)
	for sh := range recs {
		recs[sh].st = s.stages[sh]
	}
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
		for _, st := range s.stages {
			st.StartWindow(winEnd)
		}
		s.staged = true
		for _, sh := range order {
			st := s.stages[sh]
			if st.StagedLen() == 0 && !k.Due(sh, winEnd) {
				continue
			}
			st.ResetOps()
			recs[sh].recs = recs[sh].recs[:0]
			st.RunWindow(k, &recs[sh])
		}
		// Merge: the k-way walk, stamping each record's ops.
		cur := make([]int, n)
		var live uint64
		for {
			pick, pAt, pSeq := -1, Time(0), uint64(0)
			for sh := range recs {
				if cur[sh] >= len(recs[sh].recs) {
					continue
				}
				r := recs[sh].recs[cur[sh]]
				seq := r.seq
				if r.staged {
					seq = s.stages[sh].Seq(int(seq))
				}
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
			s.stages[pick].Stamp(k, r.opsEnd)
		}
		k.AddExecuted(live)
		var tAt Time
		var tSeq uint64
		var lastDead, has bool
		for _, st := range s.stages {
			if at, seq, dead, ok := st.Tail(); ok && (!has || at > tAt || (at == tAt && seq > tSeq)) {
				tAt, tSeq, lastDead, has = at, seq, dead, true
			}
		}
		for sh := range recs {
			recs[sh].recs = recs[sh].recs[:0]
		}
		s.staged = false
		for _, sh := range order {
			k.Place(sh, s.stages, s)
		}
		if lastDead && until > 0 {
			if t2, ok := k.PeekTime(); ok && t2 > until {
				k.Step()
			}
		}
	}
}

func newFzSim(p *fzProgram, windowed bool) *fzSim {
	s := &fzSim{p: p, k: NewKernel()}
	s.k.TraceExec = func(at Time, seq uint64) { s.trace = append(s.trace, [2]uint64{uint64(at), seq}) }
	s.k.SetCalendars(p.n, s)
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
					s.k.AtAct(at, s, opPlain, slot, id, 0, nil)
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
			case 3: // cancel a slot's timer from outside any event
				slot := int32(b/5) % fzSlots
				ref.cancel(slot, ^uint64(0)) // no event is executing
				for _, s := range sims {
					s.cancel(slot)
				}
			}
			for _, s := range sims {
				if s.k.Now() != ref.now || s.k.Executed() != uint64(len(ref.trace)) {
					t.Fatalf("step %d (%#x): kernel at (now=%d exec=%d), reference at (now=%d exec=%d)", i, b, s.k.Now(), s.k.Executed(), ref.now, len(ref.trace))
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
