package sim

import "fmt"

// This file implements the kernel half of the warm-state snapshot
// contract (docs/STATE.md): capturing the complete calendar — every live
// queued event plus the clock, sequence counter, and window position — in
// a relocatable form, and restoring it so that a resumed run executes
// exactly the event sequence an uninterrupted run would have.
//
// An event is already positional: an actor id, which the restore target
// registered identically at build, and three integer arguments. The only
// translation left is the model's own: an argument that indexes a table
// whose layout a restore rebuilds (the network's packet slabs) is
// re-mapped by the model's EventCoder, which sees every captured and
// every restored event.
//
// Expired events (Expirer) are deliberately not captured: they never
// execute, their recycling order is unobservable, and their arguments may
// already name recycled model objects. Dropping them changes Pending()
// but no executed-event sequence — the golden-trace fork tests pin this.

// EventState is the relocatable form of one live queued event: its time,
// sequence number, actor id, op and arguments, the arguments as the
// model's EventCoder encoded them.
type EventState struct {
	At    Time   `json:"at"`
	Seq   uint64 `json:"seq"`
	Actor int32  `json:"actor"`
	Op    uint8  `json:"op"`
	A     int32  `json:"a"`
	B     int32  `json:"b"`
	C     int32  `json:"c"`
}

// KernelState is a complete, relocatable checkpoint of a kernel: restore
// it (into the same kernel or an identically built one) and the resumed
// run executes the same events in the same order, with the same sequence
// numbers, as the run the snapshot was taken from.
type KernelState struct {
	Now      Time   `json:"now"`
	WinStart Time   `json:"win_start"`
	Seq      uint64 `json:"seq"`
	Exec     uint64 `json:"exec"`

	// Events holds every live queued event in ascending (At, Seq) order —
	// the canonical order that lets Restore rebuild bucket FIFOs correctly
	// by plain re-enqueueing.
	Events []EventState `json:"events"`
}

// EventCoder re-maps the arguments of captured and restored events
// between the live model and a snapshot. Implementations are owned by the
// model (internal/network). EncodeEvent may assign fresh codes on the fly
// (e.g. registering an in-flight packet in the snapshot's packet table);
// DecodeEvent must resolve every code EncodeEvent produced, and rejects
// an event the model cannot take. Both rewrite es in place. A nil
// EventCoder leaves every event as it is.
type EventCoder interface {
	EncodeEvent(es *EventState) error
	DecodeEvent(es *EventState) error
}

// Snapshot captures the kernel's complete calendar state, across every
// calendar: the same events, in the same order, whatever the calendar
// count. The kernel is not modified; the model may keep running afterwards without
// invalidating the returned state.
func (k *Kernel) Snapshot(c EventCoder) (*KernelState, error) {
	return buildKernelState(k, c)
}

// buildKernelState does the walk and encode; allocation lives here, off
// the simulation steady-state path.
func buildKernelState(k *Kernel, c EventCoder) (*KernelState, error) {
	// WinStart is the earliest calendar window: at or before every pending
	// event but the rare behind-window ones, which is all Restore needs of
	// it (it decides ring or far heap, never the order).
	win := k.cals[0].winStart
	for i := range k.cals {
		win = min(win, k.cals[i].winStart)
	}
	s := &KernelState{
		Now:      k.now,
		WinStart: win,
		Seq:      k.seq,
		Exec:     k.nexec,
	}
	// Canonical (At, Seq) order, whichever calendar an event sat in: Seq is
	// unique, so the order is total and re-enqueueing in it reproduces
	// every bucket's FIFO order exactly.
	all := k.collect(make([]pending, 0, k.Pending()))
	s.Events = make([]EventState, 0, len(all))
	for _, p := range all {
		e := p.e
		if k.expired(e.act, e.op, e.a, e.b, e.c) {
			continue
		}
		// Encoded in place: a pointer into the slice costs no allocation
		// per event.
		s.Events = append(s.Events, EventState{At: p.at, Seq: e.seq, Actor: e.act, Op: e.op, A: e.a, B: e.b, C: e.c})
		es := &s.Events[len(s.Events)-1]
		if c != nil {
			if err := c.EncodeEvent(es); err != nil {
				return nil, fmt.Errorf("sim: snapshot event t=%d seq=%d: %w", es.At, es.Seq, err)
			}
		}
	}
	return s, nil
}

// Restore rebuilds the kernel's calendars from a snapshot, discarding
// whatever is currently queued; on a multi-calendar kernel each event
// goes to its id's shard's calendar, as At would place it, and an event
// whose actor does not implement Sharded fails the restore with At's
// report. An event for an id this kernel has not registered fails it
// too, and so does an OpExpires event for an actor that is no Expirer.
// After it returns, the kernel's clock, sequence counter, and
// pending-event population match the snapshot exactly, so Run continues
// bit-identically to the captured run.
func (k *Kernel) Restore(s *KernelState, c EventCoder) error {
	return initFromKernelState(k, s, c)
}

// initFromKernelState drains and rebuilds; allocation (free-list growth)
// lives here, off the steady-state path.
func initFromKernelState(k *Kernel, s *KernelState, c EventCoder) error {
	// Drain every calendar: every bucket's chunks back to its free list,
	// every far struct back to its pool.
	for ci := range k.cals {
		cal := &k.cals[ci]
		for i := range cal.ring {
			b := &cal.ring[i]
			for c := b.head; c != nil; {
				next := c.next
				cal.recycle(c)
				c = next
			}
			*b = bucket{}
		}
		for _, fe := range cal.far.h {
			putEvent(&cal.free, fe)
		}
		cal.far.h = cal.far.h[:0]
		cal.nring = 0
		cal.npend = 0
		cal.winStart = s.WinStart
	}

	k.now = s.Now
	k.seq = s.Seq
	k.nexec = s.Exec

	// es is decoded into, never s.Events[i]: the snapshot may be restored
	// again. One variable for the whole loop, since the coder's pointer
	// moves it to the heap.
	var prev, es EventState
	for i := range s.Events {
		es = s.Events[i]
		if es.At < s.Now {
			return fmt.Errorf("sim: restore: event t=%d seq=%d scheduled before snapshot clock %d", es.At, es.Seq, s.Now)
		}
		if es.Seq >= s.Seq {
			return fmt.Errorf("sim: restore: event t=%d seq=%d not below sequence counter %d", es.At, es.Seq, s.Seq)
		}
		if i > 0 && (es.At < prev.At || (es.At == prev.At && es.Seq <= prev.Seq)) {
			return fmt.Errorf("sim: restore: events not in strict (at, seq) order at index %d", i)
		}
		prev = es
		if es.Actor < 0 || int(es.Actor) >= len(k.acts) {
			return fmt.Errorf("sim: restore event t=%d seq=%d: actor id %d not registered (%d ids)", es.At, es.Seq, es.Actor, len(k.acts))
		}
		if _, ok := k.acts[es.Actor].(Expirer); es.Op&OpExpires != 0 && !ok {
			return fmt.Errorf("sim: restore event t=%d seq=%d: op %#x for actor %T, which does not implement sim.Expirer", es.At, es.Seq, es.Op, k.acts[es.Actor])
		}
		if c != nil {
			if err := c.DecodeEvent(&es); err != nil {
				return fmt.Errorf("sim: restore event t=%d seq=%d: %w", es.At, es.Seq, err)
			}
		}
		cal := &k.cals[0]
		if len(k.cals) > 1 {
			var err error
			if cal, err = k.calendarOf(es.At, es.Actor); err != nil {
				return err
			}
		}
		cal.slot(es.At, es.Seq).set(es.Actor, es.Op, es.A, es.B, es.C)
	}
	return nil
}
