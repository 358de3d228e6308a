package sim

import (
	"fmt"
	"sort"
)

// This file implements the kernel half of the warm-state snapshot
// contract (docs/STATE.md): capturing the complete calendar — every live
// queued event plus the clock, sequence counter, and window position — in
// a relocatable form, and restoring it so that a resumed run executes
// exactly the event sequence an uninterrupted run would have.
//
// Events reference live model objects (an Actor receiver and an arbitrary
// payload pointer), which a snapshot cannot hold directly: the model keeps
// mutating and recycling those objects after the snapshot is taken. The
// kernel therefore delegates endpoint translation to an EventCoder owned
// by the model (internal/network), which maps actors and payloads to
// stable numeric codes on capture and back to (possibly reconstructed)
// objects on restore.
//
// Cancelled (dead) events are deliberately not captured: they never
// execute, their recycling order is unobservable, and their payloads may
// already have been recycled by the model. Dropping them changes Pending()
// but no executed-event sequence — the golden-trace fork tests pin this.

// EventState is the relocatable form of one live queued event. Actor and
// Payload are model-defined codes produced by an EventCoder; the kernel
// only requires that the coder round-trips them.
type EventState struct {
	At      Time   `json:"at"`
	Seq     uint64 `json:"seq"`
	Actor   uint64 `json:"actor"`
	Payload uint64 `json:"payload"`
	Op      uint8  `json:"op"`
	A       int32  `json:"a"`
	B       int32  `json:"b"`
	C       int32  `json:"c"`
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

// EventCoder translates event endpoints between live objects and the
// stable numeric codes a snapshot stores. Implementations are owned by
// the model (internal/network); codes are opaque to the kernel. Encode
// methods may assign fresh codes on the fly (e.g. registering an
// in-flight packet in the snapshot's packet table); Decode methods must
// resolve every code their Encode produced.
type EventCoder interface {
	EncodeActor(a Actor) (uint64, error)
	DecodeActor(code uint64) (Actor, error)
	// EncodePayload/DecodePayload receive the event's op so coders can
	// validate payload kinds per op; p is nil for payload-free events and
	// code 0 conventionally means "no payload".
	EncodePayload(op uint8, p any) (uint64, error)
	DecodePayload(op uint8, code uint64) (any, error)
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
	live := make([]*Event, 0, k.Pending())
	for i := range k.cals {
		k.cals[i].each(func(e *Event) {
			if e.flags&evDead == 0 {
				live = append(live, e)
			}
		})
	}
	// Canonical (At, Seq) order, whichever calendar an event sat in: Seq is
	// unique, so the order is total and re-enqueueing in it reproduces
	// every bucket's FIFO order exactly.
	sort.Slice(live, func(i, j int) bool { return before(live[i], live[j]) })
	s.Events = make([]EventState, len(live))
	for i, e := range live {
		actor, err := c.EncodeActor(e.act)
		if err != nil {
			return nil, fmt.Errorf("sim: snapshot event t=%d seq=%d: %w", e.at, e.seq, err)
		}
		payload, err := c.EncodePayload(e.op, e.p)
		if err != nil {
			return nil, fmt.Errorf("sim: snapshot event t=%d seq=%d: %w", e.at, e.seq, err)
		}
		s.Events[i] = EventState{
			At: e.at, Seq: e.seq,
			Actor: actor, Payload: payload,
			Op: e.op, A: e.a, B: e.b, C: e.c,
		}
	}
	return s, nil
}

// Restore rebuilds the kernel's calendars from a snapshot, discarding
// whatever is currently queued; on a multi-calendar kernel each event
// goes to its shard's calendar, as AtAct would place it, and an event
// whose decoded actor does not implement Sharded fails the restore with
// AtAct's report. After it returns, the kernel's clock, sequence
// counter, and pending-event population match the snapshot exactly, so
// Run continues bit-identically to the captured run. The
// optional restored callback observes every re-created event alongside
// its EventState — the model uses it to rewire cancellation handles
// (waiter re-route timers) that point at specific events.
func (k *Kernel) Restore(s *KernelState, c EventCoder, restored func(EventState, *Event)) error {
	return initFromKernelState(k, s, c, restored)
}

// initFromKernelState drains and rebuilds; allocation (free-list growth)
// lives here, off the steady-state path.
func initFromKernelState(k *Kernel, s *KernelState, c EventCoder, restored func(EventState, *Event)) error {
	// Drain every calendar: every bucket's chunks back to its free list,
	// every far struct back to its pool. Payload objects owned by the
	// model are abandoned here; the model's own restore pass rebuilds or
	// recycles them.
	for ci := range k.cals {
		cal := &k.cals[ci]
		for i := range cal.ring {
			b := &cal.ring[i]
			for c := b.head; c != nil; {
				next := c.next
				cal.park(c)
				c = next
			}
			*b = bucket{}
		}
		cal.release()
		for _, e := range cal.far.h {
			putEvent(&cal.free, e)
		}
		cal.far.h = cal.far.h[:0]
		cal.nring = 0
		cal.npend = 0
		cal.winStart = s.WinStart
	}

	k.now = s.Now
	k.seq = s.Seq
	k.nexec = s.Exec

	var prev EventState
	for i, es := range s.Events {
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
		act, err := c.DecodeActor(es.Actor)
		if err != nil {
			return fmt.Errorf("sim: restore event t=%d seq=%d: %w", es.At, es.Seq, err)
		}
		p, err := c.DecodePayload(es.Op, es.Payload)
		if err != nil {
			return fmt.Errorf("sim: restore event t=%d seq=%d: %w", es.At, es.Seq, err)
		}
		cal := &k.cals[0]
		if len(k.cals) > 1 {
			if cal, err = k.calendarOf(es.At, act, es.Op, es.A, es.B, es.C, p); err != nil {
				return err
			}
		}
		e := cal.slot(es.At, es.Seq)
		e.set(act, es.Op, es.A, es.B, es.C, p)
		if restored != nil {
			restored(es, e)
		}
	}
	return nil
}
