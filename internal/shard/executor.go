// Package shard runs one simulation across multiple cores while keeping
// the executed event sequence bit-identical to a serial run.
//
// The executor advances the kernel one conservative time window at a
// time, in three steps. In parallel, each shard drains the events before
// the window boundary from its own calendar (the kernel holds one per
// shard, each already (time, seq)-sorted) and executes them — including
// events its own callbacks schedule back inside the window. Serially,
// the model merges the shards' execution records in global (time, seq)
// order, stamping every staged schedule call with its serial sequence
// number and replaying the order-sensitive side effects. In parallel
// again, each shard places the staged events that target it into its
// own calendar, in sequence order. Determinism therefore never depends
// on goroutine scheduling: the parallel phases touch only shard-private
// state (see internal/network/shard.go for the ownership argument), and
// everything order-sensitive happens in the single-threaded merge.
// Between windows every pending event sits in some calendar.
//
// The window width is the lookahead bound: a cross-shard schedule always
// crosses a router-to-router channel, so it lands at least the model's
// minimum cross-shard latency after the event that issued it. For any
// window no wider than that latency, an event drained at the window
// start can only receive cross-shard work beyond the window end — which
// is exactly what lets every shard run its whole slice between barriers.
// Same-shard schedules may land arbitrarily close (back-to-back
// arbitration retries), so those execute locally on their shard, in
// serial order (sim.Stage.RunWindow). A width of 1 degenerates to the
// per-cycle barrier of the original executor.
//
// Workers are a persistent pool created by New and shared by every
// RunCtx call (fork-per-point sweeps would otherwise respawn them per
// point); per-phase imbalance is absorbed by per-participant deques
// with work stealing. Call Close when the executor is retired to stop
// the pool.
//
// This package is a concurrency carve-out of the simulator: one of the
// determinism-scoped packages hxlint's noconc pass exempts (with
// internal/serve), and it contains no model logic — just fan-out,
// barrier, and the serial-equivalence edge cases of Kernel.Run's
// until-boundary.
//
// Every event in a sharded run must belong to a shard: an actor that
// does not implement sim.Sharded is a model bug, and RunCtx fails as
// soon as one is pending rather than guessing an order. Context
// cancellation is polled per window rather than every few thousand
// events; a cancelled run has executed a strict prefix of the serial
// schedule either way and is discarded by its caller.
package shard

import (
	"context"
	"errors"
	"fmt"
	"sync"

	"hyperx/internal/sim"
)

// Model is the sharded simulation model (implemented by
// network.Network). Per window the executor calls PartitionWindow, then
// RunShard on every shard with work, MergeWindow for the deterministic
// replay, and PlaceShard on every shard with placements; the model
// stages its work from PartitionWindow until MergeWindow returns, and
// executes serially outside that interval.
type Model interface {
	NumShards() int
	// PartitionWindow opens the shards' stages for the window ending at
	// winEnd (exclusive). The executor passes an empty batch — every
	// shard drains its own calendar in RunShard — and fails the run if
	// the model refuses the window.
	PartitionWindow(batch []*sim.Event, winEnd sim.Time) bool
	// BatchLen reports whether shard s has work in the current window
	// (nonzero) or not (zero).
	BatchLen(s int) int
	// RunShard drains shard s's calendar up to the window end and
	// executes its events against shard-private state.
	RunShard(s int)
	// MergeWindow replays all shards' staged work in global (time, seq)
	// order and reports whether the window's serially-last processed
	// event was dead (the until-overshoot quirk's trigger).
	MergeWindow() (lastDead bool)
	// PlaceLen reports how many staged events the merged window places
	// into shard s's calendar.
	PlaceLen(s int) int
	// PlaceShard places them.
	PlaceShard(s int)
}

// deque is one participant's task queue: the owner pops LIFO from the
// bottom, thieves pop FIFO from the top. All pushes happen on the
// coordinator before any worker wakes, so only the pops need the lock.
type deque struct {
	mu   sync.Mutex
	q    []int
	head int
}

func (d *deque) reset() {
	d.q = d.q[:0]
	d.head = 0
}

// push appends a task. Coordinator-only, before the dispatch wakes any
// worker (the wake channel send publishes it).
func (d *deque) push(s int) {
	d.q = append(d.q, s)
}

// popBottom takes the owner's next task (LIFO keeps it on the tasks it
// was dealt).
func (d *deque) popBottom() (int, bool) {
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.head >= len(d.q) {
		return 0, false
	}
	s := d.q[len(d.q)-1]
	d.q = d.q[:len(d.q)-1]
	return s, true
}

// popTop steals the victim's oldest task.
func (d *deque) popTop() (int, bool) {
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.head >= len(d.q) {
		return 0, false
	}
	s := d.q[d.head]
	d.head++
	return s, true
}

// Executor drives one kernel/model pair. Not safe for concurrent use;
// create one per simulation instance, call RunCtx from one goroutine,
// and Close it when retired (Close stops the persistent worker pool).
type Executor struct {
	k   *sim.Kernel
	m   Model
	win sim.Time
	nsh int

	// The two parallel phases, as tasks: run, place (bound once, so a
	// window's fan-out allocates nothing), and the one the current
	// fan-out executes (published to workers by the wake send).
	run, place, task func(s int)

	// Persistent worker pool: nsh-1 parked workers plus the coordinator.
	// Participant i owns parts[i]; the coordinator is participant 0,
	// worker w is participant w+1 and parks on wake[w]. nparts is the
	// current dispatch's participant count (published to workers by the
	// wake send).
	parts    []deque
	nparts   int
	wake     []chan struct{}
	quit     chan struct{}
	workers  sync.WaitGroup
	shardsWG sync.WaitGroup // one count per RunShard still outstanding
	idleWG   sync.WaitGroup // one count per woken worker not yet re-parked
}

// New returns an executor over the kernel and model with the given
// window width in cycles (widths below 1 are treated as 1; the caller —
// the facade — derives and caps the width from the model's latencies).
// The model must have its shards configured already, the kernel split
// into one calendar per shard (network.Network.ConfigureShards). The
// worker pool starts immediately; pair every New with a Close.
func New(k *sim.Kernel, m Model, window sim.Time) *Executor {
	if window < 1 {
		window = 1
	}
	nsh := m.NumShards()
	if k.Calendars() != nsh {
		panic(fmt.Sprintf("shard: kernel has %d calendars for %d shards; configure the model's shards first", k.Calendars(), nsh))
	}
	x := &Executor{
		k:     k,
		m:     m,
		win:   window,
		nsh:   nsh,
		parts: make([]deque, nsh),
		wake:  make([]chan struct{}, nsh-1),
		quit:  make(chan struct{}),
		run:   m.RunShard,
		place: m.PlaceShard,
	}
	for w := range x.wake {
		x.wake[w] = make(chan struct{}, 1)
		x.workers.Add(1)
		go func(w int) {
			defer x.workers.Done()
			for {
				select {
				case <-x.quit:
					return
				case <-x.wake[w]:
					x.scan(w + 1)
					x.idleWG.Done()
				}
			}
		}(w)
	}
	return x
}

// Close stops the persistent worker pool and waits for the workers to
// exit. The executor must be idle (no RunCtx in flight). Close is
// idempotent.
func (x *Executor) Close() {
	if x.quit == nil {
		return
	}
	close(x.quit)
	x.workers.Wait()
	x.quit = nil
}

// scan runs tasks as participant id: first the participant's own deque
// (LIFO), then steals from the others (FIFO), returning when every deque
// is empty. Tasks are only pushed before the dispatch wakes the workers,
// so an empty sweep means the window's fan-out is fully claimed.
func (x *Executor) scan(id int) {
	for {
		s, ok := x.parts[id].popBottom()
		for v := 0; !ok && v < x.nparts; v++ {
			if v != id {
				s, ok = x.parts[v].popTop()
			}
		}
		if !ok {
			return
		}
		x.task(s)
		x.shardsWG.Done()
	}
}

// fanout runs task on every shard with work (work(s) > 0): inline when
// only one shard has any, otherwise dealt round-robin across the
// coordinator and up to nonempty-1 woken workers, with stealing evening
// out imbalanced deals. Returns with every task complete and every woken
// worker re-parked (the next fan-out's deal must not race a straggling
// thief).
func (x *Executor) fanout(work func(s int) int, task func(s int)) {
	n, only := 0, 0
	for s := 0; s < x.nsh; s++ {
		if work(s) > 0 {
			n++
			only = s
		}
	}
	if n == 0 {
		return
	}
	if n == 1 {
		task(only)
		return
	}
	x.task = task
	nparts := 1 + len(x.wake)
	if n < nparts {
		nparts = n
	}
	x.nparts = nparts
	for i := 0; i < nparts; i++ {
		x.parts[i].reset()
	}
	i := 0
	for s := 0; s < x.nsh; s++ {
		if work(s) == 0 {
			continue
		}
		x.parts[i%nparts].push(s)
		i++
	}
	x.shardsWG.Add(n)
	x.idleWG.Add(nparts - 1)
	for w := 0; w < nparts-1; w++ {
		x.wake[w] <- struct{}{}
	}
	x.scan(0)
	x.shardsWG.Wait()
	x.idleWG.Wait()
}

// RunCtx executes events until the queue is empty, the clock passes
// until (when until > 0), or ctx is cancelled. It fails, mid-run, as
// soon as an event no shard owns is pending (see errUnsharded), and
// immediately on a closed executor. The executed event sequence — and
// every observable model state — is bit-identical to sim.Kernel.RunCtx
// over the same schedule, including Run's two historical boundary
// quirks: a live event directly after a dead seq-tail executes past
// until, and the boundary stop can rewind the clock to until afterwards.
func (x *Executor) RunCtx(ctx context.Context, until sim.Time) (sim.Time, error) {
	if x.quit == nil {
		return x.k.Now(), errors.New("shard: RunCtx on a closed executor")
	}
	k := x.k
	for {
		select {
		case <-ctx.Done():
			return k.Now(), ctx.Err()
		default:
		}
		t, ok := k.PeekTime()
		if !ok {
			return k.Now(), nil
		}
		if until > 0 && t > until {
			k.SetNow(until)
			return k.Now(), nil
		}
		if e := k.Unsharded(); e != nil {
			return k.Now(), errUnsharded(e)
		}
		winEnd := t + x.win
		if until > 0 && winEnd > until+1 {
			// Clamp so no live event beyond until executes mid-window; the
			// dead-tail overshoot below is the only sanctioned excursion.
			winEnd = until + 1
		}
		if !x.m.PartitionWindow(nil, winEnd) {
			return k.Now(), fmt.Errorf("shard: model refused the window at t=%d", t)
		}
		x.fanout(x.m.BatchLen, x.run)
		lastDead := x.m.MergeWindow()
		x.fanout(x.m.PlaceLen, x.place)
		if lastDead && until > 0 {
			// Serial Run's pop-until-live chain: dead events skip the until
			// recheck, so when the window's seq-tail is dead and the next
			// event lies beyond the boundary, serial executes one more live
			// event (however far ahead) before stopping. Reproduce it with
			// one serial Step (the merge has left the model serial), then
			// stop at the boundary as serial does.
			if t2, ok2 := k.PeekTime(); ok2 && t2 > until {
				k.Step()
			}
		}
	}
}

// errUnsharded reports an event no shard owns: its actor does not
// implement sim.Sharded. It stays queued — the run is over.
func errUnsharded(e *sim.Event) error {
	return fmt.Errorf("shard: event at t=%d: actor %T does not implement sim.Sharded", e.At(), e.Actor())
}
