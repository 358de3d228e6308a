// Package shard runs one simulation across multiple cores while keeping
// the executed event sequence bit-identical to a serial run.
//
// The executor advances the kernel one conservative time window at a
// time, in three steps. In parallel, each shard pops the events before
// the window boundary from its own calendar (the kernel holds one per
// shard, each (time, seq)-ordered) and executes them as it pops them —
// including events its own callbacks schedule back inside the window.
// Serially, the model merges the shards' execution records in global
// (time, seq) order, stamping every staged schedule call with its serial
// sequence number and replaying the order-sensitive side effects. In
// parallel again, each shard places the staged events that target it
// into its own calendar, in sequence order. Determinism therefore never
// depends on goroutine scheduling: the parallel phases touch only
// shard-private state (see internal/network/shard.go for the ownership
// argument), and everything order-sensitive happens in the
// single-threaded merge. Between windows every pending event sits in
// some calendar.
//
// The window width is the lookahead bound: a cross-shard schedule always
// crosses a router-to-router channel, so it lands at least the model's
// minimum cross-shard latency after the event that issued it. For any
// window no wider than that latency, an event executed at the window
// start can only receive cross-shard work beyond the window end — which
// is exactly what lets every shard run its whole slice between barriers.
// Same-shard schedules may land arbitrarily close (back-to-back
// arbitration retries), so those execute locally on their shard, in
// serial order (sim.Stage.RunWindow). A width of 1 degenerates to the
// per-cycle barrier of the original executor.
//
// Every shard has one owner for the executor's lifetime: the
// coordinator runs shard 0, and persistent worker w, created by New and
// shared by every RunCtx call (fork-per-point sweeps would otherwise
// respawn them per point), runs shard w+1. A fan-out wakes the owner of
// each shard with work and waits for all of them. Call Close when the
// executor is retired to stop the workers.
//
// This package is a concurrency carve-out of the simulator: one of the
// determinism-scoped packages hxlint's noconc pass exempts (with
// internal/serve), and it contains no model logic — just fan-out,
// barrier, and the serial-equivalence edge cases of Kernel.Run's
// until-boundary.
//
// Every event in a sharded run belongs to a shard by type: the kernel
// and the stages accept only sim.Sharded actors once the queue is split.
// Context cancellation is polled per window rather than every few
// thousand events; a cancelled run has executed a strict prefix of the
// serial schedule either way and is discarded by its caller.
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
	// shard pops its own calendar in RunShard — and fails the run if the
	// model refuses the window.
	PartitionWindow(batch []*sim.Event, winEnd sim.Time) bool
	// BatchLen reports whether shard s has work in the current window
	// (nonzero) or not (zero).
	BatchLen(s int) int
	// RunShard executes shard s's events before the window end, popped
	// from its own calendar, against shard-private state.
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

// Executor drives one kernel/model pair. Not safe for concurrent use;
// create one per simulation instance, call RunCtx from one goroutine,
// and Close it when retired (Close stops the persistent workers).
type Executor struct {
	k   *sim.Kernel
	m   Model
	win sim.Time

	// The two parallel phases, bound once so a window's fan-out allocates
	// nothing, and the one the current fan-out runs (published to the
	// workers by the wake send).
	run, place, task func(s int)

	// Persistent workers, one per shard but the first: worker w owns
	// shard w+1 and parks on wake[w]; the coordinator runs shard 0.
	wake    []chan struct{}
	quit    chan struct{}
	workers sync.WaitGroup
	busy    sync.WaitGroup // one count per woken worker still running its shard
}

// New returns an executor over the kernel and model with the given
// window width in cycles (widths below 1 are treated as 1; the caller —
// the facade — derives and caps the width from the model's latencies).
// The model must have its shards configured already, the kernel split
// into one calendar per shard (network.Network.ConfigureShards). The
// workers start immediately; pair every New with a Close.
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
		wake:  make([]chan struct{}, nsh-1),
		quit:  make(chan struct{}),
		run:   m.RunShard,
		place: m.PlaceShard,
	}
	for w := range x.wake {
		x.wake[w] = make(chan struct{}, 1)
		x.workers.Add(1)
		go func(s int, wake <-chan struct{}) {
			defer x.workers.Done()
			for {
				select {
				case <-x.quit:
					return
				case <-wake:
					x.task(s)
					x.busy.Done()
				}
			}
		}(w+1, x.wake[w])
	}
	return x
}

// Close stops the workers and waits for them to exit. The executor must
// be idle (no RunCtx in flight). Close is idempotent.
func (x *Executor) Close() {
	if x.quit == nil {
		return
	}
	close(x.quit)
	x.workers.Wait()
	x.quit = nil
}

// fanout runs task on every shard with work (work(s) > 0), each on its
// owner — shard 0 inline on the coordinator, every other shard on its
// worker — and returns when all of them are done. A shard's work report
// reads nothing another shard's task writes, so the reports need not
// wait for the tasks already running.
func (x *Executor) fanout(work func(s int) int, task func(s int)) {
	x.task = task
	for w, wake := range x.wake {
		if work(w+1) > 0 {
			x.busy.Add(1)
			wake <- struct{}{}
		}
	}
	if work(0) > 0 {
		task(0)
	}
	x.busy.Wait()
}

// RunCtx executes events until the queue is empty, the clock passes
// until (when until > 0), or ctx is cancelled; on a closed executor it
// fails at once. The executed event sequence — and every observable
// model state — is bit-identical to sim.Kernel.RunCtx over the same
// schedule, including Run's two historical boundary quirks: a live event
// directly after a dead seq-tail executes past until, and the boundary
// stop can rewind the clock to until afterwards.
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
