// Sharded-execution support: the model-side half of the barrier-
// synchronized parallel executor (internal/shard). See internal/sim/stage.go
// for the kernel-side contract and docs/STATE.md for the full determinism
// argument.
//
// Routers are partitioned into contiguous index blocks, one block per
// shard; a terminal belongs to its router's shard, and every typed event
// in the model resolves to the single shard whose slab state its callback
// touches (sim.Sharded). During a window's parallel phase each shard
// executes its slice of the window's events strictly in serial (time,
// seq) order — including events its own callbacks schedule back inside
// the window, which sim.Stage.RunWindow interleaves locally — with all
// globally-visible work (schedule calls, aggregate counters, observer
// callbacks, packet-ID assignment, packet frees) staged into
// shard-private logs instead of applied. The single-threaded merge then
// replays the logs in global (time, seq) order, so sequence-number
// assignment, counter updates, and observer call order are bit-identical
// to a serial run.
//
// Why the parallel phase is race-free (each bullet names the state and
// its owner during the phase):
//
//   - Router slab state (input VCs, output ports and their inline
//     credits, the router's wait-list arena, per-router RNG): touched
//     only by events of the owning router, all in one shard. route.View
//     exposes only the deciding router's own output state. The candidate
//     scratch is per shard (ShardState.ctx), shared only by the shard's
//     own routers, whose events it executes one at a time.
//   - Terminal state (source queue, injection credits): touched only by
//     the terminal's own events and by the generator's injection event
//     for that terminal — both map to the terminal's router's shard.
//   - Packets: a packet is owned by exactly one queue or in-flight event
//     at a time. A handoff that stays on the shard (terminal-to-router
//     injection, local arbitration) is ordered by the shard's own serial
//     execution; a handoff that crosses shards is a router-to-router
//     schedule, and every one of those crosses at least RouterChanLat
//     cycles — the executor caps the window width at the minimum
//     cross-shard latency, so a packet's cross-router move always lands
//     outside the window, where the merge re-partitions ownership. The
//     ownership lemma is mechanized: Stage.AtAct panics on any
//     cross-shard schedule landing inside its window.
//   - Kernel: the parallel phase reads time only through the shard's
//     Stage clock (pinned to the executing event). Kernel.Cancel writes
//     only the cancelled event's flags byte, and the model cancels only
//     its own router's reroute timer — same-shard by construction; the
//     calendar stores one event per cache line, so neighbouring drained
//     events of different shards never share one.
//     Drained and in-window staged events stay cancellable until they
//     are executed or recycled, and RunWindow reads deadness at
//     processing time, so a cancel aimed at a later event of the same
//     window lands under sharding exactly as it does serially, where
//     the target would still be sitting in the calendar.
//   - Everything else the phase reads (topology tables, algorithm state,
//     Config, FaultSet, classVCs) is immutable during a run.
package network

import (
	"fmt"

	"hyperx/internal/route"
	"hyperx/internal/sim"
)

// effect kinds: the globally-visible side effects a shard stages during
// the parallel phase for the merge to replay in serial order.
const (
	fxID      uint8 = iota // assign the next packet ID (p)
	fxInject               // injection counters (a=flits)
	fxBirth                // generator birth observer (birth fn, a=src b=dst c=flits)
	fxHop                  // OnHop observer (p, a=router b=port c=vc)
	fxDeliver              // delivery counters + OnDeliver + packet free (p)
	fxDrop                 // drop counters + OnDrop + packet free (p)
	fxCount                // increment an external counter (aux)
)

// effect is one staged side effect. Replay happens the same cycle it was
// staged, so pointer payloads (the packet, the observer closure) are
// stable between staging and replay: a packet in a deliver/drop effect is
// dead to the model, and an in-flight packet's fields cannot change again
// within the cycle.
type effect struct {
	kind    uint8
	a, b, c int32
	p       *route.Packet
	aux     *uint64
	birth   func(src, dst, flits int, at sim.Time)
}

// execRec records one live event a shard executed: its trace identity and
// the END offsets of its staged schedule calls and effects in the shard's
// logs (the start offsets are the previous record's ends). A drained
// event's (at, seq) are copied in (ev nil); an in-window staged event is
// recorded by handle instead — its seq exists only after the merge's
// replay reaches its staging record, which precedes this one in the same
// shard's stream, so the seq is always assigned by the time the merge
// reads it.
type execRec struct {
	at     sim.Time
	seq    uint64
	ev     *sim.Event
	opsEnd int32
	fxEnd  int32
}

// ShardState is one shard's private execution context. All fields are
// written only by the owning shard during the parallel phase and only by
// the coordinator during the merge.
type ShardState struct {
	// Stage collects the shard's schedule calls; exported so the traffic
	// generator (package traffic) can stage its self-reschedule through it.
	Stage *sim.Stage

	net  *Network
	idx  int
	pool *route.Packet // shard-local packet free list (intrusive via Next)
	ctx  route.Ctx     // candidate scratch of the shard's routers

	fx    []effect
	recs  []execRec
	batch []*sim.Event // this shard's slice of the current window

	// merge cursors (coordinator-only)
	cur    int
	opsPos int32
	fxPos  int32
}

// Record implements sim.Recorder: called by this shard's Stage.RunWindow
// immediately after each live event's callback, it delimits the event's
// staged schedule calls and effects in the shard-private logs. Everything
// it touches is owned by the executing shard — the globally-visible
// replay happens at the merge.
func (sc *ShardState) Record(at sim.Time, seq uint64, ev *sim.Event) {
	//hxlint:allow allocfree — the exec-record log grows to the shard's per-window high-water live-event count and is reset every merge
	sc.recs = append(sc.recs, execRec{at: at, seq: seq, ev: ev, opsEnd: int32(sc.Stage.StagedLen()), fxEnd: int32(len(sc.fx))})
}

// Rebind implements sim.Rebinder: the merge has copied a staged event
// into the calendar. The one handle the model keeps is a blocked head
// decision's re-route timer, held by its input VC (the only event with an
// *inputVC payload); repoint it unless the decision has since been
// cancelled and re-armed.
func (sc *ShardState) Rebind(staged, placed *sim.Event) {
	if iv, ok := placed.Payload().(*inputVC); ok && iv.timer == staged {
		iv.timer = placed
	}
}

// stageFx appends a staged side effect.
func (sc *ShardState) stageFx(f effect) {
	//hxlint:allow allocfree — the effect log grows to the shard's per-cycle high-water effect count and is reset (not reallocated) every merge
	sc.fx = append(sc.fx, f)
}

// StageBirth stages a generator birth-observer call (package traffic
// cannot reach stageFx). The observer fires at the merge with the cycle's
// time, exactly as the serial call would have.
func (sc *ShardState) StageBirth(fn func(src, dst, flits int, at sim.Time), src, dst, flits int) {
	sc.stageFx(effect{kind: fxBirth, a: int32(src), b: int32(dst), c: int32(flits), birth: fn})
}

// StageCount stages an increment of an external uint64 counter (e.g. the
// generator's SelfRedirects).
func (sc *ShardState) StageCount(ctr *uint64) {
	sc.stageFx(effect{kind: fxCount, aux: ctr})
}

// takePacket pops a packet from the shard-local pool, refilling with a
// chunk when empty.
func (sc *ShardState) takePacket() *route.Packet {
	if sc.pool == nil {
		//hxlint:allow allocfree — chunked pool refill, identical to the serial pool's: one slab per pktChunk packets; steady state recycles shard-locally (a freed packet returns to its source router's shard) and never refills
		chunk := make([]route.Packet, pktChunk)
		for i := range chunk[:pktChunk-1] {
			chunk[i].Next = &chunk[i+1]
		}
		sc.pool = &chunk[0]
	}
	p := sc.pool
	sc.pool = p.Next
	return p
}

// ConfigureShards partitions the network's routers into nsh contiguous
// blocks and builds (or rebuilds) the per-shard execution contexts. It
// does not activate sharded mode — EnterSharded does, per executor run —
// so a configured network still runs serially, bit-identical to an
// unconfigured one. nsh must be in [1, NumRouters].
func (n *Network) ConfigureShards(nsh int) error {
	nr := len(n.Routers)
	if nsh < 1 || nsh > nr {
		return fmt.Errorf("network: shard count %d outside [1, %d routers]", nsh, nr)
	}
	if n.sharded {
		return fmt.Errorf("network: ConfigureShards while sharded mode is active")
	}
	//hxlint:allow allocfree — configuration-time path: runs once per executor (re)build, never inside the event loop
	n.shards = make([]*ShardState, nsh)
	for s := range n.shards {
		n.shards[s] = &ShardState{Stage: sim.NewStage(s), net: n, idx: s, ctx: newScratch(n.Cfg)}
	}
	for _, r := range n.Routers {
		r.sc = n.shards[n.shardOfRouter(r.id)]
		r.ctx = &r.sc.ctx
	}
	for _, t := range n.Terminals {
		t.sc = n.shards[n.shardOfRouter(t.router)]
	}
	return nil
}

// NumShards returns the configured shard count (1 when unconfigured).
func (n *Network) NumShards() int {
	if len(n.shards) == 0 {
		return 1
	}
	return len(n.shards)
}

// shardOfRouter maps a router index to its contiguous-block shard.
func (n *Network) shardOfRouter(r int) int {
	return r * len(n.shards) / len(n.Routers)
}

// ShardOfTerminal maps a terminal to its router's shard (used by the
// traffic generator's sim.Sharded implementation).
func (n *Network) ShardOfTerminal(t int) int {
	return n.shardOfRouter(n.Terminals[t].router)
}

// TerminalShard returns terminal t's active shard context, or nil when
// sharded mode is off — the branch the generator's staging hangs off.
func (n *Network) TerminalShard(t int) *ShardState {
	if !n.sharded {
		return nil
	}
	return n.Terminals[t].sc
}

// EnterSharded activates sharded mode: schedule calls and globally-
// visible side effects divert to the per-shard stages until ExitSharded.
// The executor brackets a whole run with this pair, dropping to serial
// mode only for the until-boundary's single overshoot Step.
func (n *Network) EnterSharded() { n.sharded = true }

// ExitSharded deactivates sharded mode.
func (n *Network) ExitSharded() { n.sharded = false }

// ShardOf implements sim.Sharded for the network actor: delivery
// completion (opDeliver) touches only staged aggregate state and is
// assigned to the destination router's shard.
func (n *Network) ShardOf(_ uint8, _, _, _ int32, p any) int {
	return n.shardOfRouter(p.(*route.Packet).DstRouter)
}

// ShardOf implements sim.Sharded: every router event (arrive, attempt,
// credit, reroute) touches only the receiving router's slab state.
func (r *Router) ShardOf(_ uint8, _, _, _ int32, _ any) int {
	return r.net.shardOfRouter(r.id)
}

// ShardOf implements sim.Sharded: terminal events (retry, credit) touch
// only the terminal, which lives with its router.
func (t *Terminal) ShardOf(_ uint8, _, _, _ int32, _ any) int {
	return t.net.shardOfRouter(t.router)
}

// PartitionWindow distributes one drained window's events to their
// shards' batch lists, preserving (time, seq) order within each shard
// (the input is globally (time, seq)-sorted), and opens every shard's
// stage for the window ending (exclusive) at winEnd. It returns false —
// with every batch list cleared — when any event cannot be sharded (an
// actor outside the model that does not implement sim.Sharded); the
// executor then fails the run.
func (n *Network) PartitionWindow(batch []*sim.Event, winEnd sim.Time) bool {
	for _, sc := range n.shards {
		sc.Stage.StartWindow(winEnd)
	}
	for _, e := range batch {
		s, ok := e.Shard()
		if !ok {
			for _, sc := range n.shards {
				clearBatch(sc)
			}
			return false
		}
		sc := n.shards[s]
		//hxlint:allow allocfree — the per-shard batch list grows to the shard's per-window high-water event count and is reset every window
		sc.batch = append(sc.batch, e)
	}
	return true
}

func clearBatch(sc *ShardState) {
	for i := range sc.batch {
		sc.batch[i] = nil
	}
	sc.batch = sc.batch[:0]
}

// BatchLen reports how many of the current window's events shard s owns.
func (n *Network) BatchLen(s int) int { return len(n.shards[s].batch) }

// RunShard executes shard s's slice of the current window, in serial
// (time, seq) order, entirely against shard-private state: the shard's
// Stage interleaves the drained batch with in-window staged events,
// skips dead ones (as the serial kernel does), and reports each live
// event to Record above.
func (n *Network) RunShard(s int) {
	sc := n.shards[s]
	sc.Stage.RunWindow(sc.batch, sc)
	clearBatch(sc)
}

// MergeWindow replays the window's staged work into the kernel and the
// network in global serial order: a (nsh)-way merge over the shards'
// execution records (each already (time, seq)-sorted) drives, per
// executed event, the clock, the trace hook, the injection of its staged
// schedule calls (this is where sequence numbers are assigned, in
// exactly the serial order: executing-event order crossed with
// within-callback program order, and where each staged event that
// outlives the window is copied into the calendar and its input VC's timer
// handle repointed, see Rebind), and the replay of its staged side
// effects. It returns whether the window's (time, seq)-maximal processed
// event — live or dead — was dead, which the executor needs for the
// serial until-overshoot quirk. Coordinator-only, between parallel
// phases.
func (n *Network) MergeWindow() (lastDead bool) {
	k := n.K
	for _, sc := range n.shards {
		sc.cur, sc.opsPos, sc.fxPos = 0, 0, 0
	}
	var live uint64
	for {
		var pick *ShardState
		var pickAt sim.Time
		var pickSeq uint64
		for _, sc := range n.shards {
			if sc.cur >= len(sc.recs) {
				continue
			}
			rec := &sc.recs[sc.cur]
			at, seq := rec.at, rec.seq
			if rec.ev != nil {
				// Staged-exec record: its seq was assigned when the merge
				// replayed its stager, earlier in this same shard's stream.
				seq = rec.ev.Seq()
			}
			if pick == nil || at < pickAt || (at == pickAt && seq < pickSeq) {
				pick, pickAt, pickSeq = sc, at, seq
			}
		}
		if pick == nil {
			break
		}
		rec := &pick.recs[pick.cur]
		pick.cur++
		live++
		k.SetNow(pickAt)
		if k.TraceExec != nil {
			k.TraceExec(pickAt, pickSeq)
		}
		pick.Stage.ReplayOps(k, int(pick.opsPos), int(rec.opsEnd), pick)
		pick.opsPos = rec.opsEnd
		n.replayFx(pick.fx[pick.fxPos:rec.fxEnd], pickAt)
		pick.fxPos = rec.fxEnd
	}
	k.AddExecuted(live)
	var tailAt sim.Time
	var tailSeq uint64
	var has bool
	for _, sc := range n.shards {
		at, seq, dead, ok := sc.Stage.Tail()
		if !ok {
			continue
		}
		if !has || at > tailAt || (at == tailAt && seq > tailSeq) {
			tailAt, tailSeq, lastDead, has = at, seq, dead, true
		}
	}
	for _, sc := range n.shards {
		sc.Stage.ResetOps()
		for i := range sc.fx {
			sc.fx[i] = effect{}
		}
		sc.fx = sc.fx[:0]
		for i := range sc.recs {
			sc.recs[i].ev = nil
		}
		sc.recs = sc.recs[:0]
	}
	return lastDead
}

// replayFx applies one event's staged side effects in program order.
// Runs at the merge, single-threaded, with the clock argument carrying
// the event's execution time, so observer callbacks see exactly the
// serial timestamps.
func (n *Network) replayFx(fx []effect, now sim.Time) {
	for i := range fx {
		f := &fx[i]
		switch f.kind {
		case fxID:
			n.nextPkt++
			f.p.ID = n.nextPkt
		case fxInject:
			n.InjectedPackets++
			n.InjectedFlits += uint64(f.a)
		case fxBirth:
			f.birth(int(f.a), int(f.b), int(f.c), now)
		case fxHop:
			if n.OnHop != nil {
				n.OnHop(f.p, int(f.a), int(f.b), int8(f.c))
			}
		case fxDeliver:
			n.DeliveredPackets++
			n.DeliveredFlits += uint64(f.p.Len)
			if n.OnDeliver != nil {
				n.OnDeliver(f.p, now)
			}
			n.shardFreePacket(f.p)
		case fxDrop:
			n.DroppedPackets++
			n.DroppedFlits += uint64(f.p.Len)
			if n.OnDrop != nil {
				n.OnDrop(f.p, now)
			}
			n.shardFreePacket(f.p)
		case fxCount:
			*f.aux++
		}
	}
}

// shardFreePacket returns a dead packet to the pool of the shard that
// allocated it — the source router's — closing the per-shard circulation:
// each shard's allocation rate equals its long-run free-return rate, so
// no pool grows without bound.
func (n *Network) shardFreePacket(p *route.Packet) {
	sc := n.shards[n.shardOfRouter(p.SrcRouter)]
	p.Next = sc.pool
	sc.pool = p
}
