// Execution contexts: every router, terminal and generator action that
// schedules an event, reads the clock, allocates or frees a packet, or
// touches a counter or observer goes through its *ShardState. New builds
// one context; ConfigureShards replaces it with one per shard, for the
// barrier-synchronized parallel executor (internal/shard). See
// internal/sim/stage.go for the kernel-side contract and docs/STATE.md
// for the full determinism argument.
//
// A context is in one of two modes, and this file is the only place that
// reads which. Serial (the default, and everything outside a window): a
// schedule call goes straight to the kernel, the clock is the kernel's,
// and each effect is applied at once. Staged (set by PartitionWindow on
// every context, cleared when MergeWindow returns): a schedule call goes
// to the context's Stage, the clock is the Stage's, and each effect is
// logged; the merge then stamps the staged schedule calls with their
// sequence numbers and applies the logs through the same per-kind code
// (apply) in global (time, seq) order, so sequence-number assignment,
// counter updates, and observer call order are bit-identical to a
// serial run. The staged events reach the kernel afterwards, each placed
// by the shard it targets into that shard's own calendar (PlaceShard).
//
// Routers are partitioned into contiguous index blocks, one block per
// shard; a terminal belongs to its router's shard, and every typed event
// in the model resolves to the single shard whose slab state its callback
// touches (sim.Sharded) — by type: a context schedules only Sharded
// actors. During a window's parallel phase each shard executes its slice
// of the window's events strictly in serial (time, seq) order —
// including events its own callbacks schedule back inside the window,
// which sim.Stage.RunWindow interleaves locally. The kernel keeps one
// calendar per shard (ConfigureShards splits it), and in RunShard a
// shard pops its window's events from its own calendar as it executes
// them.
//
// Why the parallel phases are race-free (each bullet names the state and
// its owner during them):
//
//   - Router slab state (input VCs, output ports and their inline
//     credits, the router's wait-list arena, per-router RNG): touched
//     only by events of the owning router, all in one shard. route.View
//     exposes only the deciding router's own output state. The candidate
//     scratch is per context (ShardState.ctx), shared only by the
//     context's own routers, whose events it executes one at a time.
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
//     outside the window, where placement hands it to the target shard's
//     calendar. The ownership lemma is mechanized: Stage.AtAct panics on
//     any cross-shard schedule landing inside its window. Packet pools
//     are per context: a packet is taken from its source router's
//     context and freed back to it (by the merge, when staged).
//   - Kernel: the parallel phases read time only through the shard's
//     Stage clock (pinned to the executing event). A shard pops from and
//     places into only its own calendar, whose chunks and pools are its
//     own. Kernel.Cancel writes only the cancelled event's flags byte,
//     and the model cancels only its own router's reroute timer —
//     same-shard by construction; a staged timer is placed by the shard
//     of the router it belongs to, which is also the one that repoints
//     the input VC's handle (Rebind). A later event of the window is
//     still in its calendar or on the stage's pending heap when an
//     earlier one cancels it, and RunWindow reads deadness when it pops
//     it, so the cancel lands exactly as it does serially.
//   - Everything else the phase reads (topology tables, algorithm state,
//     Config, FaultSet, classVCs) is immutable during a run.
package network

import (
	"fmt"

	"hyperx/internal/route"
	"hyperx/internal/sim"
)

// effect kinds: the globally-visible side effects of model code, applied
// at once by a serial context and logged by a staged one for the merge.
const (
	fxID      uint8 = iota // assign the next packet ID (p)
	fxInject               // injection counters (a=flits)
	fxBirth                // generator birth observer (birth fn, a=src b=dst c=flits)
	fxHop                  // OnHop observer (p, a=router b=port c=vc)
	fxDeliver              // delivery counters + OnDeliver + packet free (p)
	fxDrop                 // drop counters + OnDrop + packet free (p)
	fxCount                // increment an external counter (aux)
)

// effect is one side effect. A staged effect is replayed the same cycle
// it was logged, so pointer payloads (the packet, the observer closure)
// are stable between logging and replay: a packet in a deliver/drop
// effect is dead to the model, and an in-flight packet's fields cannot
// change again within the cycle.
type effect struct {
	kind    uint8
	a, b, c int32
	p       *route.Packet
	aux     *uint64
	birth   func(src, dst, flits int, at sim.Time)
}

// execRec records one live event a shard executed: its trace identity and
// the END offsets of its staged schedule calls and effects in the shard's
// logs (the start offsets are the previous record's ends). A calendar
// event's (at, seq) are copied in; an in-window staged event carries its
// staging rank, tagged stagedRec, instead — its seq exists only once the
// merge has stamped the record that staged it, which precedes this one in
// the same shard's stream, so the seq is always assigned by the time the
// merge reads it.
type execRec struct {
	at     sim.Time
	seq    uint64
	opsEnd int32
	fxEnd  int32
}

// stagedRec tags an execRec seq that is a staging rank (kernel seqs never
// reach the top bit).
const stagedRec = 1 << 63

// ShardState is one execution context: the clock, scheduler, packet pool,
// candidate scratch and effect sink of the routers and terminals it
// owns. While staged, its fields are written only by the owning shard
// during the parallel phases and only by the coordinator during the
// merge.
type ShardState struct {
	// The mode and the kernel's owner lead, so that reading the clock or
	// scheduling touches one line of the context.
	sharded bool // staged: inside a window, between PartitionWindow and MergeWindow's return
	net     *Network
	stage   *sim.Stage
	pool    *route.Packet // context-local packet free list (intrusive via Next)
	ctx     route.Ctx     // candidate scratch of the context's routers

	fx     []effect
	recs   []execRec
	winEnd sim.Time // the open window's exclusive end

	// merge cursors (coordinator-only)
	cur   int
	fxPos int32

	// Contexts are allocated one after another and belong to different
	// shards: the pad keeps one context's fields off its neighbour's
	// cache lines.
	_ [64]byte
}

// Record implements sim.Recorder: called by this shard's Stage.RunWindow
// immediately after each live event's callback, it delimits the event's
// staged schedule calls and effects in the shard-private logs. Everything
// it touches is owned by the executing shard — the globally-visible
// replay happens at the merge.
func (sc *ShardState) Record(at sim.Time, seq uint64, staged bool) {
	if staged {
		seq |= stagedRec
	}
	//hxlint:allow allocfree — the exec-record log grows to the shard's per-window high-water live-event count and is reset every merge
	sc.recs = append(sc.recs, execRec{at: at, seq: seq, opsEnd: int32(sc.stage.StagedLen()), fxEnd: int32(len(sc.fx))})
}

// Rebind implements sim.Rebinder: an event the model holds a handle to
// has moved into a calendar slot — a staged re-route timer at placement,
// or any pending event when ConfigureShards re-splits the calendars. The
// one handle the model keeps is a blocked head decision's re-route timer,
// held by its input VC (the only event with an *inputVC payload); repoint
// it unless the decision has since been cancelled and re-armed.
func (n *Network) Rebind(old, placed *sim.Event) {
	if iv, ok := placed.Payload().(*inputVC); ok && iv.timer == old {
		iv.timer = placed
	}
}

// now returns the model clock: the stage's while staged, which tracks the
// event executing on this shard (the kernel clock is frozen at the window
// start then), the kernel's otherwise.
func (sc *ShardState) now() sim.Time {
	if sc.sharded {
		return sc.stage.Now()
	}
	return sc.net.K.Now()
}

// at schedules a typed event: on the stage while staged, so the merge can
// assign sequence numbers serially, on the kernel otherwise. The actor
// must name its shard, whichever the mode.
func (sc *ShardState) at(t sim.Time, act sim.Sharded, op uint8, a, b, c int32, p any) *sim.Event {
	if sc.sharded {
		return sc.stage.AtAct(t, act, op, a, b, c, p)
	}
	return sc.net.K.AtAct(t, act, op, a, b, c, p)
}

// keep marks e, the handle of a re-route timer the model holds past the
// window, so that placement reports where its staged copy lands (Rebind).
// A serial schedule's handle already is its calendar slot.
func (sc *ShardState) keep(e *sim.Event) *sim.Event {
	if sc.sharded {
		sc.stage.Keep(e)
	}
	return e
}

// After schedules a typed event d cycles after the context's clock.
func (sc *ShardState) After(d sim.Time, act sim.Sharded, op uint8, a, b, c int32, p any) *sim.Event {
	return sc.at(sc.now()+d, act, op, a, b, c, p)
}

// emit applies a side effect at once, or logs it for the merge while
// staged.
func (sc *ShardState) emit(f effect) {
	if sc.sharded {
		//hxlint:allow allocfree — the effect log grows to the shard's per-cycle high-water effect count and is reset (not reallocated) every merge
		sc.fx = append(sc.fx, f)
		return
	}
	sc.net.apply(&f, sc.net.K.Now())
}

// Birth reports a generator birth to its observer, with the executing
// event's time (package traffic cannot reach emit).
func (sc *ShardState) Birth(fn func(src, dst, flits int, at sim.Time), src, dst, flits int) {
	sc.emit(effect{kind: fxBirth, a: int32(src), b: int32(dst), c: int32(flits), birth: fn})
}

// Count increments an external uint64 counter (e.g. the generator's
// SelfRedirects).
func (sc *ShardState) Count(ctr *uint64) {
	sc.emit(effect{kind: fxCount, aux: ctr})
}

// apply performs one side effect. now is the executing event's time, so
// observer callbacks see exactly the serial timestamps whether the effect
// is applied at once or replayed by the merge.
func (n *Network) apply(f *effect, now sim.Time) {
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
		n.Routers[f.p.SrcRouter].sc.putPacket(f.p)
	case fxDrop:
		n.DroppedPackets++
		n.DroppedFlits += uint64(f.p.Len)
		if n.OnDrop != nil {
			n.OnDrop(f.p, now)
		}
		n.Routers[f.p.SrcRouter].sc.putPacket(f.p)
	case fxCount:
		*f.aux++
	}
}

// takePacket pops a packet from the context's pool, refilling with a
// chunk of pktChunk packets when empty; the free list is intrusive
// (threaded through Packet.Next), so a refill is a single slab allocation
// and the steady state recycles without touching the heap.
func (sc *ShardState) takePacket() *route.Packet {
	if sc.pool == nil {
		//hxlint:allow allocfree — chunked pool refill: one slab per pktChunk packets; steady state recycles context-locally (a freed packet returns to its source router's context) and never refills
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

// pktChunk is how many packets one pool refill allocates.
const pktChunk = 256

// putPacket returns a dead packet to the context's pool. Callers pick the
// context that allocated it — the source router's — closing the
// per-context circulation: each context's allocation rate equals its
// long-run free-return rate, so no pool grows without bound.
func (sc *ShardState) putPacket(p *route.Packet) {
	p.Next = sc.pool
	sc.pool = p
}

// ConfigureShards partitions the network's routers into nsh contiguous
// blocks and replaces the execution contexts with one per block, each
// with the stage a window needs (the executor requires a configured
// network; New's context has no stage, so serial-only builds allocate
// none), and splits the kernel's queue into one calendar per shard
// (sim.Kernel.SetCalendars), repointing every re-route timer handle that
// moves. The contexts stay serial until a window partitions onto them,
// so a configured network still runs serially, bit-identical to an
// unconfigured one. nsh must be in [1, NumRouters].
func (n *Network) ConfigureShards(nsh int) error {
	nr := len(n.Routers)
	if nsh < 1 || nsh > nr {
		return fmt.Errorf("network: shard count %d outside [1, %d routers]", nsh, nr)
	}
	if n.shards[0].sharded {
		return fmt.Errorf("network: ConfigureShards inside a sharded window")
	}
	// Contexts first: ShardOf, which SetCalendars asks of every pending
	// event, divides by the context count.
	n.buildContexts(nsh, true)
	n.K.SetCalendars(nsh, n)
	return nil
}

// buildContexts builds nsh execution contexts, each with a stage when
// staged is set, and points every router and terminal at its own. The
// old contexts' pools are dropped with them.
func (n *Network) buildContexts(nsh int, staged bool) {
	n.shards = make([]*ShardState, nsh)
	n.stages = nil
	if staged {
		n.stages = make([]*sim.Stage, nsh)
	}
	for s := range n.shards {
		sc := &ShardState{net: n, ctx: newScratch(n.Cfg)}
		if staged {
			sc.stage = sim.NewStage(s, nsh)
			n.stages[s] = sc.stage
		}
		n.shards[s] = sc
	}
	for _, r := range n.Routers {
		r.sc = n.shards[n.shardOfRouter(r.id)]
	}
	for _, t := range n.Terminals {
		t.sc = n.shards[n.shardOfRouter(t.router)]
	}
}

// NumShards returns the number of execution contexts.
func (n *Network) NumShards() int { return len(n.shards) }

// shardOfRouter maps a router index to its contiguous-block shard.
func (n *Network) shardOfRouter(r int) int {
	return r * len(n.shards) / len(n.Routers)
}

// ShardOfTerminal maps a terminal to its router's shard (used by the
// traffic generator's sim.Sharded implementation).
func (n *Network) ShardOfTerminal(t int) int {
	return n.shardOfRouter(n.Terminals[t].router)
}

// TerminalShard returns terminal t's execution context, through which the
// traffic generator schedules and reports its effects.
func (n *Network) TerminalShard(t int) *ShardState { return n.Terminals[t].sc }

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

// PartitionWindow opens every shard's stage for the window ending
// (exclusive) at winEnd and switches every context to staged mode until
// MergeWindow returns. The batch is empty: each shard pops its own
// calendar in RunShard, so there is nothing to distribute; a non-empty
// batch is refused with false, leaving every context serial.
func (n *Network) PartitionWindow(batch []*sim.Event, winEnd sim.Time) bool {
	if len(batch) > 0 {
		return false
	}
	for _, sc := range n.shards {
		sc.stage.StartWindow(winEnd)
		sc.winEnd = winEnd
		sc.sharded = true
	}
	return true
}

// BatchLen reports whether shard s has work in the current window: an
// event before the window end in its calendar, or last window's staged
// events to recycle (the stage resets in RunShard, and a stage left
// holding them would be placed again).
func (n *Network) BatchLen(s int) int {
	sc := n.shards[s]
	if sc.stage.StagedLen() > 0 || n.K.Due(s, sc.winEnd) {
		return 1
	}
	return 0
}

// RunShard executes shard s's slice of the current window, in serial
// (time, seq) order, entirely against shard-private state: it recycles
// the stage's previous window, then the stage pops the shard's own
// calendar up to the window end, interleaves in-window staged events,
// skips dead ones (as the serial kernel does), and reports each live
// event to Record above.
func (n *Network) RunShard(s int) {
	sc := n.shards[s]
	sc.stage.ResetOps()
	sc.stage.RunWindow(n.K, sc)
}

// MergeWindow replays the window's order-sensitive work in global serial
// order: a (nsh)-way merge over the shards' execution records (each
// already (time, seq)-sorted) drives, per executed event, the clock, the
// trace hook, the stamping of its staged schedule calls with their
// sequence numbers (exactly the serial order: executing-event order
// crossed with within-callback program order), and the replay of its
// staged side effects. It reads the shards' logs and writes only the
// kernel's counters, the stages' seq lists and what the effects touch;
// the staged events reach their calendars in PlaceShard. It returns —
// with every context serial again — whether the window's (time,
// seq)-maximal processed event, live or dead, was dead, which the
// executor needs for the serial until-overshoot quirk. Coordinator-only,
// between parallel phases.
func (n *Network) MergeWindow() (lastDead bool) {
	k := n.K
	for _, sc := range n.shards {
		sc.cur, sc.fxPos = 0, 0
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
			if seq&stagedRec != 0 {
				// Staged-exec record: its stager, earlier in this same
				// shard's stream, has been stamped already.
				seq = sc.stage.Seq(int(seq &^ stagedRec))
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
		pick.stage.Stamp(k, int(rec.opsEnd))
		for i := pick.fxPos; i < rec.fxEnd; i++ {
			n.apply(&pick.fx[i], pickAt)
		}
		pick.fxPos = rec.fxEnd
	}
	k.AddExecuted(live)
	var tailAt sim.Time
	var tailSeq uint64
	var has bool
	for _, sc := range n.shards {
		at, seq, dead, ok := sc.stage.Tail()
		if !ok {
			continue
		}
		if !has || at > tailAt || (at == tailAt && seq > tailSeq) {
			tailAt, tailSeq, lastDead, has = at, seq, dead, true
		}
	}
	for _, sc := range n.shards {
		sc.fx = sc.fx[:0]
		sc.recs = sc.recs[:0]
		sc.sharded = false
	}
	return lastDead
}

// PlaceLen reports how many of the window's staged events target shard
// s, from every shard's stage.
func (n *Network) PlaceLen(s int) int {
	m := 0
	for _, st := range n.stages {
		m += st.Outgoing(s)
	}
	return m
}

// PlaceShard copies the window's staged events that target shard s into
// its calendar, in sequence order, and repoints each kept re-route timer
// handle (Rebind) — a timer's input VC belongs to the router the timer
// targets, so this writes only shard s's state. Runs on shard s after
// MergeWindow; afterwards every pending event sits in a calendar again.
func (n *Network) PlaceShard(s int) {
	n.K.Place(s, n.stages, n)
}
