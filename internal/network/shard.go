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
// serial run. A staged event for the context's own shard is in that
// shard's calendar already, whatever its time, and PlaceShard gives it its
// stamped seq; an event for another shard reaches the kernel afterwards,
// copied by the shard it targets into that shard's inbox (PlaceShard).
//
// Routers are partitioned into contiguous index blocks, one block per
// shard; a terminal belongs to its router's shard, and every typed event
// in the model resolves to the single shard whose slab state its callback
// touches (sim.Sharded) — by its actor id alone: a delivery is an op of
// the destination router, and the generator holds one id per terminal.
// During a window's parallel phase each shard executes its slice
// of the window's events strictly in serial (time, seq) order. The
// kernel keeps one calendar per shard (ConfigureShards splits it), and in
// RunShard a shard pops its window's events from its own calendar and its
// inbox as it executes them — including the events its own callbacks
// schedule back inside the window, which land in that same calendar
// (sim.Stage.At).
//
// Why the parallel phases are race-free (each bullet names the state and
// its owner during them):
//
//   - Router slab state (input VCs, output ports and their inline
//     credits, the router's wait-list arena, per-router RNG): touched
//     only by events of the owning router, all in one shard. A routing
//     decision weighs its candidates from the deciding router's own
//     packed view (Router.lines), which only that router's events
//     update, so no decision reads another router's state. The candidate
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
//     inbox. The ownership lemma is mechanized: Stage.At panics on
//     any cross-shard schedule landing inside its window. Packet pools
//     are per context: a packet is taken from its source router's
//     context and freed back to it (by the merge, when staged). An event
//     names its packet by index; resolving one reads the directory
//     entries written when the packet's slab was added — before the
//     packet existed, so before the handoff — and a context adding a
//     slab writes only the directory blocks it claimed (takePacket).
//   - Kernel: the parallel phases read time only through the shard's
//     Stage clock (pinned to the executing event). A shard pops from,
//     schedules into and places into only its own calendar and inbox,
//     whose chunks and pools are its own. A re-route timer expires by
//     its input VC's generation, which only the router's own events
//     write, and the kernel asks Router.Expired when it pops the timer,
//     on the router's shard: a grant earlier in the window expires a
//     later timer exactly as it does serially.
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

// execRec records one live event a shard executed that the merge has work
// for: its trace identity and the END offsets of its staged schedule
// calls and effects in the shard's logs (the start offsets are the
// previous record's ends). The (at, seq) are the ones RunWindow reports:
// an in-window staged event's seq is its tagged staging rank, which
// sim.Stage.Seq resolves once the merge has stamped the record that
// staged it — a record that precedes this one in the same shard's stream.
type execRec struct {
	at     sim.Time
	seq    uint64
	opsEnd int32
	fxEnd  int32
}

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

	// Packet slab claims (takePacket): the directory block being filled
	// (-1: none yet) and its next free entry, and the next block the
	// context may claim, every stride-th after it.
	pblock, pslab  int32
	pnext, pstride int32

	fx   []effect
	recs []execRec

	// The window's live events, recorded or not, and the last one's time.
	live   uint64
	lastAt sim.Time

	// merge cursors (coordinator-only)
	cur   int
	fxPos int32

	// Contexts are allocated one after another and belong to different
	// shards: the pad keeps one context's fields off its neighbour's
	// cache lines.
	_ [64]byte
}

// Record implements sim.Recorder: called by this shard's Stage.RunWindow
// immediately after each live event's callback, it counts the event and
// delimits its staged schedule calls and effects in the shard-private
// logs. An event that staged neither leaves no record unless the run is
// traced: the merge has nothing to stamp or replay for it, and the
// count and time kept here stand in for it. Everything it touches is
// owned by the executing shard — the globally-visible replay happens at
// the merge.
func (sc *ShardState) Record(at sim.Time, seq uint64) {
	sc.live++
	sc.lastAt = at
	ops, fx := int32(sc.stage.StagedLen()), int32(len(sc.fx))
	var prev execRec
	if n := len(sc.recs); n > 0 {
		prev = sc.recs[n-1]
	}
	if ops == prev.opsEnd && fx == prev.fxEnd && sc.net.K.TraceExec == nil {
		return
	}
	//hxlint:allow allocfree — the exec-record log grows to the shard's per-window high-water live-event count and is reset every merge
	sc.recs = append(sc.recs, execRec{at: at, seq: seq, opsEnd: ops, fxEnd: fx})
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

// at schedules a typed event for actor id: on the stage while staged, so
// the merge can assign sequence numbers serially, on the kernel
// otherwise.
func (sc *ShardState) at(t sim.Time, id int32, op uint8, a, b, c int32) {
	if sc.sharded {
		sc.stage.At(t, id, op, a, b, c)
		return
	}
	sc.net.K.At(t, id, op, a, b, c)
}

// After schedules a typed event for actor id d cycles after the
// context's clock.
func (sc *ShardState) After(d sim.Time, id int32, op uint8, a, b, c int32) {
	sc.at(sc.now()+d, id, op, a, b, c)
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
// slab of pktChunk packets when empty; the free list is intrusive
// (threaded through Packet.Next), so a refill is a single slab allocation
// and the steady state recycles without touching the heap.
func (sc *ShardState) takePacket() *route.Packet {
	if sc.pool == nil {
		sc.refill()
	}
	p := sc.pool
	sc.pool = p.Next
	return p
}

// refill adds a slab to the context's pool and to the packet directory,
// giving each of its packets its Index. A context fills only directory
// blocks it claimed for itself — block pnext, then every pstride-th after
// it — and in them only entries for slabs no packet lives in yet, so it
// writes nothing another context may be reading. The directory itself is
// made here only on a serial network: ConfigureShards makes it before any
// window opens.
func (sc *ShardState) refill() {
	n := sc.net
	if n.pdir == nil {
		n.pdir = new(pktDir)
	}
	if sc.pblock < 0 || sc.pslab == pktBlockLen {
		if sc.pnext >= pktDirLen {
			panic(fmt.Sprintf("network: packet directory full (%d packets)", pktDirLen*pktBlockLen*pktChunk))
		}
		sc.pblock, sc.pslab = sc.pnext, 0
		sc.pnext += sc.pstride
		n.pdir[sc.pblock] = new(pktBlock)
	}
	//hxlint:allow allocfree — chunked pool refill: one slab per pktChunk packets; steady state recycles context-locally (a freed packet returns to its source router's context) and never refills
	slab := (*pktSlab)(make([]route.Packet, pktChunk))
	if n.huge {
		sim.AdviseHuge(slab[:])
	}
	n.pdir[sc.pblock][sc.pslab] = slab
	base := sc.pblock<<pktDirShift | sc.pslab<<pktBlockShift
	sc.pslab++
	for i := range slab {
		slab[i].Index = base | int32(i)
	}
	for i := range slab[:pktChunk-1] {
		slab[i].Next = &slab[i+1]
	}
	sc.pool = &slab[0]
}

// The packet directory: a packet's Index is its directory block, its
// slab's entry in the block and its place in the slab. The directory is
// a fixed array, so adding a block writes one entry of it and moves
// nothing another context may be reading.
const (
	pktChunk      = 256 // packets per slab
	pktBlockShift = 8
	pktBlockLen   = 256 // slabs per directory block
	pktDirShift   = 16
	pktDirLen     = 2048 // blocks: 2^27 packets
)

type (
	pktSlab  [pktChunk]route.Packet
	pktBlock [pktBlockLen]*pktSlab
	pktDir   [pktDirLen]*pktBlock
)

// freePackets returns every packet the directory lists to a context's
// pool, for a restore that drops them all: the i-th slab found goes to
// context i mod the context count. The contexts keep their claims, so
// slabs a restore does not reuse stay listed for the next one.
func (n *Network) freePackets() {
	for _, sc := range n.shards {
		sc.pool = nil
	}
	if n.pdir == nil {
		return
	}
	i := 0
	for _, blk := range n.pdir {
		if blk == nil {
			continue
		}
		for _, slab := range blk {
			if slab == nil {
				continue
			}
			sc := n.shards[i%len(n.shards)]
			i++
			for j := range slab[:pktChunk-1] {
				slab[j].Next = &slab[j+1]
			}
			slab[pktChunk-1].Next = sc.pool
			sc.pool = &slab[0]
		}
	}
}

// packet resolves a packet index an event carries.
func (n *Network) packet(i int32) *route.Packet {
	return &n.pdir[i>>pktDirShift][i>>pktBlockShift&(pktBlockLen-1)][i&(pktChunk-1)]
}

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
// (sim.Kernel.SetCalendars). The contexts stay serial until a window
// partitions onto them, so a configured network still runs serially,
// bit-identical to an unconfigured one. nsh must be in [1, NumRouters].
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
	n.K.SetCalendars(nsh)
	return nil
}

// buildContexts builds nsh execution contexts, each with a stage when
// staged is set, and points every router and terminal at its own. The
// old contexts' pools are dropped with them.
func (n *Network) buildContexts(nsh int, staged bool) {
	// The new contexts claim directory blocks past every block the old
	// ones claimed: their packets stay live. (Each configuration can
	// leave up to a block per context unused below that, out of
	// pktDirLen.)
	var base int32
	for _, sc := range n.shards {
		base = max(base, sc.pblock+1)
	}
	if staged && n.pdir == nil {
		n.pdir = new(pktDir)
	}
	n.shards = make([]*ShardState, nsh)
	n.stages = nil
	if staged {
		n.stages = make([]*sim.Stage, nsh)
	}
	for s := range n.shards {
		sc := &ShardState{net: n, ctx: newScratch(n.Cfg), pblock: -1, pnext: base + int32(s), pstride: int32(nsh)}
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

// ShardOf implements sim.Sharded: every router event (arrive, attempt,
// credit, reroute) touches only the receiving router's slab state, and a
// delivery only staged aggregate state and the router's context.
func (r *Router) ShardOf(int) int {
	return r.net.shardOfRouter(r.id)
}

// ShardOf implements sim.Sharded: terminal events (retry, credit) touch
// only the terminal, which lives with its router.
func (t *Terminal) ShardOf(int) int {
	return t.net.shardOfRouter(t.router)
}

// PartitionWindow opens every shard's stage for the window ending
// (exclusive) at winEnd and switches every context to staged mode until
// MergeWindow returns. The executor passes no batch — each shard pops
// its own calendar in RunShard — so the batch is never read; it always
// reports true.
func (n *Network) PartitionWindow(_ []*sim.Event, winEnd sim.Time) bool {
	for _, sc := range n.shards {
		sc.stage.StartWindow(n.K, winEnd)
		sc.sharded = true
	}
	return true
}

// RunShard executes shard s's slice of the current window, in serial
// (time, seq) order, entirely against shard-private state: it recycles
// the stage's previous window, then the stage pops the shard's own
// calendar and inbox up to the window end — the events staged inside the
// window among them — skips expired ones (as the serial kernel does), and
// reports each live event to Record above.
func (n *Network) RunShard(s int) {
	sc := n.shards[s]
	sc.stage.ResetOps()
	sc.stage.RunWindow(n.K, sc)
}

// MergeWindow replays the window's order-sensitive work in global serial
// order: a (nsh)-way merge over the shards' execution records (each
// already (time, seq)-sorted) drives, per recorded event, the clock, the
// trace hook, the stamping of its staged schedule calls with their
// sequence numbers (exactly the serial order: executing-event order
// crossed with within-callback program order), and the replay of its
// staged side effects. Every live event counts, recorded or not, and the
// clock ends at the window's last one, as a serial run leaves it. It
// reads the shards' logs and writes only the kernel's counters and
// clock, the stages' seq lists and what the effects touch; the staged
// events get their seqs and inboxes in PlaceShard. It returns —
// with every context serial again — whether the window's (time,
// seq)-maximal processed event, live or expired, had expired, which the
// executor needs for the serial until-overshoot quirk. Coordinator-only,
// between parallel phases.
func (n *Network) MergeWindow() (lastDead bool) {
	k := n.K
	for _, sc := range n.shards {
		sc.cur, sc.fxPos = 0, 0
	}
	for {
		var pick *ShardState
		var pickAt sim.Time
		var pickSeq uint64
		for _, sc := range n.shards {
			if sc.cur >= len(sc.recs) {
				continue
			}
			// A tagged seq's stager, earlier in this same shard's
			// stream, has been stamped already.
			rec := &sc.recs[sc.cur]
			at, seq := rec.at, sc.stage.Seq(rec.seq)
			if pick == nil || at < pickAt || (at == pickAt && seq < pickSeq) {
				pick, pickAt, pickSeq = sc, at, seq
			}
		}
		if pick == nil {
			break
		}
		rec := &pick.recs[pick.cur]
		pick.cur++
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
	var live uint64
	var lastAt sim.Time
	for _, sc := range n.shards {
		if sc.live > 0 {
			live += sc.live
			lastAt = max(lastAt, sc.lastAt)
		}
	}
	if live > 0 {
		k.SetNow(lastAt)
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
		sc.live = 0
		sc.sharded = false
	}
	return lastDead
}

// PlaceShard gives the window's events shard s staged for itself beyond
// the window their stamped seqs, in place, and copies the ones the other
// shards staged for it into its inbox, in sequence order (sim.Kernel.Place)
// — it writes only shard s's calendar and inbox. Runs on shard s after
// MergeWindow; afterwards every pending event sits in a calendar under its
// kernel seq again.
func (n *Network) PlaceShard(s int) {
	n.K.Place(s, n.stages)
}
