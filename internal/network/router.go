package network

import (
	"fmt"

	"hyperx/internal/rng"
	"hyperx/internal/route"
	"hyperx/internal/sim"
	"hyperx/internal/topology"
)

// Event op codes for the typed sim.Actor dispatch. Every router and
// terminal is registered with the kernel under an id of its own (router r
// at Network.rbase+r, terminal t at tbase+t), and so is each terminal's
// injection on the traffic generator; the op selects the handler within
// the receiver, and the meaning of (a, b, c) is per-op. A packet travels
// as its index in the network's packet slabs (route.Packet.Index, resolved
// by Network.packet), an input VC as its index in its router's vcs.
const (
	opArrive     uint8 = iota // Router: packet head reaches input (a=port, b=vc, c=packet)
	opAttempt                 // Router: retry output arbitration (a=port)
	opCredit                  // Router: upstream credit return (a=port, b=vc, c=flits)
	_                         // opReroute's code, below
	opDeliver                 // Router: packet reaches its terminal on this router (c=packet)
	opTermRetry               // Terminal: injection-channel retry
	opTermCredit              // Terminal: injection credit return (a=vc, b=flits)

	// opReroute is a blocked decision's re-route timer (a=input VC index,
	// b=the VC's timer generation when armed). It expires (Router.Expired)
	// once the VC's generation has moved on: the decision was granted or
	// re-routed first.
	opReroute = sim.OpExpires | 3
)

// inputVC is one per-(port,VC) packet buffer. Occupancy accounting lives
// at the sender as credits; the queue here holds the packets themselves,
// as an intrusive FIFO through Packet.Next — a packet sits in exactly one
// buffer, so queueing is pointer threading with no per-entry storage.
//
// The head packet's routing decision is a waitEntry on the chosen
// output's wait list; the input VC keeps only what an event names it for:
// its re-route timer's generation (an opReroute event carries the input
// VC's idx and the generation it was armed under) and which output the
// decision is registered on.
type inputVC struct {
	head, tail *route.Packet
	gen        int32 // timer generation: bumped when a timer is armed and when its decision goes
	idx        int32 // this buffer's index in Router.vcs: port*nv+vc
	out        int32 // output the head's decision waits on, -1 = none
}

func (iv *inputVC) empty() bool { return iv.head == nil }

func (iv *inputVC) push(p *route.Packet) {
	p.Next = nil
	if iv.tail == nil {
		iv.head = p
	} else {
		iv.tail.Next = p
	}
	iv.tail = p
}

func (iv *inputVC) pop() *route.Packet {
	p := iv.head
	iv.head = p.Next
	if iv.head == nil {
		iv.tail = nil
	}
	p.Next = nil
	return p
}

// waitEntry is a head packet's committed-pending routing decision, held
// by value on its chosen output's wait list. It carries everything
// arbitration reads (age, size, class) and everything the grant commits,
// so scanning a wait list touches neither the packet nor the input VC.
type waitEntry struct {
	birth    sim.Time // head packet's Birth: the age arbiter's key
	flits    int32    // head packet's Len
	ivc      int32    // input VC index, port*nv+vc
	inter    int32    // committed candidate: Inter
	class    int8     // committed candidate: Class (-1 for ejection)
	hopsLeft int8
	dim      int8
	newPhase int8
	flags    uint8 // wDeroute | wSetInter | wEject
}

const (
	wDeroute uint8 = 1 << iota
	wSetInter
	wEject
)

// makeEntry records a decision for the head packet p of input VC ivc.
func makeEntry(p *route.Packet, ivc int32, c *route.Candidate, eject bool) waitEntry {
	e := waitEntry{
		birth: p.Birth, flits: int32(p.Len), ivc: ivc, inter: c.Inter,
		class: c.Class, hopsLeft: c.HopsLeft, dim: c.Dim, newPhase: c.NewPhase,
	}
	if c.Deroute {
		e.flags |= wDeroute
	}
	if c.SetInter {
		e.flags |= wSetInter
	}
	if eject {
		e.flags |= wEject
	}
	return e
}

// cand rebuilds the committed candidate of an entry waiting on port.
func (e *waitEntry) cand(port int) route.Candidate {
	return route.Candidate{
		Port: port, Class: e.class, HopsLeft: e.hopsLeft, Deroute: e.flags&wDeroute != 0,
		Dim: e.dim, NewPhase: e.newPhase, SetInter: e.flags&wSetInter != 0, Inter: e.inter,
	}
}

// maxVCs bounds Config.NumVCs: an output port keeps the downstream
// credits of its first loVCs VCs inline and those of the rest, when there
// are more, in Router.hiCredits.
const (
	maxVCs = 16
	loVCs  = 8
)

// waitInit is the capacity, in entries (four cache lines), of an output's
// first wait-list region. A list that outgrows its region moves, doubled,
// to the end of its router's wait arena (growWaits).
const waitInit = 8

// outputPort is the credit state of an output channel's downstream
// buffers plus what only an eligible attempt or a grant touches, in one
// cache line (layout_test.go): the statistics a grant updates, the port's
// build-time flags, and the credits of its first loVCs VCs, which VC
// selection reads. What a routing decision weighs, a registration writes
// and a blocked attempt reads is the port's portLine; the wiring is in
// Router.links.
type outputPort struct {
	busyAccum  sim.Time // total cycles this channel has carried flits
	grants     uint64   // packets granted through this output
	toTerminal bool
	dead       bool // link failed: zero credits, excluded from routing and arbitration

	credits [loVCs]int32 // free flit slots downstream, per VC

	_ [12]byte // a whole cache line
}

// portLine is one output port's entry in its router's packed view: what
// a routing decision reads about every candidate, what registering the
// decision on the chosen one writes — the wait-list header — and what an
// attempt on a busy channel reads and writes, in 32 bytes, two ports to a
// cache line. A router's region of the network-wide slab starts on a line
// boundary (Network.lines), so at paper scale one dimension's seven ports
// span four lines, a decision registers on a line it has just read, and a
// blocked attempt touches nothing else.
type portLine struct {
	busyUntil sim.Time // the output channel carries flits until this time
	attemptAt sim.Time // time of the latest scheduled attempt, 0 = none
	// load is the port's congestion in flits, kept up to date as state
	// changes: the flits of decisions waiting on the port plus the
	// occupancy of its downstream buffers, Σ(depth − credits) over the
	// port's VCs (none for a terminal port). Registration adds a
	// decision's flits and unregistration removes them, a router grant
	// moves them from waiting to downstream, and a credit return takes
	// them off.
	load  int32
	wbase int32 // the wait list is waits[wbase : wbase+nwait]
	nwait int32
	wcap  int32 // capacity of the wait list's region, 0 = none yet
}

// lineStride is the number of entries in a router's region of the packed
// view: its port count rounded up to whole cache lines of two.
func lineStride(np int) int { return (np + 1) &^ 1 }

// link is where port p of a router leads: the far router and its port,
// or for a terminal port the terminal and -1. It serves both directions —
// the input side of port p receives from, and returns credits to, the
// same peer — and the whole table is small enough to stay cached, which
// the ports' own second lines are not.
type link struct {
	peer, port int32
}

// Router is the combined input/output-queued router model.
type Router struct {
	net   *Network
	id    int
	nv    int
	vcs   []inputVC    // np*nv input buffers, port-major
	out   []outputPort // np output ports
	lines []portLine   // np entries of the packed congestion view
	links []link       // np port wiring entries

	// hiCredits holds, per port, the credits of VCs loVCs and up; nil
	// when Config.NumVCs is at most loVCs.
	hiCredits [][loVCs]int32

	// waits is the arena the outputs' wait lists live in, one region per
	// output (portLine.wbase, wcap). It is allocated at the router's
	// first registration, not at build, and grows to the router's high
	// water.
	waits []waitEntry
	rng   *rng.Source

	// sc is the execution context the router acts through (shard.go):
	// clock, scheduling, candidate scratch and side effects.
	sc *ShardState
}

// self is the router's own actor id.
func (r *Router) self() int32 { return r.net.rbase + int32(r.id) }

// Act implements sim.Actor: the typed-event entry point for all router
// work (arrivals, arbitration attempts, credit returns, re-route timers,
// and deliveries to its terminals).
func (r *Router) Act(op uint8, a, b, c int32, _ any) {
	switch op {
	case opArrive:
		r.arrive(r.net.packet(c), int(a), int(b))
	case opAttempt:
		port := int(a)
		o := &r.lines[port]
		// The event fires exactly at its scheduled time, so now() is the
		// `t` this attempt was deduplicated under.
		if o.attemptAt == r.sc.now() {
			o.attemptAt = 0
		}
		r.attempt(port)
	case opCredit:
		r.creditArrive(int(a), int8(b), int(c))
	case opReroute:
		r.reroute(&r.vcs[a])
	case opDeliver:
		// Counters, the OnDeliver observer and the packet free.
		r.sc.emit(effect{kind: fxDeliver, p: r.net.packet(c)})
	}
}

// Expired implements sim.Expirer for opReroute, the router's one expiring
// op: a timer has expired once its input VC's generation has moved on.
func (r *Router) Expired(_ uint8, a, b, _ int32) bool { return r.vcs[a].gen != b }

// routerSlabs hands a router its views into the network-level state
// slabs: the router owns the subslices exclusively, but the backing
// arrays are contiguous across all routers (see Network build).
type routerSlabs struct {
	out       []outputPort   // np ports
	lines     []portLine     // np ports, starting on a cache line
	vcs       []inputVC      // np*nv buffers
	links     []link         // np ports
	hiCredits [][loVCs]int32 // np ports, or nil
}

// initRouter wires a slab-allocated Router in place.
func initRouter(r *Router, n *Network, id int, rs *rng.Source, sl routerSlabs) {
	topo := n.Cfg.Topo
	np := topo.NumPorts()
	nv := n.Cfg.NumVCs
	*r = Router{net: n, id: id, nv: nv, vcs: sl.vcs, out: sl.out, lines: sl.lines, links: sl.links, hiCredits: sl.hiCredits, rng: rs}
	for i := range r.vcs {
		// Scalar stores only: the slab is fresh, so its pointers are
		// already nil, and writing them would cost a write barrier each
		// whenever the collector runs during a build.
		r.vcs[i].idx, r.vcs[i].out = int32(i), -1
	}
	for p := 0; p < np; p++ {
		op := &r.out[p]
		r.links[p] = link{peer: -1, port: -1}
		switch topo.PortKind(id, p) {
		case topology.Terminal:
			op.toTerminal = true
			r.links[p].peer = int32(topo.PortTerminal(id, p))
			for v := 0; v < nv; v++ {
				*r.credit(p, int8(v)) = 1 << 30 // terminals always drain
			}
		case topology.Local, topology.Global:
			pr, pp := topo.Peer(id, p)
			r.links[p] = link{peer: int32(pr), port: int32(pp)}
			if n.Cfg.Faults.Dead(id, p) {
				// Failed link: the output never accumulates credits, so
				// arbitration can never grant it even if a stale decision
				// lands here, and its downstream buffers count as full.
				op.dead = true
				r.lines[p].load = int32(nv * n.Cfg.BufDepth)
				continue
			}
			for v := 0; v < nv; v++ {
				*r.credit(p, int8(v)) = int32(n.Cfg.BufDepth)
			}
		}
	}
}

// credit is the downstream credit counter of (port, vc).
func (r *Router) credit(port int, vc int8) *int32 {
	if vc < loVCs {
		return &r.out[port].credits[vc]
	}
	return &r.hiCredits[port][vc-loVCs]
}

// occupancy is the flits held in port's downstream buffers, the part of
// its portLine.load that credits account for; a terminal drains at once
// and holds none.
func (r *Router) occupancy(port int) int32 {
	if r.out[port].toTerminal {
		return 0
	}
	depth := int32(r.net.Cfg.BufDepth)
	total := int32(0)
	for v := 0; v < r.nv; v++ {
		total += depth - *r.credit(port, int8(v))
	}
	return total
}

// classLoad is the congestion of sending on port within a resource class,
// for the per-class sensing ablation (Config.ClassSense): the least
// occupied of the class's downstream buffers plus the flits waiting on
// the port. The residual busy time is the caller's.
func (r *Router) classLoad(port int, class int8) int32 {
	queued := r.lines[port].load - r.occupancy(port)
	if r.out[port].toTerminal {
		return queued
	}
	depth := int32(r.net.Cfg.BufDepth)
	best := depth
	for _, vc := range r.net.classVCs[class] {
		best = min(best, depth-*r.credit(port, vc))
	}
	return best + queued
}

// arrive is called when a packet's head reaches input (port, vc).
func (r *Router) arrive(p *route.Packet, port, vc int) {
	iv := &r.vcs[port*r.nv+vc]
	p.VC = int8(vc)
	iv.push(p)
	if iv.head == p { // became head
		r.routeHead(iv)
	}
}

// routeHead computes (or recomputes) the routing decision for the head
// packet of input VC iv and registers it on the chosen output.
func (r *Router) routeHead(iv *inputVC) {
	p := iv.head
	var e waitEntry
	var port int
	if p.DstRouter == r.id {
		_, port = r.net.Cfg.Topo.TerminalPort(p.Dst)
		e = makeEntry(p, iv.idx, &route.Candidate{Port: port, Class: -1}, true)
	} else {
		ctx := &r.sc.ctx
		ctx.Router = r.id
		ctx.InPort = int(iv.idx) / r.nv
		ctx.RNG = r.rng
		cands := r.weigh(r.net.Cfg.Alg.Route(ctx, p))
		ctx.Cands = cands // keep the grown buffer for reuse
		if len(cands) == 0 {
			if r.net.hasFaults {
				// Detect-and-drop: on a faulted network a packet with no
				// live candidate is discarded and counted rather than
				// wedging the VC (or panicking). See DESIGN notes on
				// graceful degradation semantics.
				r.drop(iv)
				return
			}
			panic(fmt.Sprintf("network: %s produced no route at router %d for packet %d->%d (hops=%d class=%d phase=%d inter=%d)",
				r.net.Cfg.Alg.Name(), r.id, p.Src, p.Dst, p.Hops, p.Class, p.Phase, p.Inter))
		}
		c := &cands[route.SelectMinWeight(cands, r.rng)]
		port = c.Port
		e = makeEntry(p, iv.idx, c, false)
		// A blocked decision goes stale; re-evaluate periodically so
		// incremental adaptivity keeps responding to changing congestion.
		iv.gen++
		r.sc.After(r.net.Cfg.ReRouteInterval, r.self(), opReroute, iv.idx, iv.gen, 0)
	}
	ln := &r.lines[port]
	if ln.nwait == ln.wcap {
		r.growWaits(ln)
	}
	r.waits[ln.wbase+ln.nwait] = e
	ln.nwait++
	ln.load += e.flits
	iv.out = int32(port)
	r.attempt(port)
}

// weigh fills each candidate's Load from the packed view — the port's
// load, or under ClassSense the candidate's class load, plus the
// channel's residual busy time — and on a faulted network drops
// candidates on dead ports in place. Fault-aware algorithms never emit
// those; dropping them is the safety net for the fault-oblivious
// baselines (DOR, VAL, UGAL, ...), whose dimension-ordered hops cannot
// route around a failed link.
func (r *Router) weigh(cands []route.Candidate) []route.Candidate {
	now := r.sc.now()
	for i := range cands {
		c := &cands[i]
		ln := &r.lines[c.Port]
		c.Load = ln.load
		if r.net.Cfg.ClassSense {
			c.Load = r.classLoad(c.Port, c.Class)
		}
		if d := ln.busyUntil - now; d > 0 {
			c.Load += int32(d)
		}
	}
	if !r.net.hasFaults {
		return cands
	}
	kept := cands[:0]
	for _, c := range cands {
		if !r.out[c.Port].dead {
			kept = append(kept, c)
		}
	}
	return kept
}

// growWaits moves the full wait list of the output whose line is ln to a
// region of twice its capacity (waitInit for its first) at the end of the
// router's arena. An arena with no room left is rebuilt twice as large as
// its live regions, and at least a first region per output plus a
// quarter, packing them densely and dropping the regions earlier moves
// abandoned. Entries keep their order. At paper scale about 1 % of lists outgrow a first region,
// and the first arena's spare quarter holds every router's moves, so no
// arena is ever rebuilt there.
func (r *Router) growWaits(ln *portLine) {
	need := max(2*ln.wcap, waitInit)
	old := r.waits
	if len(old)+int(need) > cap(old) {
		live := need
		for i := range r.lines {
			if q := &r.lines[i]; q != ln {
				live += q.wcap
			}
		}
		//hxlint:allow allocfree — the wait arena is rebuilt only when a list outgrows it; each rebuild doubles its live regions, so it settles at the router's high water
		r.waits = make([]waitEntry, 0, max(2*live, int32(len(r.lines)*waitInit*5/4)))
		if r.net.huge {
			sim.AdviseHuge(r.waits)
		}
		for i := range r.lines {
			if q := &r.lines[i]; q != ln {
				q.wbase = r.claim(old[q.wbase:q.wbase+q.nwait], q.wcap)
			}
		}
	}
	ln.wbase, ln.wcap = r.claim(old[ln.wbase:ln.wbase+ln.nwait], need), need
}

// claim appends a region of n entries to the wait arena, which has room
// for it, starting with the entries ws, and returns its base.
func (r *Router) claim(ws []waitEntry, n int32) int32 {
	base := len(r.waits)
	r.waits = r.waits[:base+int(n)]
	copy(r.waits[base:], ws)
	return int32(base)
}

// reroute re-runs route computation for a still-blocked head decision.
func (r *Router) reroute(iv *inputVC) {
	if iv.out < 0 {
		return
	}
	ln := &r.lines[iv.out]
	ws := r.waits[ln.wbase : ln.wbase+ln.nwait]
	for i := range ws {
		if ws[i].ivc == iv.idx {
			r.unregister(ln, i)
			break
		}
	}
	r.routeHead(iv)
}

// unregister removes entry i from the wait list of the output whose line
// is ln by swapping the last entry into its place, and expires the
// decision's re-route timer.
func (r *Router) unregister(ln *portLine, i int) {
	ws := r.waits[ln.wbase : ln.wbase+ln.nwait]
	e := &ws[i]
	iv := &r.vcs[e.ivc]
	iv.out = -1
	iv.gen++
	ln.load -= e.flits
	last := len(ws) - 1
	ws[i] = ws[last]
	ln.nwait--
}

// creditUpstream returns flits of buffer space on input VC ivc to its
// upstream sender, arriving at time at.
func (r *Router) creditUpstream(at sim.Time, ivc int32, flits int) {
	port, vc := int(ivc)/r.nv, int32(int(ivc)%r.nv)
	up := r.links[port]
	if up.port < 0 {
		r.sc.at(at+r.net.Cfg.TermChanLat, r.net.tbase+up.peer, opTermCredit, vc, int32(flits), 0)
	} else {
		r.sc.at(at+r.net.Cfg.RouterChanLat, r.net.rbase+up.peer, opCredit, up.port, vc, int32(flits))
	}
}

// drop discards the head packet of input VC iv because routing found no
// live candidate: the packet is counted, its buffer space is freed (the
// credit crosses the reverse channel as usual), and the next packet of
// the VC is routed. Only reachable on faulted networks.
func (r *Router) drop(iv *inputVC) {
	p := iv.pop()
	flits := p.Len
	// Counters, the OnDrop observer, and the packet free.
	r.sc.emit(effect{kind: fxDrop, p: p})
	r.creditUpstream(r.sc.now(), iv.idx, flits)
	if !iv.empty() {
		r.routeHead(iv)
	}
}

// mostCredited returns the VC a grant in class would take on port: the
// first of the class's VCs with the most credits. A waiter is eligible
// iff that VC can hold its whole packet (or, under atomic queue
// allocation, is completely empty) — if the most-credited VC cannot,
// none can.
func (r *Router) mostCredited(port int, class int8) int8 {
	vcs := r.net.classVCs[class]
	best, most := vcs[0], *r.credit(port, vcs[0])
	for _, vc := range vcs[1:] {
		if cr := *r.credit(port, vc); cr > most {
			best, most = vc, cr
		}
	}
	return best
}

// attempt tries to grant the output channel of port to the oldest
// eligible waiting decision (age-based arbitration).
func (r *Router) attempt(port int) {
	ln := &r.lines[port]
	now := r.sc.now()
	if ln.busyUntil > now {
		r.scheduleAttempt(port, ln.busyUntil)
		return
	}
	if ln.nwait == 0 {
		return
	}
	o := &r.out[port]
	ws := r.waits[ln.wbase : ln.wbase+ln.nwait]
	atomic, depth := r.net.Cfg.AtomicVCAlloc, int32(r.net.Cfg.BufDepth)
	// vcOf[c] is resource class c's most-credited VC plus one, chosen at
	// the class's first waiter; credits do not change during the scan.
	var vcOf [maxVCs]int8
	best := -1
	var bestVC int8
	eligible := 0
	for i := range ws {
		w := &ws[i]
		var vc int8 // a terminal port: every waiter ejects on VC 0
		if !o.toTerminal {
			k := &vcOf[w.class]
			if *k == 0 {
				*k = r.mostCredited(port, w.class) + 1
			}
			vc = *k - 1
			need := w.flits
			if atomic {
				need = depth
			}
			if *r.credit(port, vc) < need {
				continue
			}
		}
		eligible++
		switch r.net.Cfg.Arbiter {
		case FIFOArbiter:
			// Decisions register in arrival order; keep the first eligible.
			if best < 0 {
				best, bestVC = i, vc
			}
		case RandomArbiter:
			// Reservoir-sample among the eligible.
			if best < 0 || r.rng.Intn(eligible) == 0 {
				best, bestVC = i, vc
			}
		default: // AgeArbiter
			if best < 0 || w.birth < ws[best].birth {
				best, bestVC = i, vc
			}
		}
	}
	if best < 0 {
		return
	}
	r.grant(o, ln, port, best, bestVC)
}

// scheduleAttempt schedules an attempt for port at time t, deduplicating.
func (r *Router) scheduleAttempt(port int, t sim.Time) {
	o := &r.lines[port]
	if o.attemptAt > 0 && o.attemptAt <= t {
		return // an attempt at or before t is already pending
	}
	o.attemptAt = t
	r.sc.at(t, r.self(), opAttempt, int32(port), 0, 0)
}

// grant moves the head packet of wait-list entry i of output o (port,
// line ln) across the crossbar and channel, reserving downstream space and
// returning upstream credits as the flits drain.
func (r *Router) grant(o *outputPort, ln *portLine, port, i int, vc int8) {
	now := r.sc.now()
	// Copy the entry: unregister below overwrites its slot.
	w := r.waits[int(ln.wbase)+i]
	iv := &r.vcs[w.ivc]
	p := iv.pop()
	r.unregister(ln, i)

	flits := p.Len
	ln.busyUntil = now + sim.Time(flits)
	o.busyAccum += sim.Time(flits)
	o.grants++

	if o.toTerminal {
		r.sc.at(now+r.net.Cfg.XbarLat+r.net.Cfg.TermChanLat, r.self(), opDeliver, 0, 0, p.Index)
	} else {
		cand := w.cand(port)
		route.Commit(p, &cand)
		*r.credit(port, vc) -= int32(flits)
		ln.load += int32(flits) // the flits unregister took off now sit downstream
		p.VC = vc
		if r.net.OnHop != nil {
			// The packet is in flight for the rest of the cycle, so its
			// committed routing state is stable until a merge replays the
			// observer call.
			r.sc.emit(effect{kind: fxHop, p: p, a: int32(r.id), b: int32(port), c: int32(vc)})
		}
		down := r.links[port]
		r.sc.at(now+r.net.Cfg.XbarLat+r.net.Cfg.RouterChanLat, r.net.rbase+down.peer, opArrive, down.port, int32(vc), p.Index)
	}

	// Upstream credit return: the last flit leaves our input buffer at
	// now+flits; the credit crosses the reverse channel after its latency.
	r.creditUpstream(now+sim.Time(flits), w.ivc, flits)

	if !iv.empty() {
		r.routeHead(iv)
	}
	if ln.nwait > 0 {
		r.scheduleAttempt(port, ln.busyUntil)
	}
}

// creditArrive restores downstream space on (port, vc) and retries the
// output.
func (r *Router) creditArrive(port int, vc int8, flits int) {
	*r.credit(port, vc) += int32(flits)
	r.lines[port].load -= int32(flits)
	r.attempt(port)
}
