package network

import (
	"fmt"

	"hyperx/internal/rng"
	"hyperx/internal/route"
	"hyperx/internal/sim"
	"hyperx/internal/topology"
)

// Event op codes for the typed sim.Actor dispatch. Routers, terminals,
// the network, and the traffic generator each implement sim.Actor so the
// hot path schedules pre-bound events instead of closures; the op selects
// the handler within the receiver, and the meaning of (a, b, c, p) is
// per-op. Every op here replaced a closure that was allocated per packet
// or per arbitration attempt.
const (
	opArrive     uint8 = iota // Router: packet head reaches input (a=port, b=vc, p=*route.Packet)
	opAttempt                 // Router: retry output arbitration (a=port)
	opCredit                  // Router: upstream credit return (a=port, b=vc, c=flits)
	opReroute                 // Router: blocked-decision re-route timer (p=*inputVC)
	opDeliver                 // Network: packet reaches its terminal (p=*route.Packet)
	opTermRetry               // Terminal: injection-channel retry
	opTermCredit              // Terminal: injection credit return (a=vc, b=flits)
)

// inputVC is one per-(port,VC) packet buffer. Occupancy accounting lives
// at the sender as credits; the queue here holds the packets themselves,
// as an intrusive FIFO through Packet.Next — a packet sits in exactly one
// buffer, so queueing is pointer threading with no per-entry storage.
//
// The head packet's routing decision is a waitEntry on the chosen
// output's wait list; the input VC keeps only what needs a stable
// address: the decision's re-route timer handle (the opReroute payload is
// the inputVC itself) and which output the decision is registered on.
type inputVC struct {
	head, tail *route.Packet
	timer      *sim.Event // pending re-route timer, nil when none
	idx        int32      // this buffer's index in Router.vcs: port*nv+vc
	out        int32      // output the head's decision waits on, -1 = none
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

// maxVCs bounds Config.NumVCs: an output port's downstream credits are a
// fixed inline array of this many counters.
const maxVCs = 16

// waitInit is the capacity, in entries (four cache lines), of an output's
// first wait-list region. A list that outgrows its region moves, doubled,
// to the end of its router's wait arena (growWaits).
const waitInit = 8

// outputPort models an output channel (1 flit/cycle serialization, fixed
// pipeline latency) plus the credit state of the downstream buffer. The
// first 64 bytes are what routing views, VC selection and arbitration
// read — with up to 8 VCs the credits too; the wait list's capacity and
// the statistics a grant updates follow (layout_test.go). The wiring is
// in Router.links.
type outputPort struct {
	busyUntil   sim.Time
	attemptAt   sim.Time // time of the latest scheduled attempt, 0 = none
	queuedFlits int32    // flits of packets waiting on this output (congestion signal)
	wbase       int32    // the wait list is waits[wbase : wbase+nwait]
	nwait       int32
	toTerminal  bool
	dead        bool // link failed: zero credits, excluded from routing and arbitration

	credits [maxVCs]int32 // free flit slots downstream, per VC

	wcap      int32    // capacity of the wait list's region, 0 = none yet
	busyAccum sim.Time // total cycles this channel has carried flits
	grants    uint64   // packets granted through this output

	_ [8]byte // two whole cache lines, so every port's hot half is one line
}

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
	links []link       // np port wiring entries

	// waits is the arena the outputs' wait lists live in, one region per
	// output (outputPort.wbase, wcap). It is allocated at the router's
	// first registration, not at build, and grows to the router's high
	// water.
	waits []waitEntry
	rng   *rng.Source

	// sc is the execution context the router acts through (shard.go):
	// clock, scheduling, candidate scratch and side effects.
	sc *ShardState
}

// Act implements sim.Actor: the typed-event entry point for all router
// work (arrivals, arbitration attempts, credit returns, re-route timers).
func (r *Router) Act(op uint8, a, b, c int32, p any) {
	switch op {
	case opArrive:
		r.arrive(p.(*route.Packet), int(a), int(b))
	case opAttempt:
		port := int(a)
		o := &r.out[port]
		// The event fires exactly at its scheduled time, so now() is the
		// `t` this attempt was deduplicated under.
		if o.attemptAt == r.sc.now() {
			o.attemptAt = 0
		}
		r.attempt(port)
	case opCredit:
		r.creditArrive(int(a), int8(b), int(c))
	case opReroute:
		r.reroute(p.(*inputVC))
	}
}

// routerSlabs hands a router its views into the network-level state
// slabs: the router owns the subslices exclusively, but the backing
// arrays are contiguous across all routers (see Network build).
type routerSlabs struct {
	out   []outputPort // np ports
	vcs   []inputVC    // np*nv buffers
	links []link       // np ports
}

// initRouter wires a slab-allocated Router in place.
func initRouter(r *Router, n *Network, id int, rs *rng.Source, sl routerSlabs) {
	topo := n.Cfg.Topo
	np := topo.NumPorts()
	nv := n.Cfg.NumVCs
	*r = Router{net: n, id: id, nv: nv, vcs: sl.vcs, out: sl.out, links: sl.links, rng: rs}
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
			for v := range op.credits[:nv] {
				op.credits[v] = 1 << 30 // terminals always drain
			}
		case topology.Local, topology.Global:
			pr, pp := topo.Peer(id, p)
			r.links[p] = link{peer: int32(pr), port: int32(pp)}
			if n.Cfg.Faults.Dead(id, p) {
				// Failed link: the output never accumulates credits, so
				// arbitration can never grant it even if a stale decision
				// lands here.
				op.dead = true
				continue
			}
			for v := range op.credits[:nv] {
				op.credits[v] = int32(n.Cfg.BufDepth)
			}
		}
	}
}

// view adapts the router's output state to route.View.
type view Router

// ClassLoad implements route.View.
func (v *view) ClassLoad(port int, class int8) int {
	r := (*Router)(v)
	o := &r.out[port]
	depth := r.net.Cfg.BufDepth
	best := depth // max possible occupancy
	if o.toTerminal {
		best = 0
	} else {
		for _, vc := range r.net.classVCs[class] {
			if occ := depth - int(o.credits[vc]); occ < best {
				best = occ
			}
		}
	}
	return best + int(o.queuedFlits) + r.residual(o)
}

// PortLoad implements route.View.
func (v *view) PortLoad(port int) int {
	r := (*Router)(v)
	o := &r.out[port]
	total := 0
	if !o.toTerminal {
		depth := r.net.Cfg.BufDepth
		for _, c := range o.credits[:r.nv] {
			total += depth - int(c)
		}
	}
	return total + int(o.queuedFlits) + r.residual(o)
}

// PortAlive implements route.View.
func (v *view) PortAlive(port int) bool {
	return !(*Router)(v).out[port].dead
}

func (r *Router) residual(o *outputPort) int {
	if d := o.busyUntil - r.sc.now(); d > 0 {
		return int(d)
	}
	return 0
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
		ctx.View = (*view)(r)
		ctx.RNG = r.rng
		cands := r.net.Cfg.Alg.Route(ctx, p)
		ctx.Cands = cands // keep the grown buffer for reuse
		if r.net.hasFaults {
			// Drop candidates on dead ports in place. Fault-aware
			// algorithms never emit them; this is the safety net for the
			// fault-oblivious baselines (DOR, VAL, UGAL, ...), whose
			// dimension-ordered hops cannot route around a failed link.
			kept := cands[:0]
			for _, c := range cands {
				if !r.out[c.Port].dead {
					kept = append(kept, c)
				}
			}
			cands = kept
			ctx.Cands = cands
		}
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
		c := &cands[route.SelectMinWeight(ctx, cands)]
		port = c.Port
		e = makeEntry(p, iv.idx, c, false)
		// A blocked decision goes stale; re-evaluate periodically so
		// incremental adaptivity keeps responding to changing congestion.
		iv.timer = r.sc.keep(r.sc.After(r.net.Cfg.ReRouteInterval, r, opReroute, 0, 0, 0, iv))
	}
	o := &r.out[port]
	if o.nwait == o.wcap {
		r.growWaits(o)
	}
	r.waits[o.wbase+o.nwait] = e
	o.nwait++
	o.queuedFlits += e.flits
	iv.out = int32(port)
	r.attempt(port)
}

// growWaits moves output o's full wait list to a region of twice its
// capacity (waitInit for its first) at the end of the router's arena. An
// arena with no room left is rebuilt twice as large as its live regions,
// and at least a first region per output plus a quarter, packing them
// densely and dropping the regions earlier moves abandoned. Entries keep
// their order. At paper scale about 1 % of lists outgrow a first region,
// and the first arena's spare quarter holds every router's moves, so no
// arena is ever rebuilt there.
func (r *Router) growWaits(o *outputPort) {
	need := max(2*o.wcap, waitInit)
	old := r.waits
	if len(old)+int(need) > cap(old) {
		live := need
		for i := range r.out {
			if q := &r.out[i]; q != o {
				live += q.wcap
			}
		}
		//hxlint:allow allocfree — the wait arena is rebuilt only when a list outgrows it; each rebuild doubles its live regions, so it settles at the router's high water
		r.waits = make([]waitEntry, 0, max(2*live, int32(len(r.out)*waitInit*5/4)))
		for i := range r.out {
			if q := &r.out[i]; q != o {
				q.wbase = r.claim(old[q.wbase:q.wbase+q.nwait], q.wcap)
			}
		}
	}
	o.wbase, o.wcap = r.claim(old[o.wbase:o.wbase+o.nwait], need), need
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
	o := &r.out[iv.out]
	ws := r.waits[o.wbase : o.wbase+o.nwait]
	for i := range ws {
		if ws[i].ivc == iv.idx {
			r.unregister(o, i)
			break
		}
	}
	r.routeHead(iv)
}

// unregister removes entry i from output o's wait list by swapping the
// last entry into its place, and cancels the decision's re-route timer.
func (r *Router) unregister(o *outputPort, i int) {
	ws := r.waits[o.wbase : o.wbase+o.nwait]
	e := &ws[i]
	iv := &r.vcs[e.ivc]
	iv.out = -1
	if iv.timer != nil {
		r.net.K.Cancel(iv.timer)
		iv.timer = nil
	}
	o.queuedFlits -= e.flits
	last := len(ws) - 1
	ws[i] = ws[last]
	o.nwait--
}

// creditUpstream returns flits of buffer space on input VC ivc to its
// upstream sender, arriving at time at.
func (r *Router) creditUpstream(at sim.Time, ivc int32, flits int) {
	port, vc := int(ivc)/r.nv, int32(int(ivc)%r.nv)
	up := r.links[port]
	if up.port < 0 {
		r.sc.at(at+r.net.Cfg.TermChanLat, r.net.Terminals[up.peer], opTermCredit, vc, int32(flits), 0, nil)
	} else {
		r.sc.at(at+r.net.Cfg.RouterChanLat, r.net.Routers[up.peer], opCredit, up.port, vc, int32(flits), nil)
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

// pickVC selects the physical VC for a grant: the most-credited VC of the
// resource class that can hold the whole packet (or, under atomic queue
// allocation, whose downstream buffer is completely empty). Returns -1 if
// none qualifies.
func (r *Router) pickVC(o *outputPort, class int8, flits int32) int8 {
	if o.toTerminal {
		return 0
	}
	need := flits
	if r.net.Cfg.AtomicVCAlloc {
		need = int32(r.net.Cfg.BufDepth)
	}
	best, bestCr := int8(-1), int32(0)
	for _, vc := range r.net.classVCs[class] {
		if cr := o.credits[vc]; cr >= need && cr > bestCr {
			best, bestCr = vc, cr
		}
	}
	return best
}

// attempt tries to grant the output channel of port to the oldest
// eligible waiting decision (age-based arbitration).
func (r *Router) attempt(port int) {
	o := &r.out[port]
	now := r.sc.now()
	if o.busyUntil > now {
		r.scheduleAttempt(port, o.busyUntil)
		return
	}
	if o.nwait == 0 {
		return
	}
	ws := r.waits[o.wbase : o.wbase+o.nwait]
	best := -1
	var bestVC int8
	eligible := 0
	for i := range ws {
		w := &ws[i]
		vc := r.pickVC(o, w.class, w.flits)
		if vc < 0 {
			continue
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
	r.grant(o, port, best, bestVC)
}

// scheduleAttempt schedules an attempt for port at time t, deduplicating.
func (r *Router) scheduleAttempt(port int, t sim.Time) {
	o := &r.out[port]
	if o.attemptAt > 0 && o.attemptAt <= t {
		return // an attempt at or before t is already pending
	}
	o.attemptAt = t
	r.sc.at(t, r, opAttempt, int32(port), 0, 0, nil)
}

// grant moves the head packet of wait-list entry i of output o (port)
// across the crossbar and channel, reserving downstream space and
// returning upstream credits as the flits drain.
func (r *Router) grant(o *outputPort, port, i int, vc int8) {
	now := r.sc.now()
	// Copy the entry: unregister below overwrites its slot.
	w := r.waits[int(o.wbase)+i]
	iv := &r.vcs[w.ivc]
	p := iv.pop()
	r.unregister(o, i)

	flits := p.Len
	o.busyUntil = now + sim.Time(flits)
	o.busyAccum += sim.Time(flits)
	o.grants++

	if o.toTerminal {
		r.sc.at(now+r.net.Cfg.XbarLat+r.net.Cfg.TermChanLat, r.net, opDeliver, 0, 0, 0, p)
	} else {
		cand := w.cand(port)
		route.Commit(p, &cand)
		o.credits[vc] -= int32(flits)
		p.VC = vc
		if r.net.OnHop != nil {
			// The packet is in flight for the rest of the cycle, so its
			// committed routing state is stable until a merge replays the
			// observer call.
			r.sc.emit(effect{kind: fxHop, p: p, a: int32(r.id), b: int32(port), c: int32(vc)})
		}
		down := r.links[port]
		r.sc.at(now+r.net.Cfg.XbarLat+r.net.Cfg.RouterChanLat, r.net.Routers[down.peer], opArrive, down.port, int32(vc), 0, p)
	}

	// Upstream credit return: the last flit leaves our input buffer at
	// now+flits; the credit crosses the reverse channel after its latency.
	r.creditUpstream(now+sim.Time(flits), w.ivc, flits)

	if !iv.empty() {
		r.routeHead(iv)
	}
	if o.nwait > 0 {
		r.scheduleAttempt(port, o.busyUntil)
	}
}

// creditArrive restores downstream space on (port, vc) and retries the
// output.
func (r *Router) creditArrive(port int, vc int8, flits int) {
	r.out[port].credits[vc] += int32(flits)
	r.attempt(port)
}

// deliver completes a packet at its destination terminal: counters,
// observer and packet free, through the destination router's context.
func (n *Network) deliver(p *route.Packet) {
	n.Routers[p.DstRouter].sc.emit(effect{kind: fxDeliver, p: p})
}
