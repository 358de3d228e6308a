package network

import (
	"fmt"

	"hyperx/internal/route"
	"hyperx/internal/sim"
)

// This file implements the network half of the warm-state snapshot
// contract (docs/STATE.md). A Snapshot is a complete, relocatable value
// copy of every piece of mutable simulation state the network owns:
// packets (in queues and in flight), per-(port,VC) buffer occupancy,
// credit counters, blocked-waiter registrations, channel busy times,
// per-router RNG streams, aggregate counters, and the kernel calendar.
// Restoring it — into the same instance or into a second instance built
// from the identical Config — resumes the simulation bit-identically:
// the resumed run executes the same events, draws the same random
// values, and produces the same statistics an uninterrupted run would.
//
// Everything is stored positionally (slab indices, not pointers), which
// is what makes the snapshot relocatable and serializable: packet
// references become indices into the snapshot's packet table, and so do
// the packet indices that arrivals and deliveries carry, while events
// keep their actor ids (the restore target registers the same ones) and
// a re-route timer names its input VC by index already. A timer's
// generation is not state: a snapshot holds only the live timers, at
// most one per input VC, so it records 0 and a restore re-numbers them
// from 1. The intrusive packet free pool is deliberately NOT captured —
// pool contents are unobservable, and Restore rebuilds it lazily.
//
// Restore is not atomic: if it returns an error the network is in an
// unspecified intermediate state and must be discarded. Errors only
// arise from malformed or mismatched snapshots, never from a snapshot
// taken of an identically-configured network.

// WaiterState is the relocatable form of one blocked-head registration.
type WaiterState struct {
	Pkt    int32           `json:"pkt"` // index into Snapshot.Packets
	InPort int32           `json:"in_port"`
	InVC   int8            `json:"in_vc"`
	Eject  bool            `json:"eject"`
	Cand   route.Candidate `json:"cand"`
}

// OutPortState is the mutable half of one output port; wiring (peer,
// latency, dead flag) is build-time state and deliberately excluded.
type OutPortState struct {
	BusyUntil   sim.Time `json:"busy_until"`
	AttemptAt   sim.Time `json:"attempt_at"`
	BusyAccum   sim.Time `json:"busy_accum"`
	Grants      uint64   `json:"grants"`
	QueuedFlits int32    `json:"queued_flits"`
}

// TermState is the mutable scalar state of one terminal; its source
// queue and credits live in the flat tables below.
type TermState struct {
	BusyUntil sim.Time `json:"busy_until"`
	RetryAt   sim.Time `json:"retry_at"`
}

// Counters are the network's aggregate statistics plus the packet ID
// allocator position.
type Counters struct {
	InjectedPackets  uint64 `json:"injected_packets"`
	InjectedFlits    uint64 `json:"injected_flits"`
	DeliveredPackets uint64 `json:"delivered_packets"`
	DeliveredFlits   uint64 `json:"delivered_flits"`
	DroppedPackets   uint64 `json:"dropped_packets"`
	DroppedFlits     uint64 `json:"dropped_flits"`
	NextPkt          uint64 `json:"next_pkt"`
}

// Snapshot is a complete warm-state checkpoint of a Network. All queue
// contents are flattened: lens[i] gives queue i's length and the packet
// indices follow contiguously in the corresponding flat table, in FIFO
// order. See docs/STATE.md for the full inventory and exclusions.
type Snapshot struct {
	// Packets is the table of every live packet: source-queued,
	// VC-buffered, or in flight as an event's packet. Next links are nil;
	// position in a queue is encoded by the index tables below.
	Packets []route.Packet `json:"packets"`

	TermQLens []int32 `json:"term_q_lens"` // nt entries
	TermQPkts []int32 `json:"term_q_pkts"` // sum(TermQLens) packet indices

	VCQLens []int32 `json:"vc_q_lens"` // nr*np*nv entries
	VCQPkts []int32 `json:"vc_q_pkts"` // sum(VCQLens) packet indices

	WaiterLens []int32       `json:"waiter_lens"` // nr*np entries
	Waiters    []WaiterState `json:"waiters"`     // registration order per port

	Credits     []int32 `json:"credits"`      // nr*np*nv downstream credit counters
	TermCredits []int32 `json:"term_credits"` // nt*nv injection credit counters

	Outs  []OutPortState `json:"outs"`  // nr*np
	Terms []TermState    `json:"terms"` // nt

	RouterRNG []uint64 `json:"router_rng"` // nr stream resume tokens

	Counters Counters `json:"counters"`

	Kernel *sim.KernelState `json:"kernel"`
}

// snapCoder implements sim.EventCoder over a network plus the external
// actors (the traffic generator) that also schedule typed events on the
// shared kernel. On encode it interns in-flight packets into the
// snapshot's packet table; on decode it resolves table indices against
// the rebuilt packets. Either way it refuses an event for an actor that
// is neither the network's nor one of ext.
type snapCoder struct {
	n   *Network
	ext []sim.Actor

	// Encode side.
	snap   *Snapshot
	pktIdx map[*route.Packet]int32

	// Decode side: the snapshot's packets, rebuilt in the packet slabs.
	pkts []*route.Packet
}

// internPacket returns the packet's table index, adding a value copy
// (with the intrusive link severed) on first sight. Live packets are in
// exactly one owner at a time, so each is interned exactly once.
func (c *snapCoder) internPacket(p *route.Packet) int32 {
	if i, ok := c.pktIdx[p]; ok {
		return i
	}
	i := int32(len(c.snap.Packets))
	cp := *p
	cp.Next = nil
	//hxlint:allow allocfree — snapshot capture runs off the simulation steady-state path, and the live-packet population is unknown until the walk completes
	c.snap.Packets = append(c.snap.Packets, cp)
	c.pktIdx[p] = i
	return i
}

// router returns the router an actor id belongs to, or nil for another
// actor.
func (c *snapCoder) router(id int32) *Router {
	if r := id - c.n.rbase; r >= 0 && int(r) < len(c.n.Routers) {
		return c.n.Routers[r]
	}
	return nil
}

// known returns nil for a terminal's id or an external actor's, and an
// error naming any other actor; the caller has checked the routers'.
func (c *snapCoder) known(id int32) error {
	if t := id - c.n.tbase; t >= 0 && int(t) < len(c.n.Terminals) {
		return nil
	}
	if int(id) < c.n.K.Actors() {
		a := c.n.K.Actor(id)
		for _, e := range c.ext {
			if e == a {
				return nil
			}
		}
		return fmt.Errorf("network: event targets unknown actor %T (pass it in ext)", a)
	}
	return fmt.Errorf("network: event targets unknown actor id %d", id)
}

// EncodeEvent implements sim.EventCoder: a packet an arrival or a
// delivery carries becomes its packet table index.
func (c *snapCoder) EncodeEvent(es *sim.EventState) error {
	r := c.router(es.Actor)
	if r == nil {
		return c.known(es.Actor)
	}
	switch es.Op {
	case opArrive, opDeliver:
		es.C = c.internPacket(c.n.packet(es.C))
	case opReroute:
		// Every live re-route timer's input VC has a decision waiting on an
		// output port; a miss is a broken invariant, not a user error.
		if r.vcs[es.A].out < 0 {
			return fmt.Errorf("network: snapshot: router %d re-route timer for input VC %d, which has no waiting decision", r.id, es.A)
		}
		es.B = 0
	}
	return nil
}

// DecodeEvent implements sim.EventCoder: a packet table index becomes the
// rebuilt packet's index, and a re-route timer must name an input VC
// whose head has a registered decision and no other timer; it becomes
// that VC's generation-1 timer. A router op the router does not know is
// refused: an unknown expiring one would be asked of Router.Expired.
func (c *snapCoder) DecodeEvent(es *sim.EventState) error {
	r := c.router(es.Actor)
	if r == nil {
		return c.known(es.Actor)
	}
	switch es.Op {
	case opArrive, opDeliver:
		if es.C < 0 || int(es.C) >= len(c.pkts) {
			return fmt.Errorf("network: restore: packet %d out of range (%d packets)", es.C, len(c.pkts))
		}
		es.C = c.pkts[es.C].Index
	case opReroute:
		if es.A < 0 || int(es.A) >= len(r.vcs) || r.vcs[es.A].out < 0 {
			return fmt.Errorf("network: restore: router %d re-route timer for input VC %d, which has no waiting decision", r.id, es.A)
		}
		iv := &r.vcs[es.A]
		if iv.gen != 0 {
			return fmt.Errorf("network: restore: router %d input VC %d has a second re-route timer", r.id, es.A)
		}
		iv.gen, es.B = 1, 1
	case opAttempt, opCredit:
	default:
		return fmt.Errorf("network: restore: router %d event with unknown op %#x", r.id, es.Op)
	}
	return nil
}

// Snapshot captures the network's complete warm state. ext lists the
// external sim.Actor values (in a fixed, documented order — the facade
// passes the traffic generator) that schedule typed events on the shared
// kernel; their own internal state is snapshotted separately by their
// owners. The network is not modified and may keep running afterwards.
func (n *Network) Snapshot(ext ...sim.Actor) (*Snapshot, error) {
	return buildNetworkState(n, ext)
}

// buildNetworkState walks the slabs in canonical order (terminals, then
// routers ascending, ports ascending, VCs ascending) so that encode and
// decode agree on every table position without storing explicit keys.
func buildNetworkState(n *Network, ext []sim.Actor) (*Snapshot, error) {
	topo := n.Cfg.Topo
	nr, nt := topo.NumRouters(), topo.NumTerminals()
	np, nv := topo.NumPorts(), n.Cfg.NumVCs

	s := &Snapshot{
		TermQLens:   make([]int32, nt),
		VCQLens:     make([]int32, nr*np*nv),
		WaiterLens:  make([]int32, nr*np),
		Credits:     make([]int32, nr*np*nv),
		TermCredits: make([]int32, len(n.termCredSlab)),
		Outs:        make([]OutPortState, nr*np),
		Terms:       make([]TermState, nt),
		RouterRNG:   make([]uint64, nr),
		Counters: Counters{
			InjectedPackets:  n.InjectedPackets,
			InjectedFlits:    n.InjectedFlits,
			DeliveredPackets: n.DeliveredPackets,
			DeliveredFlits:   n.DeliveredFlits,
			DroppedPackets:   n.DroppedPackets,
			DroppedFlits:     n.DroppedFlits,
			NextPkt:          n.nextPkt,
		},
	}
	copy(s.TermCredits, n.termCredSlab)
	for r := range n.streams {
		s.RouterRNG[r] = n.streams[r].State()
	}

	c := &snapCoder{
		n: n, ext: ext, snap: s,
		pktIdx: make(map[*route.Packet]int32),
	}

	// Terminal source queues, FIFO order.
	for t, term := range n.Terminals {
		s.Terms[t] = TermState{BusyUntil: term.busyUntil, RetryAt: term.retryAt}
		cnt := int32(0)
		for p := term.qhead; p != nil; p = p.Next {
			s.TermQPkts = append(s.TermQPkts, c.internPacket(p))
			cnt++
		}
		if int(cnt) != term.qlen {
			return nil, fmt.Errorf("network: snapshot: terminal %d queue length %d != walked %d", t, term.qlen, cnt)
		}
		s.TermQLens[t] = cnt
	}

	// Router input-VC buffers, FIFO order.
	for ri, rt := range n.Routers {
		for pi := 0; pi < np; pi++ {
			for vi := 0; vi < nv; vi++ {
				iv := &rt.vcs[pi*nv+vi]
				cnt := int32(0)
				for p := iv.head; p != nil; p = p.Next {
					s.VCQPkts = append(s.VCQPkts, c.internPacket(p))
					cnt++
				}
				s.VCQLens[(ri*np+pi)*nv+vi] = cnt
			}
		}
	}

	// Output-port state, credits and waiter registrations in list order.
	// Waiter packets are always input-VC heads, so they are interned above.
	// The waiting flits are the part of the packed view's load that the
	// credits do not account for.
	stride := lineStride(np)
	for ri, rt := range n.Routers {
		for pi := 0; pi < np; pi++ {
			o := &rt.out[pi]
			ln := &n.lines[ri*stride+pi]
			s.Outs[ri*np+pi] = OutPortState{
				BusyUntil:   ln.busyUntil,
				AttemptAt:   ln.attemptAt,
				BusyAccum:   o.busyAccum,
				Grants:      o.grants,
				QueuedFlits: ln.load - rt.occupancy(pi),
			}
			for v := 0; v < nv; v++ {
				s.Credits[(ri*np+pi)*nv+v] = *rt.credit(pi, int8(v))
			}
			s.WaiterLens[ri*np+pi] = ln.nwait
			for _, w := range rt.waits[ln.wbase : ln.wbase+ln.nwait] {
				iv := &rt.vcs[w.ivc]
				pk, ok := c.pktIdx[iv.head]
				if !ok {
					return nil, fmt.Errorf("network: snapshot: router %d port %d waiter holds a packet not in any input buffer", ri, pi)
				}
				s.Waiters = append(s.Waiters, WaiterState{
					Pkt: pk, InPort: w.ivc / int32(nv), InVC: int8(w.ivc % int32(nv)),
					Eject: w.flags&wEject != 0, Cand: w.cand(pi),
				})
			}
		}
	}

	// Kernel calendar last: in-flight packets (channel-crossing arrivals
	// and deliveries) are interned here.
	ks, err := n.K.Snapshot(c)
	if err != nil {
		return nil, err
	}
	s.Kernel = ks
	return s, nil
}

// Restore rebuilds the network's warm state from a snapshot taken of an
// identically-configured network (same Config, including topology,
// algorithm, faults, and seed derivation). ext must list the same
// external actors, in the same order, as the Snapshot call. On success
// the kernel clock, all queues, credits, RNG streams, and counters match
// the snapshot exactly and the run resumes bit-identically. On error the
// network is in an unspecified state and must be discarded.
func (n *Network) Restore(s *Snapshot, ext ...sim.Actor) error {
	return initFromNetworkState(n, s, ext)
}

// validateShape rejects snapshots whose table dimensions cannot belong
// to this network before any state is mutated.
func validateShape(n *Network, s *Snapshot) error {
	topo := n.Cfg.Topo
	nr, nt := topo.NumRouters(), topo.NumTerminals()
	np, nv := topo.NumPorts(), n.Cfg.NumVCs
	switch {
	case s.Kernel == nil:
		return fmt.Errorf("network: restore: snapshot has no kernel state")
	case len(s.TermQLens) != nt || len(s.Terms) != nt:
		return fmt.Errorf("network: restore: snapshot has %d terminals, network has %d", len(s.TermQLens), nt)
	case len(s.VCQLens) != nr*np*nv || len(s.Credits) != nr*np*nv:
		return fmt.Errorf("network: restore: snapshot VC tables sized %d/%d, network needs %d", len(s.VCQLens), len(s.Credits), nr*np*nv)
	case len(s.WaiterLens) != nr*np || len(s.Outs) != nr*np:
		return fmt.Errorf("network: restore: snapshot port tables sized %d/%d, network needs %d", len(s.WaiterLens), len(s.Outs), nr*np)
	case len(s.TermCredits) != nt*nv:
		return fmt.Errorf("network: restore: snapshot terminal credits sized %d, network needs %d", len(s.TermCredits), nt*nv)
	case len(s.RouterRNG) != nr:
		return fmt.Errorf("network: restore: snapshot has %d router RNG streams, network has %d", len(s.RouterRNG), nr)
	}
	sum := func(lens []int32) (total int, bad bool) {
		for _, l := range lens {
			if l < 0 {
				return 0, true
			}
			total += int(l)
		}
		return total, false
	}
	if tq, bad := sum(s.TermQLens); bad || tq != len(s.TermQPkts) {
		return fmt.Errorf("network: restore: terminal queue table inconsistent (%d indices, lens sum elsewhere)", len(s.TermQPkts))
	}
	if vq, bad := sum(s.VCQLens); bad || vq != len(s.VCQPkts) {
		return fmt.Errorf("network: restore: VC queue table inconsistent (%d indices, lens sum elsewhere)", len(s.VCQPkts))
	}
	if wq, bad := sum(s.WaiterLens); bad || wq != len(s.Waiters) {
		return fmt.Errorf("network: restore: waiter table inconsistent (%d waiters, lens sum elsewhere)", len(s.Waiters))
	}
	for i, l := range s.WaiterLens {
		// Every waiter is the head of a distinct input VC on the same
		// router, so one output can accumulate at most all np*nv of them.
		if int(l) > np*nv {
			return fmt.Errorf("network: restore: output %d has %d waiters, max is %d (one per input VC)", i, l, np*nv)
		}
	}
	npk := int32(len(s.Packets))
	for i := range s.Packets {
		// A packet is rebuilt in its source router's context and routed
		// toward its destination router: both must exist.
		if p := &s.Packets[i]; p.SrcRouter < 0 || p.SrcRouter >= nr || p.DstRouter < 0 || p.DstRouter >= nr {
			return fmt.Errorf("network: restore: packet %d runs router %d to router %d, outside %d routers", i, p.SrcRouter, p.DstRouter, nr)
		}
	}
	for _, i := range s.TermQPkts {
		if i < 0 || i >= npk {
			return fmt.Errorf("network: restore: terminal queue packet index %d out of range (%d packets)", i, npk)
		}
	}
	for _, i := range s.VCQPkts {
		if i < 0 || i >= npk {
			return fmt.Errorf("network: restore: VC queue packet index %d out of range (%d packets)", i, npk)
		}
	}
	for wi := range s.Waiters {
		w := &s.Waiters[wi]
		if w.Pkt < 0 || w.Pkt >= npk {
			return fmt.Errorf("network: restore: waiter %d packet index %d out of range (%d packets)", wi, w.Pkt, npk)
		}
		if w.InPort < 0 || int(w.InPort) >= np || w.InVC < 0 || int(w.InVC) >= nv {
			return fmt.Errorf("network: restore: waiter %d input (%d,%d) out of range", wi, w.InPort, w.InVC)
		}
		if w.Cand.Port < 0 || w.Cand.Port >= np {
			return fmt.Errorf("network: restore: waiter %d candidate port %d out of range", wi, w.Cand.Port)
		}
		// Ejections carry class -1; every other decision a resource class
		// the arbiter can look up.
		if w.Eject != (w.Cand.Class < 0) || int(w.Cand.Class) >= len(n.classVCs) {
			return fmt.Errorf("network: restore: waiter %d class %d does not fit eject=%v", wi, w.Cand.Class, w.Eject)
		}
	}
	return nil
}

// initFromNetworkState does the rebuild; all allocation (the packet
// arena, the coder's decode tables) lives here, off the steady-state
// simulation path.
func initFromNetworkState(n *Network, s *Snapshot, ext []sim.Actor) error {
	if err := validateShape(n, s); err != nil {
		return err
	}
	topo := n.Cfg.Topo
	np, nv := topo.NumPorts(), n.Cfg.NumVCs

	// Packets: every live packet is rebuilt by value into a slot of its
	// source router's context, which frees it when it leaves. The slabs
	// the network already has are reused: every packet in them is freed
	// first (freePackets), dropping the old pools and intrusive links.
	n.freePackets()
	c := &snapCoder{n: n, ext: ext, pkts: make([]*route.Packet, len(s.Packets))}
	for i := range s.Packets {
		p := n.Routers[s.Packets[i].SrcRouter].sc.takePacket()
		idx := p.Index
		*p = s.Packets[i]
		p.Index, p.Next = idx, nil
		c.pkts[i] = p
	}

	copy(n.termCredSlab, s.TermCredits)
	for r := range n.streams {
		n.streams[r].SetState(s.RouterRNG[r])
	}

	// Terminals: scalars and source queues.
	qi := 0
	for t, term := range n.Terminals {
		term.busyUntil = s.Terms[t].BusyUntil
		term.retryAt = s.Terms[t].RetryAt
		term.qhead, term.qtail, term.qlen = nil, nil, 0
		for k := int32(0); k < s.TermQLens[t]; k++ {
			p := c.pkts[s.TermQPkts[qi]]
			qi++
			if term.qtail == nil {
				term.qhead = p
			} else {
				term.qtail.Next = p
			}
			term.qtail = p
			term.qlen++
		}
	}

	// Routers: output scalars and credits, the packed view rebuilt from
	// them, input-VC queues, then waiter registrations. Decisions are
	// keyed by input VC, so each waiter must name a distinct input VC
	// whose head is the waiter's packet.
	stride := lineStride(np)
	vi := 0
	wi := 0
	for ri, rt := range n.Routers {
		for pi := 0; pi < np; pi++ {
			o := &rt.out[pi]
			os := &s.Outs[ri*np+pi]
			o.busyAccum = os.BusyAccum
			o.grants = os.Grants
			for v := 0; v < nv; v++ {
				*rt.credit(pi, int8(v)) = s.Credits[(ri*np+pi)*nv+v]
			}
			ln := &n.lines[ri*stride+pi]
			ln.busyUntil = os.BusyUntil
			ln.attemptAt = os.AttemptAt
			ln.load = os.QueuedFlits + rt.occupancy(pi)
			// Every wait list starts over empty, its region released;
			// their old timer events are discarded wholesale by the
			// kernel restore below, which re-arms the live ones.
			ln.nwait, ln.wbase, ln.wcap = 0, 0, 0
			for v := 0; v < nv; v++ {
				iv := &rt.vcs[pi*nv+v]
				iv.head, iv.tail, iv.gen, iv.out = nil, nil, 0, -1
				for k := int32(0); k < s.VCQLens[(ri*np+pi)*nv+v]; k++ {
					iv.push(c.pkts[s.VCQPkts[vi]])
					vi++
				}
			}
		}
		rt.waits = rt.waits[:0]
		for pi := 0; pi < np; pi++ {
			ln := &rt.lines[pi]
			cnt := s.WaiterLens[ri*np+pi]
			for ln.wcap < cnt {
				rt.growWaits(ln)
			}
			for k := int32(0); k < cnt; k++ {
				ws := &s.Waiters[wi]
				ivc := ws.InPort*int32(nv) + int32(ws.InVC)
				iv := &rt.vcs[ivc]
				switch {
				case ws.Cand.Port != pi:
					return fmt.Errorf("network: restore: waiter %d is listed on router %d port %d but its candidate names port %d", wi, ri, pi, ws.Cand.Port)
				case iv.out >= 0:
					return fmt.Errorf("network: restore: waiter %d repeats router %d input (%d,%d)", wi, ri, ws.InPort, ws.InVC)
				case iv.head != c.pkts[ws.Pkt]:
					return fmt.Errorf("network: restore: waiter %d packet %d is not the head of router %d input (%d,%d)", wi, ws.Pkt, ri, ws.InPort, ws.InVC)
				}
				rt.waits[ln.wbase+k] = makeEntry(iv.head, ivc, &ws.Cand, ws.Eject)
				iv.out = int32(pi)
				wi++
			}
			ln.nwait = cnt
		}
	}

	n.InjectedPackets = s.Counters.InjectedPackets
	n.InjectedFlits = s.Counters.InjectedFlits
	n.DeliveredPackets = s.Counters.DeliveredPackets
	n.DeliveredFlits = s.Counters.DeliveredFlits
	n.DroppedPackets = s.Counters.DroppedPackets
	n.DroppedFlits = s.Counters.DroppedFlits
	n.nextPkt = s.Counters.NextPkt

	// Kernel calendar last: packet indices resolve against the packets
	// rebuilt above, and re-route timers against the waiters, each taking
	// its input VC's generation 1.
	if err := n.K.Restore(s.Kernel, c); err != nil {
		return err
	}

	// Every non-eject waiter must have found its timer: a registered
	// blocked decision without a live re-route event can never make
	// progress if its output stays congested.
	wi = 0
	for ri, rt := range n.Routers {
		for pi := 0; pi < np; pi++ {
			for k := int32(0); k < s.WaiterLens[ri*np+pi]; k++ {
				ws := &s.Waiters[wi]
				if iv := &rt.vcs[ws.InPort*int32(nv)+int32(ws.InVC)]; !ws.Eject && iv.gen == 0 {
					return fmt.Errorf("network: restore: waiter %d has no re-route timer event in the snapshot", wi)
				}
				wi++
			}
		}
	}
	return nil
}
