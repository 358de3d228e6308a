// Package route defines the routing-algorithm contract shared by the
// router model and every routing algorithm: packets, routing candidates,
// the local congestion view, and the weighted selection rule
// (weight = congestion x hopcount) from the paper.
package route

import (
	"hyperx/internal/rng"
	"hyperx/internal/sim"
)

// Packet is the unit of transfer. The simulator moves whole packets with
// flit-accurate timing: a packet of Len flits occupies a channel for Len
// cycles. Routing state lives in the packet only where the corresponding
// real algorithm requires packet fields (Table 1); DimWAR and OmniWAR
// derive everything from the VC identifier, which the simulator mirrors in
// Class/Hops for bookkeeping.
type Packet struct {
	ID  uint64
	Src int // source terminal
	Dst int // destination terminal

	SrcRouter int
	DstRouter int

	Len int // flits, 1..MaxPacketFlits

	Birth  sim.Time // creation time at the source terminal
	Inject sim.Time // head departed the source terminal

	// Routing state.
	Inter      int    // intermediate router for two-phase algorithms, -1 none
	Phase      int8   // algorithm-defined phase counter
	Hops       int8   // router-to-router hops taken
	Class      int8   // current resource class (mirrors the VC identifier)
	VC         int8   // physical VC currently occupied
	Derouted   uint32 // bitmask of dimensions derouted (DAL-style tracking)
	LastDerDim int8   // dimension of immediately preceding deroute, -1 none

	// Index is the packet's place in its network's packet slabs, which
	// events carry in place of a pointer. The network sets it when it
	// allocates the slot and it stays with the slot, so a snapshot does
	// not carry it.
	Index int32 `json:"-"`

	// Tag carries application-model identification (message, phase, round).
	Tag uint64

	// Next is an intrusive link for whoever currently owns the packet —
	// an input-VC buffer, a terminal source queue, or the free pool. A
	// packet is in exactly one queue at a time (ownership transfers whole),
	// so one link suffices and the queues need no per-entry allocation.
	Next *Packet
}

// Reset clears routing state for (re)injection.
func (p *Packet) Reset() {
	p.Inter = -1
	p.Phase = 0
	p.Hops = 0
	p.Class = 0
	p.VC = -1
	p.Derouted = 0
	p.LastDerDim = -1
}

// Candidate is one admissible output for a packet at a router.
type Candidate struct {
	Port     int   // output port
	Class    int8  // resource class for the next hop
	HopsLeft int8  // hops to destination if this output is taken (>= 1)
	Deroute  bool  // true if this is a non-minimal (lateral) hop
	Dim      int8  // dimension of the hop, -1 if not applicable
	NewPhase int8  // packet phase after taking this hop
	SetInter bool  // if true, packet's Inter becomes Inter below on commit
	Inter    int32 // new intermediate router, -1 clears

	// Load is the congestion estimate, in flits, of sending on Port: the
	// only input the paper's algorithms are allowed is purely local, the
	// occupancy of the downstream buffer the output reaches plus the
	// channel's residual busy time. Algorithms leave it zero; the router
	// fills it from its own output state before SelectMinWeight. It is
	// not part of a decision, so snapshots do not carry it.
	Load int32 `json:"-"`
}

// Ctx is the per-decision routing context handed to Algorithm.Route.
type Ctx struct {
	Router int // current router
	InPort int // arrival port, -1 for injection
	RNG    *rng.Source

	// Cands is a reusable candidate buffer; Route appends to Cands[:0].
	Cands []Candidate
}

// Meta describes an algorithm's implementation properties (Table 1).
type Meta struct {
	DimOrdered   bool
	Style        string // "source", "incremental", "oblivious"
	VCsRequired  string
	Deadlock     string // deadlock-avoidance scheme
	ArchRequires string
	PktContents  string // extra per-packet state the protocol must carry
}

// Algorithm computes routing candidates for packets at routers.
//
// Route must append all currently admissible candidates to ctx.Cands[:0]
// and return the slice, leaving each Load zero. The router fills the loads
// from its output state, selects with SelectMinWeight and commits the
// winner. Implementations must not retain ctx or the returned slice.
type Algorithm interface {
	Name() string
	// NumClasses returns how many resource classes the algorithm needs;
	// the router partitions its physical VCs evenly among classes.
	NumClasses() int
	Route(ctx *Ctx, p *Packet) []Candidate
	Meta() Meta
}

// SelectMinWeight implements the paper's selection rule over candidates
// whose Load the caller has filled: for each candidate compute weight =
// congestion x hopcount and choose the minimum. The congestion term
// carries a +1 offset so that at zero load the weight degenerates to pure
// hop count and minimal paths win — without it, any transient flit on the
// minimal path would divert packets onto idle deroutes. Ties prefer fewer
// hops, then break uniformly at random (drawing from rs) so equal-cost
// paths load-balance. The caller has already removed candidates on dead
// (faulted) ports; with no candidates the result is -1.
func SelectMinWeight(cands []Candidate, rs *rng.Source) int {
	best := -1
	bestW, bestH := int64(0), int8(0)
	nTies := 0
	for i := range cands {
		c := &cands[i]
		w := int64(c.Load+1) * int64(c.HopsLeft)
		switch {
		case best < 0 || w < bestW || (w == bestW && c.HopsLeft < bestH):
			best, bestW, bestH = i, w, c.HopsLeft
			nTies = 1
		case w == bestW && c.HopsLeft == bestH:
			// Reservoir-sample among exact ties.
			nTies++
			if rs.Intn(nTies) == 0 {
				best = i
			}
		}
	}
	return best
}

// Commit applies a chosen candidate's state transitions to the packet.
// The router calls this exactly once per hop, at grant time.
func Commit(p *Packet, c *Candidate) {
	p.Hops++
	p.Class = c.Class
	p.Phase = c.NewPhase
	if c.Deroute {
		if c.Dim >= 0 {
			p.Derouted |= 1 << uint(c.Dim)
		}
		p.LastDerDim = c.Dim
	} else {
		p.LastDerDim = -1
	}
	if c.SetInter {
		p.Inter = int(c.Inter)
	}
}
