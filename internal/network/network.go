// Package network turns a static topology plus a routing algorithm into a
// live event-driven simulation: routers with per-(port,VC) packet buffers
// and credit-based flow control, serializing channels with pipeline
// latency, and terminals with source queues.
//
// The model is a combined input/output-queued router with sufficient
// internal speedup (Chuang et al.), as in the paper's evaluation: the
// internal datapath is never the bottleneck, output channels serialize at
// one flit per cycle, and age-based arbitration orders competing packets.
// Packets move whole (packet-buffer flow control): a packet may cross to
// the next router only when the downstream (port,VC) buffer has space for
// all of its flits, and it then occupies the channel for exactly Len
// cycles. This reproduces flit-accurate bandwidth, serialization, and
// back-pressure behaviour while dispatching events per packet rather than
// per flit.
package network

import (
	"errors"
	"fmt"
	"unsafe"

	"hyperx/internal/rng"
	"hyperx/internal/route"
	"hyperx/internal/sim"
	"hyperx/internal/topology"
)

// Config parameterizes a network build. Zero fields take the defaults
// from the paper's evaluation (Section 6): 8 VCs, 50 ns crossbar, 50 ns
// router-to-router channels, 5 ns terminal channels.
type Config struct {
	Topo topology.Topology
	Alg  route.Algorithm

	NumVCs        int      // physical VCs per port (default 8)
	BufDepth      int      // flits of buffering per (port,VC) (default 256)
	XbarLat       sim.Time // crossbar traversal latency (default 50)
	RouterChanLat sim.Time // router-to-router channel latency (default 50)
	TermChanLat   sim.Time // router-to-terminal channel latency (default 5)
	MaxPktFlits   int      // largest packet (default 16)

	// AtomicVCAlloc grants an output VC only when the downstream queue is
	// completely empty — the atomic queue allocation of Section 4.2,
	// required to run DAL on a high-radix router.
	AtomicVCAlloc bool

	// ClassSense switches routing-weight congestion sensing from the
	// default per-port output-queue aggregate to per-resource-class
	// occupancy (see route.Ctx.ClassSense; ablation knob).
	ClassSense bool

	// Arbiter selects the output-port arbitration policy among eligible
	// competing packets (ablation knob; the paper uses age-based).
	Arbiter Arbiter

	// ReRouteInterval is how long a blocked head packet holds a routing
	// decision before re-evaluating it (default 100 cycles).
	ReRouteInterval sim.Time

	// Faults is the set of failed router-to-router links. A dead output
	// port holds zero credits and is excluded from arbitration, and a
	// packet whose algorithm offers no live candidate is dropped (and
	// counted) instead of panicking. Nil or empty means a pristine
	// network, bit-identical to builds that predate fault support.
	Faults *topology.FaultSet

	Seed uint64
}

func (c *Config) applyDefaults() {
	if c.NumVCs == 0 {
		c.NumVCs = 8
	}
	if c.BufDepth == 0 {
		c.BufDepth = 256
	}
	if c.XbarLat == 0 {
		c.XbarLat = 50
	}
	if c.RouterChanLat == 0 {
		c.RouterChanLat = 50
	}
	if c.TermChanLat == 0 {
		c.TermChanLat = 5
	}
	if c.MaxPktFlits == 0 {
		c.MaxPktFlits = 16
	}
	if c.ReRouteInterval == 0 {
		c.ReRouteInterval = 100
	}
	if c.Seed == 0 {
		c.Seed = 1
	}
}

// ErrNumVCs reports a Config.NumVCs above 16: each output port keeps its
// downstream credits in a fixed array of 16 counters.
var ErrNumVCs = errors.New("network: NumVCs exceeds 16")

// newScratch builds a candidate scratch for one execution context, sized
// from the topology's own offered-port count when it declares one, so
// paper-scale (or wider) radix can never outgrow an assumed cap; the
// generic fallback is every port plus one.
func newScratch(cfg Config) route.Ctx {
	maxCands := cfg.Topo.NumPorts() + 1
	if op, ok := cfg.Topo.(interface{ OfferedPorts() int }); ok {
		maxCands = op.OfferedPorts()
	}
	return route.Ctx{ClassSense: cfg.ClassSense, Cands: make([]route.Candidate, 0, maxCands)}
}

// newPortSlab allocates n output ports starting on a 64-byte boundary,
// so that each port's leading hot half is exactly one cache line. Go
// guarantees a slab only 8-byte alignment; outputPort holds no pointers,
// so the ports may start at any offset into a one-port-larger slab.
func newPortSlab(n int) []outputPort {
	const line = 64
	slab := make([]outputPort, n+1)
	base := unsafe.Pointer(&slab[0])
	off := (line - uintptr(base)%line) % line
	return unsafe.Slice((*outputPort)(unsafe.Add(base, off)), n)
}

// Arbiter is an output-port arbitration policy.
type Arbiter uint8

const (
	// AgeArbiter grants the eligible packet with the oldest injection
	// time — the paper's configuration, which stabilizes adversarial
	// throughput.
	AgeArbiter Arbiter = iota
	// FIFOArbiter grants the eligible packet that has waited at this
	// output longest (registration order).
	FIFOArbiter
	// RandomArbiter grants a uniformly random eligible packet.
	RandomArbiter
)

// String implements fmt.Stringer.
func (a Arbiter) String() string {
	switch a {
	case FIFOArbiter:
		return "fifo"
	case RandomArbiter:
		return "random"
	default:
		return "age"
	}
}

// Network is a live simulated network.
type Network struct {
	K   *sim.Kernel
	Cfg Config

	Routers   []*Router
	Terminals []*Terminal

	//hxlint:state ephemeral — build-time wiring derived from Config; the restore target is built from the identical Config
	classVCs [][]int8 // resource class -> physical VCs

	// OnDeliver, if set, is invoked when a packet's head reaches its
	// destination terminal, before the packet is recycled.
	//hxlint:state ephemeral — measurement observer; every run point rebinds its own collector after restore
	OnDeliver func(p *route.Packet, at sim.Time)

	// OnHop, if set, observes every router-to-router grant: the packet
	// (with routing state already committed for this hop), the granting
	// router, and the chosen output port and VC. Used for path tracing
	// and hop statistics.
	//hxlint:state ephemeral — measurement observer; every run point rebinds its own collector after restore
	OnHop func(p *route.Packet, router, port int, vc int8)

	// OnDrop, if set, observes every packet discarded because routing
	// found no live candidate (fault-induced detect-and-drop), before the
	// packet is recycled.
	//hxlint:state ephemeral — measurement observer; every run point rebinds its own collector after restore
	OnDrop func(p *route.Packet, at sim.Time)

	//hxlint:state ephemeral — build-time wiring derived from Config.Faults; the restore target is built from the identical Config
	hasFaults bool

	nextPkt uint64

	// Execution contexts (see shard.go): one from New, one per shard after
	// ConfigureShards. Every router and terminal acts through its own.
	//hxlint:state ephemeral — execution machinery: staging logs are empty between windows, and Restore resets every context's packet pool (docs/STATE.md)
	shards []*ShardState
	//hxlint:state ephemeral — execution machinery: every context's stage, which ConfigureShards builds and placement reads; between windows it holds only events already placed
	stages []*sim.Stage

	// Snapshot plumbing (see snapshot.go / docs/STATE.md): the network
	// retains its whole-network slabs so Snapshot/Restore can bulk-copy
	// them, plus a reusable arena that restored live packets are rebuilt
	// into.
	streams      []rng.Source // per-router RNG streams (Router.rng points in)
	termCredSlab []int32      // all terminals' injection credit counters
	//hxlint:state ephemeral — restore-owned arena the snapshot's packets are rebuilt into; capturing it would be circular
	restorePkts []route.Packet

	// Aggregate counters.
	InjectedPackets  uint64
	InjectedFlits    uint64
	DeliveredPackets uint64
	DeliveredFlits   uint64
	DroppedPackets   uint64
	DroppedFlits     uint64
}

// New assembles a network over a fresh or shared kernel.
func New(k *sim.Kernel, cfg Config) (*Network, error) {
	cfg.applyDefaults()
	if cfg.Topo == nil || cfg.Alg == nil {
		return nil, fmt.Errorf("network: Topo and Alg are required")
	}
	if cfg.NumVCs > maxVCs {
		return nil, fmt.Errorf("%w: %d", ErrNumVCs, cfg.NumVCs)
	}
	nc := cfg.Alg.NumClasses()
	if nc > cfg.NumVCs {
		return nil, fmt.Errorf("network: algorithm %s needs %d classes but only %d VCs configured",
			cfg.Alg.Name(), nc, cfg.NumVCs)
	}
	if cfg.MaxPktFlits > cfg.BufDepth {
		return nil, fmt.Errorf("network: MaxPktFlits %d exceeds BufDepth %d", cfg.MaxPktFlits, cfg.BufDepth)
	}
	n := &Network{K: k, Cfg: cfg, hasFaults: cfg.Faults.Size() > 0}

	// Partition physical VCs evenly among resource classes; spare VCs
	// widen the earlier classes (head-of-line-blocking reduction,
	// footnote 4 of the paper).
	n.classVCs = make([][]int8, nc)
	base, extra := cfg.NumVCs/nc, cfg.NumVCs%nc
	v := int8(0)
	for c := 0; c < nc; c++ {
		sz := base
		if c < extra {
			sz++
		}
		for i := 0; i < sz; i++ {
			n.classVCs[c] = append(n.classVCs[c], v)
			v++
		}
	}

	topo := cfg.Topo
	master := rng.New(cfg.Seed)
	np := topo.NumPorts()
	nv := cfg.NumVCs
	nr := topo.NumRouters()
	nt := topo.NumTerminals()

	// Pre-size the kernel for this model's steady-state event population
	// (in-flight channel crossings, credit returns, reroute timers): one
	// event per link plus a few per terminal is the observed high-water
	// shape. A low estimate only means on-demand growth, never misbehaviour.
	k.Reserve(nr*np + 4*nt)

	// Router and terminal state lives in network-level slabs, subsliced
	// per owner: at paper scale (512 routers x radix 29 x 8 VCs) the
	// per-object layout this replaces was the footprint and locality
	// bottleneck — hundreds of thousands of separately-allocated queues
	// and credit arrays. The port slab is 64-byte aligned so that every
	// outputPort's hot half is exactly one cache line. The calendar
	// reserve comes first and the input-VC slab, the largest one holding
	// pointers, last: a collection that a paper-scale build triggers then
	// starts before that slab exists and need not scan it, which takes
	// about a fifth off the build on a 2-core host.
	routerSlab := make([]Router, nr)
	outSlab := newPortSlab(nr * np)
	linkSlab := make([]link, nr*np)
	termSlab := make([]Terminal, nt)
	termCredSlab := make([]int32, nt*nv)
	vcSlab := make([]inputVC, nr*np*nv)

	streams := master.DeriveN(0, nr)
	n.streams = streams
	n.termCredSlab = termCredSlab
	n.Routers = make([]*Router, nr)
	for r := range n.Routers {
		n.Routers[r] = &routerSlab[r]
		initRouter(&routerSlab[r], n, r, &streams[r], routerSlabs{
			out:   outSlab[r*np : (r+1)*np : (r+1)*np],
			vcs:   vcSlab[r*np*nv : (r+1)*np*nv : (r+1)*np*nv],
			links: linkSlab[r*np : (r+1)*np : (r+1)*np],
		})
	}
	n.Terminals = make([]*Terminal, nt)
	for t := range n.Terminals {
		n.Terminals[t] = &termSlab[t]
		initTerminal(&termSlab[t], n, t, termCredSlab[t*nv:(t+1)*nv:(t+1)*nv])
	}
	n.buildContexts(1, false)
	return n, nil
}

// Act implements sim.Actor: delivery completion is the one network-level
// typed event.
func (n *Network) Act(op uint8, _, _, _ int32, p any) {
	if op == opDeliver {
		n.deliver(p.(*route.Packet))
	}
}

// VCsForClass returns the physical VCs backing a resource class.
func (n *Network) VCsForClass(c int8) []int8 { return n.classVCs[c] }

// NewPacket takes a packet from the source router's context pool. A
// staged context leaves the ID zero until the merge replays the
// assignment — nothing reads the ID within its birth cycle, and the merge
// order reproduces the serial nextPkt sequence exactly.
func (n *Network) NewPacket(src, dst, flits int) *route.Packet {
	sr, _ := n.Cfg.Topo.TerminalPort(src)
	dr, _ := n.Cfg.Topo.TerminalPort(dst)
	sc := n.Routers[sr].sc
	p := sc.takePacket()
	*p = route.Packet{Src: src, Dst: dst, SrcRouter: sr, DstRouter: dr, Len: flits}
	p.Reset()
	sc.emit(effect{kind: fxID, p: p})
	return p
}

// InFlight reports how many packets have been injected but not delivered.
func (n *Network) InFlight() uint64 {
	return n.InjectedPackets - n.DeliveredPackets
}
