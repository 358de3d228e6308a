package network

import (
	"hyperx/internal/route"
	"hyperx/internal/sim"
)

// Terminal is a network endpoint: an unbounded source queue feeding the
// injection channel; the ejection side is its router's opDeliver.
// Source queueing time counts toward packet latency, so saturation shows
// up as unbounded latency growth exactly as in the paper's methodology.
type Terminal struct {
	net    *Network
	id     int
	router int
	rport  int

	lat       sim.Time
	busyUntil sim.Time
	credits   []int32

	// Source queue: intrusive FIFO through Packet.Next (unbounded).
	qhead, qtail *route.Packet
	qlen         int

	retryAt sim.Time

	// sc is the execution context of the terminal's router (see Router.sc).
	sc *ShardState
}

// initTerminal wires a slab-allocated Terminal in place; credits is the
// terminal's subslice of the network-level credit slab.
func initTerminal(t *Terminal, n *Network, id int, credits []int32) {
	r, p := n.Cfg.Topo.TerminalPort(id)
	*t = Terminal{net: n, id: id, router: r, rport: p, lat: n.Cfg.TermChanLat, credits: credits}
	for v := range t.credits {
		t.credits[v] = int32(n.Cfg.BufDepth)
	}
}

// ID returns the terminal's index.
func (t *Terminal) ID() int { return t.id }

// Act implements sim.Actor: injection-channel retries and credit returns.
func (t *Terminal) Act(op uint8, a, b, _ int32, _ any) {
	switch op {
	case opTermRetry:
		// The event fires exactly at its scheduled time, so now() is the
		// `at` this retry was deduplicated under.
		if t.retryAt == t.sc.now() {
			t.retryAt = 0
		}
		t.tryInject()
	case opTermCredit:
		t.creditArrive(int8(a), int(b))
	}
}

// QueueLen returns the number of packets waiting in the source queue.
func (t *Terminal) QueueLen() int { return t.qlen }

// Send enqueues a packet created by Network.NewPacket for injection. The
// packet's Birth is stamped with the current time.
func (t *Terminal) Send(p *route.Packet) {
	p.Birth = t.sc.now()
	p.Next = nil
	if t.qtail == nil {
		t.qhead = p
	} else {
		t.qtail.Next = p
	}
	t.qtail = p
	t.qlen++
	t.tryInject()
}

// tryInject pushes queued packets into the injection channel while
// credits and channel bandwidth allow.
func (t *Terminal) tryInject() {
	for t.qhead != nil {
		now := t.sc.now()
		if t.busyUntil > now {
			t.scheduleRetry(t.busyUntil)
			return
		}
		p := t.qhead
		vc := t.pickVC(p.Len)
		if vc < 0 {
			return // wait for a credit event
		}
		t.qhead = p.Next
		if t.qhead == nil {
			t.qtail = nil
		}
		p.Next = nil
		t.qlen--
		t.credits[vc] -= int32(p.Len)
		t.busyUntil = now + sim.Time(p.Len)
		p.Inject = now
		t.sc.emit(effect{kind: fxInject, a: int32(p.Len)})
		t.sc.at(now+t.lat, t.net.rbase+int32(t.router), opArrive, int32(t.rport), int32(vc), p.Index)
	}
}

// pickVC picks the most-credited VC that can hold the packet, or -1.
// Injection channels carry no deadlock constraint (terminals always
// drain), so any VC is admissible.
func (t *Terminal) pickVC(flits int) int8 {
	need := int32(flits)
	if t.net.Cfg.AtomicVCAlloc {
		need = int32(t.net.Cfg.BufDepth)
	}
	best, bestCr := -1, int32(0)
	for vc, cr := range t.credits {
		if cr >= need && cr > bestCr {
			best, bestCr = vc, cr
		}
	}
	return int8(best)
}

func (t *Terminal) scheduleRetry(at sim.Time) {
	if t.retryAt > 0 && t.retryAt <= at {
		return
	}
	t.retryAt = at
	t.sc.at(at, t.net.tbase+int32(t.id), opTermRetry, 0, 0, 0)
}

// creditArrive restores injection credits.
func (t *Terminal) creditArrive(vc int8, flits int) {
	t.credits[vc] += int32(flits)
	t.tryInject()
}
