package network

import (
	"bytes"
	"encoding/json"
	"fmt"
	"reflect"
	"strings"
	"testing"

	"hyperx/internal/rng"
	"hyperx/internal/route"
	"hyperx/internal/routing"
	"hyperx/internal/sim"
	"hyperx/internal/topology"
)

// snapTestNet builds a congested deterministic scenario: every terminal
// bursts a fixed set of randomly-addressed max-size packets at t=0, so
// the drain phase exercises deep source queues, blocked waiters,
// re-route timers, credit stalls, and RNG tie-breaks.
func snapTestNet(t *testing.T) *Network {
	t.Helper()
	n := snapTestBuild(t)
	h := n.Cfg.Topo
	src := rng.New(7)
	nt := h.NumTerminals()
	for term := 0; term < nt; term++ {
		for i := 0; i < 20; i++ {
			dst := src.Intn(nt - 1)
			if dst >= term {
				dst++
			}
			n.Terminals[term].Send(n.NewPacket(term, dst, 16))
		}
	}
	return n
}

// snapTestBuild builds snapTestNet's network, with no traffic.
func snapTestBuild(t *testing.T) *Network {
	t.Helper()
	h := topology.MustHyperX([]int{4, 4}, 2)
	return buildNet(t, h, routing.NewDAL(h), func(c *Config) {
		c.BufDepth = 32
		c.MaxPktFlits = 16
		c.ReRouteInterval = 60
	})
}

// snapTrace records deliveries as "id@t" strings.
func snapTrace(n *Network, into *[]string) {
	n.OnDeliver = func(p *route.Packet, at sim.Time) {
		*into = append(*into, fmt.Sprintf("%d@%d", p.ID, at))
	}
}

// TestNetworkSnapshotRestoreResumesIdentically is the core warm-state
// contract at the network level: snapshot mid-drain, finish the run,
// then restore — into the same instance AND into a freshly built one —
// and the resumed halves must replay the identical delivery sequence
// and end in deep-equal final state (credits, channel accumulators, RNG
// streams, counters, kernel clock and sequence counter).
func TestNetworkSnapshotRestoreResumesIdentically(t *testing.T) {
	n := snapTestNet(t)
	var trace []string
	snapTrace(n, &trace)

	n.K.Run(400)
	snap, err := n.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	if len(snap.Packets) == 0 || len(snap.Kernel.Events) == 0 {
		t.Fatalf("implausible mid-drain snapshot: %d packets, %d events", len(snap.Packets), len(snap.Kernel.Events))
	}

	mark := len(trace)
	n.K.Run(0)
	want := append([]string(nil), trace[mark:]...)
	if len(want) == 0 || n.InFlight() != 0 {
		t.Fatalf("scenario too small: %d post-snapshot deliveries, %d in flight", len(want), n.InFlight())
	}
	final, err := n.Snapshot()
	if err != nil {
		t.Fatal(err)
	}

	// Same-instance restore.
	if err := n.Restore(snap); err != nil {
		t.Fatal(err)
	}
	trace = trace[:0]
	n.K.Run(0)
	if !reflect.DeepEqual(trace, want) {
		t.Fatalf("same-instance resume diverged: %d deliveries vs %d", len(trace), len(want))
	}
	refinal, err := n.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(refinal, final) {
		t.Fatal("same-instance resume ended in different final state")
	}

	// Cross-instance restore: a fresh, identically-configured network
	// (no traffic injected) adopts the warm state wholesale.
	n2 := snapTestBuild(t)
	var trace2 []string
	snapTrace(n2, &trace2)
	if err := n2.Restore(snap); err != nil {
		t.Fatal(err)
	}
	n2.K.Run(0)
	if !reflect.DeepEqual(trace2, want) {
		t.Fatalf("cross-instance resume diverged: %d deliveries vs %d", len(trace2), len(want))
	}
	refinal2, err := n2.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(refinal2, final) {
		t.Fatal("cross-instance resume ended in different final state")
	}
}

// injector is a stateless external actor in the traffic generator's
// shape: one id per terminal, each firing sends a 16-flit packet from its
// terminal and re-arms every gap cycles, its destination a function of
// the terminal and the time, so it has nothing of its own to snapshot.
type injector struct {
	n    *Network
	base int32
	gap  sim.Time
}

func newInjector(n *Network, gap sim.Time) *injector {
	in := &injector{n: n, gap: gap}
	in.base = n.K.Register(in, len(n.Terminals))
	for t := range n.Terminals {
		n.K.At(sim.Time(1+t%5), in.base+int32(t), 0, int32(t), 0, 0)
	}
	return in
}

func (in *injector) Act(_ uint8, a, _, _ int32, _ any) {
	t, nt := int(a), len(in.n.Terminals)
	sc := in.n.TerminalShard(t)
	dst := (t + 1 + int(sc.now())%(nt-1)) % nt
	in.n.Terminals[t].Send(in.n.NewPacket(t, dst, 16))
	sc.After(in.gap, in.base+a, 0, a, 0, 0)
}

func (in *injector) ShardOf(t int) int { return in.n.ShardOfTerminal(t) }

// TestSnapshotEveryEventKind: a snapshot taken while events of every kind
// are pending — router arrive, attempt, credit, reroute and deliver,
// terminal retry and credit, and an external actor's injection — restores
// into a freshly built network whose run continues byte-identically: the
// same executed (time, seq) stream, the same deliveries, and the same
// final snapshot, JSON for JSON.
func TestSnapshotEveryEventKind(t *testing.T) {
	const at, end = 400, 3000
	run := func(n *Network, in *injector, until sim.Time) (trace []string) {
		n.K.TraceExec = func(at sim.Time, seq uint64) { trace = append(trace, fmt.Sprintf("%d/%d", at, seq)) }
		snapTrace(n, &trace)
		n.K.Run(until)
		n.K.TraceExec = nil
		return trace
	}
	donor := snapTestBuild(t)
	in := newInjector(donor, 8)
	run(donor, in, at)

	kinds := map[string]int{}
	ks, err := donor.K.Snapshot(nil)
	if err != nil {
		t.Fatal(err)
	}
	names := map[uint8]string{opArrive: "arrive", opAttempt: "attempt", opCredit: "credit", opReroute: "reroute", opDeliver: "deliver"}
	for _, es := range ks.Events {
		switch id := es.Actor; {
		case id >= donor.rbase && id < donor.rbase+int32(len(donor.Routers)):
			kinds["router "+names[es.Op]]++
		case id >= donor.tbase && id < donor.tbase+int32(len(donor.Terminals)):
			kinds[map[uint8]string{opTermRetry: "terminal retry", opTermCredit: "terminal credit"}[es.Op]]++
		case id >= in.base:
			kinds["injection"]++
		}
	}
	for _, k := range []string{"router arrive", "router attempt", "router credit", "router reroute", "router deliver", "terminal retry", "terminal credit", "injection"} {
		if kinds[k] == 0 {
			t.Errorf("no %s event pending at t=%d (pending kinds %v); the test meant every kind", k, at, kinds)
		}
	}

	snap, err := donor.Snapshot(in)
	if err != nil {
		t.Fatal(err)
	}
	want := run(donor, in, end)
	final, err := donor.Snapshot(in)
	if err != nil {
		t.Fatal(err)
	}

	fresh := snapTestBuild(t)
	fin := &injector{n: fresh, gap: in.gap}
	fin.base = fresh.K.Register(fin, len(fresh.Terminals))
	if err := fresh.Restore(snap, fin); err != nil {
		t.Fatal(err)
	}
	got := run(fresh, fin, end)
	if len(got) != len(want) {
		t.Fatalf("restored run logged %d events and deliveries, the donor's %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("restored run diverges at entry %d: %s, donor %s", i, got[i], want[i])
		}
	}
	refinal, err := fresh.Snapshot(fin)
	if err != nil {
		t.Fatal(err)
	}
	a, _ := json.Marshal(final)
	b, _ := json.Marshal(refinal)
	if !bytes.Equal(a, b) {
		t.Fatal("the restored run ended in a different snapshot from the donor's")
	}
	if len(final.Packets) == 0 {
		t.Fatal("nothing in flight at the end; the final comparison proves little")
	}
}

// TestNetworkRestoreRejectsMismatchedShape: a snapshot of one topology
// must not restore into another.
func TestNetworkRestoreRejectsMismatchedShape(t *testing.T) {
	n := snapTestNet(t)
	n.K.Run(500)
	snap, err := n.Snapshot()
	if err != nil {
		t.Fatal(err)
	}

	h2 := topology.MustHyperX([]int{3, 3}, 2)
	other := buildNet(t, h2, routing.NewDAL(h2), nil)
	if err := other.Restore(snap); err == nil {
		t.Fatal("restore of a 4x4 snapshot into a 3x3 network succeeded")
	}

	// Internally inconsistent tables must also be rejected.
	snap.TermQPkts = append(snap.TermQPkts, 1<<30)
	if err := n.Restore(snap); err == nil {
		t.Fatal("restore of an out-of-range packet index succeeded")
	}
}

// TestRestoreRejectsBadWaiters: a decision is keyed by its input VC, so
// a waiter table that names an input VC twice, names one that does not
// exist, or pairs it with a packet that is not its head must fail the
// restore instead of silently overwriting a slot or registering a stale
// decision; so must a second re-route timer for one input VC, one for a
// VC with no waiting decision, or a router event of an op no router has.
func TestRestoreRejectsBadWaiters(t *testing.T) {
	n := snapTestNet(t)
	n.K.Run(400)
	nv := int8(n.Cfg.NumVCs)
	np := int32(n.Cfg.Topo.NumPorts())
	// fresh takes a new snapshot and maps each waiter to its router, from
	// the per-port list lengths.
	fresh := func() (*Snapshot, []int) {
		s, err := n.Snapshot()
		if err != nil {
			t.Fatal(err)
		}
		var routerOf []int
		for i, l := range s.WaiterLens {
			for k := int32(0); k < l; k++ {
				routerOf = append(routerOf, i/int(np))
			}
		}
		return s, routerOf
	}
	// samePair finds two waiters registered at one router (the table is
	// router-major, so two such are adjacent).
	samePair := func(routerOf []int) (int, int) {
		for i := 0; i+1 < len(routerOf); i++ {
			if routerOf[i] == routerOf[i+1] {
				return i, i + 1
			}
		}
		t.Fatal("snapshot has no router with two waiters")
		return 0, 0
	}
	// reroute returns a re-route timer among the snapshot's events.
	reroute := func(s *Snapshot) *sim.EventState {
		for i := range s.Kernel.Events {
			if s.Kernel.Events[i].Op == opReroute {
				return &s.Kernel.Events[i]
			}
		}
		t.Fatal("snapshot has no re-route timer")
		return nil
	}
	for _, tc := range []struct {
		name string
		want string // substring of the restore error
		mut  func(s *Snapshot, routerOf []int)
	}{
		{"same input VC twice", "repeats", func(s *Snapshot, routerOf []int) {
			i, j := samePair(routerOf)
			s.Waiters[j].InPort, s.Waiters[j].InVC = s.Waiters[i].InPort, s.Waiters[i].InVC
		}},
		{"InVC past the last VC", "out of range", func(s *Snapshot, _ []int) {
			s.Waiters[0].InVC = nv
		}},
		{"packet is not the VC's head", "not the head", func(s *Snapshot, routerOf []int) {
			i, j := samePair(routerOf)
			s.Waiters[j].Pkt = s.Waiters[i].Pkt
		}},
		{"candidate names another port", "candidate names port", func(s *Snapshot, _ []int) {
			s.Waiters[0].Cand.Port = (s.Waiters[0].Cand.Port + 1) % int(np)
		}},
		{"class the arbiter cannot look up", "does not fit", func(s *Snapshot, _ []int) {
			s.Waiters[0].Cand.Class = 100
		}},
		{"two timers for one input VC", "second re-route timer", func(s *Snapshot, _ []int) {
			ks := s.Kernel
			dup := *reroute(s)
			dup.At, dup.Seq = max(dup.At, ks.Events[len(ks.Events)-1].At), ks.Seq
			ks.Events = append(ks.Events, dup)
			ks.Seq++
		}},
		{"router op the router does not know", "unknown op", func(s *Snapshot, _ []int) {
			reroute(s).Op = sim.OpExpires | 7
		}},
		{"timer for a VC with no waiting decision", "no waiting decision", func(s *Snapshot, routerOf []int) {
			es := reroute(s)
			waiting := map[int32]bool{}
			for w, r := range routerOf {
				if int32(r) == es.Actor-n.rbase {
					waiting[s.Waiters[w].InPort*int32(nv)+int32(s.Waiters[w].InVC)] = true
				}
			}
			for es.A = 0; waiting[es.A]; es.A++ {
			}
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			s, routerOf := fresh()
			if len(s.Waiters) == 0 {
				t.Fatal("snapshot has no waiters")
			}
			tc.mut(s, routerOf)
			err := snapTestNet(t).Restore(s)
			if err == nil {
				t.Fatal("restore succeeded")
			}
			if !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("restore error %q does not mention %q", err, tc.want)
			}
		})
	}
}

// TestRestoreKeepsSteadyStateZeroAlloc: restoring a snapshot frees every
// packet slab back to the contexts' pools, rebuilds the snapshot's
// packets in them and recycles kernel events, so the pools re-fill as
// the restored traffic drains. Once they have, the steady-state
// inject-route-arbitrate-drain cycle must be allocation-free again —
// restore must not break the zero-alloc property the sweep fast path
// depends on (see alloc_test.go for the cold-path version).
func TestRestoreKeepsSteadyStateZeroAlloc(t *testing.T) {
	n := snapTestNet(t)
	n.K.Run(400)
	snap, err := n.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	n.K.Run(0) // finish the captured run
	if err := n.Restore(snap); err != nil {
		t.Fatal(err)
	}
	n.K.Run(0) // drain the restored traffic: arena packets refill the pools

	nt := len(n.Terminals)
	n.K.Reserve(2048)
	burst := func(k int) {
		for src := 0; src < nt; src++ {
			n.Terminals[src].Send(n.NewPacket(src, (src*31+k)%nt, 1+k%16))
		}
		n.K.Run(0)
	}
	for k := 0; k < 50; k++ {
		burst(k)
	}
	allocs := countMallocs(func() {
		for k := 1; k <= 100; k++ {
			burst(k)
		}
	})
	if allocs > runtimeAllocs {
		t.Fatalf("100 post-restore steady-state bursts allocated %d objects, want at most the runtime's own %d", allocs, runtimeAllocs)
	}
}

// TestRestoreReusesPacketSlabs: a restore frees the packet slabs the
// network already has and rebuilds the snapshot's packets in them, and
// the kernel decodes its events without a heap copy each, so restoring
// the same snapshot again allocates three objects (the coder, its packet
// table and the one decoded event state), plus the runtime's own: no
// slab, directory or event state per packet or event.
func TestRestoreReusesPacketSlabs(t *testing.T) {
	n := snapTestNet(t)
	n.K.Run(400)
	snap, err := n.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	if len(snap.Packets) < pktChunk || len(snap.Kernel.Events) < pktChunk {
		t.Fatalf("scenario too small: %d packets, %d events", len(snap.Packets), len(snap.Kernel.Events))
	}
	if err := n.Restore(snap); err != nil {
		t.Fatal(err)
	}
	allocs := countMallocs(func() {
		if err := n.Restore(snap); err != nil {
			t.Error(err)
		}
	})
	if want := uint64(3 + runtimeAllocs); allocs > want {
		t.Fatalf("restoring %d packets and %d events again allocated %d objects, want at most %d", len(snap.Packets), len(snap.Kernel.Events), allocs, want)
	}
}
