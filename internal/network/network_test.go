package network

import (
	"errors"
	"sort"
	"testing"

	"hyperx/internal/core"
	"hyperx/internal/route"
	"hyperx/internal/routing"
	"hyperx/internal/sim"
	"hyperx/internal/topology"
)

func buildNet(t *testing.T, h *topology.HyperX, alg route.Algorithm, mut func(*Config)) *Network {
	t.Helper()
	cfg := Config{Topo: h, Alg: alg, Seed: 1}
	if mut != nil {
		mut(&cfg)
	}
	n, err := New(sim.NewKernel(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	return n
}

// TestSinglePacketLatency: one packet, one hop in each dimension — the
// end-to-end latency must equal the deterministic pipeline sum:
// injection channel + per-hop (crossbar + channel) + ejection
// (crossbar + terminal channel).
func TestSinglePacketLatency(t *testing.T) {
	h := topology.MustHyperX([]int{4, 4}, 2)
	n := buildNet(t, h, routing.NewDOR(h), nil)
	src, dst := 0, h.NumTerminals()-1
	var deliveredAt sim.Time
	n.OnDeliver = func(p *route.Packet, at sim.Time) { deliveredAt = at }
	p := n.NewPacket(src, dst, 1)
	n.Terminals[src].Send(p)
	n.K.Run(0)
	hops := sim.Time(h.MinHops(0, h.NumRouters()-1))
	want := n.Cfg.TermChanLat + // inject
		hops*(n.Cfg.XbarLat+n.Cfg.RouterChanLat) + // router hops
		n.Cfg.XbarLat + n.Cfg.TermChanLat // eject
	if deliveredAt != want {
		t.Errorf("delivery at %d, want %d", deliveredAt, want)
	}
	if n.DeliveredPackets != 1 || n.DeliveredFlits != 1 {
		t.Errorf("counters %d/%d", n.DeliveredPackets, n.DeliveredFlits)
	}
}

// TestSerialization: two max-size packets to the same destination share
// the ejection channel, so the second arrives at least Len cycles after
// the first.
func TestSerialization(t *testing.T) {
	h := topology.MustHyperX([]int{4}, 2)
	n := buildNet(t, h, routing.NewDOR(h), nil)
	var times []sim.Time
	n.OnDeliver = func(p *route.Packet, at sim.Time) { times = append(times, at) }
	for i := 0; i < 2; i++ {
		n.Terminals[0].Send(n.NewPacket(0, 7, 16))
	}
	n.K.Run(0)
	if len(times) != 2 {
		t.Fatalf("delivered %d", len(times))
	}
	if d := times[1] - times[0]; d < 16 {
		t.Errorf("second packet only %d cycles behind the first; channel serialization broken", d)
	}
}

// TestConservation: every injected packet is delivered exactly once, for
// every algorithm, under bursty all-to-all traffic.
func TestConservation(t *testing.T) {
	h := topology.MustHyperX([]int{4, 4}, 2)
	algs := []route.Algorithm{
		routing.NewDOR(h),
		routing.NewVAL(h),
		routing.NewUGAL(h),
		routing.NewClosAD(h),
		routing.NewMinAD(h),
		core.NewDimWAR(h),
		core.MustOmniWAR(h, 8, false),
	}
	for _, alg := range algs {
		alg := alg
		t.Run(alg.Name(), func(t *testing.T) {
			n := buildNet(t, h, alg, nil)
			delivered := map[uint64]int{}
			n.OnDeliver = func(p *route.Packet, _ sim.Time) { delivered[p.ID]++ }
			sent := 0
			for src := 0; src < h.NumTerminals(); src++ {
				for k := 0; k < 5; k++ {
					dst := (src + k*7 + 1) % h.NumTerminals()
					if dst == src {
						continue
					}
					n.Terminals[src].Send(n.NewPacket(src, dst, 1+(src+k)%16))
					sent++
				}
			}
			n.K.Run(0)
			if int(n.DeliveredPackets) != sent {
				t.Fatalf("delivered %d of %d", n.DeliveredPackets, sent)
			}
			ids := make([]uint64, 0, len(delivered))
			for id := range delivered {
				ids = append(ids, id)
			}
			sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
			for _, id := range ids {
				if delivered[id] != 1 {
					t.Fatalf("packet %d delivered %d times", id, delivered[id])
				}
			}
		})
	}
}

// TestDeliveryToCorrectTerminal: packets arrive where addressed.
func TestDeliveryToCorrectTerminal(t *testing.T) {
	h := topology.MustHyperX([]int{3, 3, 3}, 2)
	n := buildNet(t, h, core.NewDimWAR(h), nil)
	want := map[uint64]int{}
	n.OnDeliver = func(p *route.Packet, _ sim.Time) {
		if want[p.ID] != p.Dst {
			t.Errorf("packet %d delivered to %d, want %d", p.ID, p.Dst, want[p.ID])
		}
		delete(want, p.ID)
	}
	for src := 0; src < h.NumTerminals(); src++ {
		dst := (src*17 + 5) % h.NumTerminals()
		if dst == src {
			continue
		}
		p := n.NewPacket(src, dst, 3)
		want[p.ID] = dst
		n.Terminals[src].Send(p)
	}
	n.K.Run(0)
	if len(want) != 0 {
		t.Errorf("%d packets undelivered", len(want))
	}
}

// TestDeterminism: identical configurations and seeds produce identical
// delivery traces.
func TestDeterminism(t *testing.T) {
	trace := func() []sim.Time {
		h := topology.MustHyperX([]int{4, 4}, 2)
		n := buildNet(t, h, core.MustOmniWAR(h, 8, false), nil)
		var out []sim.Time
		n.OnDeliver = func(p *route.Packet, at sim.Time) { out = append(out, at) }
		for src := 0; src < h.NumTerminals(); src++ {
			for k := 0; k < 3; k++ {
				dst := (src + 11*k + 3) % h.NumTerminals()
				if dst != src {
					n.Terminals[src].Send(n.NewPacket(src, dst, 1+k))
				}
			}
		}
		n.K.Run(0)
		return out
	}
	a, b := trace(), trace()
	if len(a) != len(b) {
		t.Fatalf("trace lengths differ: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("traces diverge at %d: %d vs %d", i, a[i], b[i])
		}
	}
}

// TestSaturationProgress is the deadlock-freedom test: drive heavy
// adversarial (complement) traffic far beyond saturation with every
// algorithm and assert the network keeps delivering throughout.
func TestSaturationProgress(t *testing.T) {
	h := topology.MustHyperX([]int{4, 4, 4}, 2)
	algs := []route.Algorithm{
		routing.NewDOR(h),
		routing.NewVAL(h),
		routing.NewUGAL(h),
		routing.NewClosAD(h),
		routing.NewMinAD(h),
		core.NewDimWAR(h),
		core.MustOmniWAR(h, 8, false),
		core.MustOmniWAR(h, 8, true),
	}
	for _, alg := range algs {
		alg := alg
		t.Run(alg.Name(), func(t *testing.T) {
			n := buildNet(t, h, alg, nil)
			nt := h.NumTerminals()
			// Saturating complement traffic: every terminal floods its
			// complement, the worst structural stress for VC cycles.
			for src := 0; src < nt; src++ {
				for k := 0; k < 40; k++ {
					n.Terminals[src].Send(n.NewPacket(src, nt-1-src, 16))
				}
			}
			last := uint64(0)
			for step := 0; step < 20; step++ {
				n.K.Run(n.K.Now() + 2000)
				if n.DeliveredPackets == uint64(40*nt) {
					return // all drained
				}
				if n.DeliveredPackets == last {
					t.Fatalf("no progress between %d and %d cycles (delivered %d/%d) — deadlock",
						n.K.Now()-2000, n.K.Now(), n.DeliveredPackets, 40*nt)
				}
				last = n.DeliveredPackets
			}
			if n.DeliveredPackets != uint64(40*nt) {
				t.Fatalf("only %d/%d delivered after %d cycles", n.DeliveredPackets, 40*nt, n.K.Now())
			}
		})
	}
}

// TestAtomicAllocSlows: atomic queue allocation (Section 4.2) sharply
// reduces link utilization versus normal credit flow control.
func TestAtomicAllocSlows(t *testing.T) {
	h := topology.MustHyperX([]int{4}, 1)
	run := func(atomic bool) sim.Time {
		n := buildNet(t, h, routing.NewDOR(h), func(c *Config) { c.AtomicVCAlloc = atomic })
		// A long single-VC stream across one link.
		for k := 0; k < 50; k++ {
			n.Terminals[0].Send(n.NewPacket(0, 3, 4))
		}
		var lastAt sim.Time
		n.OnDeliver = func(p *route.Packet, at sim.Time) { lastAt = at }
		n.K.Run(0)
		return lastAt
	}
	normal, atomic := run(false), run(true)
	if atomic < 2*normal {
		t.Errorf("atomic finish %d not much slower than normal %d", atomic, normal)
	}
}

// TestConfigValidation: bad configurations are rejected.
func TestConfigValidation(t *testing.T) {
	h := topology.MustHyperX([]int{4, 4, 4}, 2)
	for _, tc := range []struct {
		name string
		cfg  Config
		is   error // the named error New must wrap, if any
	}{
		{"missing algorithm", Config{Topo: h}, nil},
		{"8 classes on 4 VCs", Config{Topo: h, Alg: core.MustOmniWAR(h, 8, false), NumVCs: 4}, nil},
		{"packet larger than buffer", Config{Topo: h, Alg: routing.NewDOR(h), BufDepth: 8, MaxPktFlits: 16}, nil},
		{"17 VCs", Config{Topo: h, Alg: routing.NewDOR(h), NumVCs: 17}, ErrNumVCs},
	} {
		_, err := New(sim.NewKernel(), tc.cfg)
		if err == nil {
			t.Errorf("%s: accepted", tc.name)
		} else if tc.is != nil && !errors.Is(err, tc.is) {
			t.Errorf("%s: error %q does not wrap %q", tc.name, err, tc.is)
		}
	}
	if _, err := New(sim.NewKernel(), Config{Topo: h, Alg: routing.NewDOR(h), NumVCs: maxVCs}); err != nil {
		t.Errorf("%d VCs rejected: %v", maxVCs, err)
	}
}

// TestClassVCPartition: VCs are split evenly with spares to the earlier
// classes (footnote 4).
func TestClassVCPartition(t *testing.T) {
	h := topology.MustHyperX([]int{4, 4, 4}, 2)
	n := buildNet(t, h, routing.NewUGAL(h), nil) // 2 classes, 8 VCs
	a, b := n.VCsForClass(0), n.VCsForClass(1)
	if len(a) != 4 || len(b) != 4 {
		t.Fatalf("partition %d/%d, want 4/4", len(a), len(b))
	}
	seen := map[int8]bool{}
	for _, v := range append(append([]int8{}, a...), b...) {
		if seen[v] {
			t.Fatalf("VC %d in two classes", v)
		}
		seen[v] = true
	}
}

// TestPacketPoolReuse: the pool recycles without corrupting identity.
func TestPacketPoolReuse(t *testing.T) {
	h := topology.MustHyperX([]int{4}, 1)
	n := buildNet(t, h, routing.NewDOR(h), nil)
	p1 := n.NewPacket(0, 1, 4)
	id1 := p1.ID
	n.Routers[p1.SrcRouter].sc.putPacket(p1)
	p2 := n.NewPacket(1, 2, 8)
	if p2.ID == id1 {
		t.Error("recycled packet kept its old ID")
	}
	if p2.Len != 8 || p2.Inter != -1 || p2.Hops != 0 {
		t.Errorf("recycled packet not reset: %+v", p2)
	}
}

// TestClassSenseWeighsClassLoad: two router ports whose class-0 buffers
// hold 50 flits per VC and whose class-1 buffers are empty look identical
// to per-port sensing, so hopcount keeps the 3-hop class-0 candidate;
// per-class sensing sees the empty class-1 buffers behind the 6-hop
// candidate and takes it.
func TestClassSenseWeighsClassLoad(t *testing.T) {
	h := topology.MustHyperX([]int{4, 4}, 2)
	for _, tc := range []struct {
		classSense bool
		want       int
	}{
		{false, 0}, // (200+1)*3 < (200+1)*6
		{true, 1},  // (0+1)*6 < (50+1)*3
	} {
		n := buildNet(t, h, core.NewDimWAR(h), func(c *Config) { c.ClassSense = tc.classSense })
		r := n.Routers[0]
		a, b := h.DimPort(0, 0, 1), h.DimPort(0, 1, 1)
		for _, port := range []int{a, b} {
			for _, vc := range n.VCsForClass(0) {
				r.out[port].credits[vc] -= 50
				r.lines[port].load += 50
			}
		}
		cands := r.weigh([]route.Candidate{
			{Port: a, Class: 0, HopsLeft: 3},
			{Port: b, Class: 1, HopsLeft: 6},
		})
		if got := route.SelectMinWeight(cands, r.rng); got != tc.want {
			t.Errorf("ClassSense=%v selected %d (loads %d, %d), want %d",
				tc.classSense, got, cands[0].Load, cands[1].Load, tc.want)
		}
	}
}
