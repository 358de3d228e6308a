package network

// Arbitration-order pins. Each output keeps its waiting decisions in
// registration order, and a decision that leaves the list mid-way (a
// re-route, or a grant) is removed by swapping the last one into its
// place. FIFO order, age ties and the random arbiter's reservoir sample
// all read that order, so these tests drive one contended output through
// many re-route-driven removals and pin the exact grant sequence each
// arbiter produces.

import (
	"fmt"
	"testing"

	"hyperx/internal/route"
	"hyperx/internal/routing"
	"hyperx/internal/sim"
	"hyperx/internal/topology"
)

// countingAlg counts route computations: more than one per hop means
// blocked decisions were re-routed, i.e. removed mid-list and appended.
type countingAlg struct {
	route.Algorithm
	calls int
}

func (a *countingAlg) Route(ctx *route.Ctx, p *route.Packet) []route.Candidate {
	a.calls++
	return a.Algorithm.Route(ctx, p)
}

// arbiterGrants runs a 2-router, 4-terminals-per-router HyperX in which
// every terminal of router 0 sends 16-flit packets, born at staggered
// times, to terminal 4 on router 1. All of them wait on router 0's one
// output towards router 1, whose 1 flit/cycle channel keeps up to eight
// head decisions (4 inputs x 2 VCs) queued while a 7-cycle re-route
// interval keeps moving them to the end of the list. It returns the
// packet IDs in the order router 0 granted them, the route calls, and the
// longest wait list a grant left behind.
func arbiterGrants(t *testing.T, arb Arbiter) (grants []uint64, calls int, maxLeft int32) {
	t.Helper()
	h := topology.MustHyperX([]int{2}, 4)
	alg := &countingAlg{Algorithm: routing.NewDOR(h)}
	n := buildNet(t, h, alg, func(c *Config) {
		c.Arbiter = arb
		c.NumVCs = 2
		c.BufDepth = 64
		c.ReRouteInterval = 7
	})
	n.OnHop = func(p *route.Packet, router, port int, _ int8) {
		if router == 0 {
			grants = append(grants, p.ID)
			maxLeft = max(maxLeft, n.Routers[0].lines[port].nwait)
		}
	}
	const dst = 4
	for round := 0; round < 3; round++ {
		for src := 0; src < 4; src++ {
			for k := 0; k <= src%2; k++ {
				n.Terminals[src].Send(n.NewPacket(src, dst, 16))
			}
		}
		n.K.Run(n.K.Now() + sim.Time(5+3*round))
	}
	n.K.Run(0)
	if n.InFlight() != 0 {
		t.Fatalf("%s: %d packets still in flight", arb, n.InFlight())
	}
	return grants, alg.calls, maxLeft
}

// TestArbiterGrantOrder: the sequences are the ones the pointer-list
// wait queues produced, so the by-value lists reorder exactly as they did.
func TestArbiterGrantOrder(t *testing.T) {
	want := map[Arbiter]string{
		AgeArbiter:    "[1 2 6 5 3 4 7 10 11 8 9 12 16 17 14 15 13 18]",
		FIFOArbiter:   "[1 2 7 3 10 13 5 14 15 4 6 8 9 11 16 17 12 18]",
		RandomArbiter: "[1 4 6 13 12 17 2 8 14 16 3 9 15 10 7 5 11 18]",
	}
	for _, arb := range []Arbiter{AgeArbiter, FIFOArbiter, RandomArbiter} {
		t.Run(arb.String(), func(t *testing.T) {
			grants, calls, maxLeft := arbiterGrants(t, arb)
			if len(grants) != 18 {
				t.Fatalf("router 0 granted %d packets, want 18", len(grants))
			}
			if maxLeft < 3 {
				t.Fatalf("no grant left more than %d decisions waiting; want a list of at least 4", maxLeft)
			}
			// A packet never blocked is routed once, at router 0 (router
			// 1 ejects without routing); every further call is a re-route,
			// i.e. a removal from the list and a re-registration.
			if calls < 4*len(grants) {
				t.Fatalf("only %d route calls for %d packets: too few re-routes to exercise mid-list removal", calls, len(grants))
			}
			if got := fmt.Sprint(grants); got != want[arb] {
				t.Errorf("%s grant order\n got %s\nwant %s", arb, got, want[arb])
			}
		})
	}
}
