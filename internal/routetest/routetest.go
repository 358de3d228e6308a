// Package routetest provides a topology-level walker for unit-testing
// routing algorithms without the full router model: it repeatedly calls
// the algorithm, weighs its candidates under synthetic per-port loads,
// selects by weight, and teleports the packet across the chosen link.
package routetest

import (
	"fmt"

	"hyperx/internal/rng"
	"hyperx/internal/route"
	"hyperx/internal/topology"
)

// StubView is the congestion a walk weighs: settable per-(router,port)
// loads and an optional fault set whose dead ports the walk removes from
// every decision, as the router does.
type StubView struct {
	Loads  map[[2]int]int // (router, port) -> load
	Faults *topology.FaultSet
}

// weigh fills each candidate's Load at router r and drops candidates on
// dead ports in place.
func (v *StubView) weigh(r int, cands []route.Candidate) []route.Candidate {
	kept := cands[:0]
	for _, c := range cands {
		if v.Faults.Dead(r, c.Port) {
			continue
		}
		c.Load = int32(v.Loads[[2]int{r, c.Port}])
		kept = append(kept, c)
	}
	return kept
}

// Hop records one step of a walk.
type Hop struct {
	Router int
	Cand   route.Candidate
}

// Walk drives a packet from srcRouter to dstRouter, committing the
// weight-selected candidate at every hop. It returns the hop sequence or
// an error if the algorithm emits no candidates or exceeds maxHops.
func Walk(topo topology.Topology, alg route.Algorithm, srcRouter, dstRouter, maxHops int, seed uint64, view *StubView) ([]Hop, *route.Packet, error) {
	if view == nil {
		view = &StubView{}
	}
	p := &route.Packet{Src: -1, Dst: -1, SrcRouter: srcRouter, DstRouter: dstRouter, Len: 1}
	p.Reset()
	ctx := &route.Ctx{RNG: rng.New(seed), InPort: -1}
	cur := srcRouter
	var hops []Hop
	for cur != dstRouter {
		if len(hops) > maxHops {
			return hops, p, fmt.Errorf("exceeded %d hops from %d to %d", maxHops, srcRouter, dstRouter)
		}
		ctx.Router = cur
		cands := alg.Route(ctx, p)
		ctx.Cands = cands
		if len(cands) == 0 {
			return hops, p, fmt.Errorf("no candidates at router %d (hops=%d class=%d phase=%d inter=%d)",
				cur, p.Hops, p.Class, p.Phase, p.Inter)
		}
		cands = view.weigh(cur, cands)
		if len(cands) == 0 {
			return hops, p, fmt.Errorf("every candidate at router %d is on a dead port (hops=%d class=%d)",
				cur, p.Hops, p.Class)
		}
		c := cands[route.SelectMinWeight(cands, ctx.RNG)]
		if topo.PortKind(cur, c.Port) != topology.Local && topo.PortKind(cur, c.Port) != topology.Global {
			return hops, p, fmt.Errorf("candidate port %d at router %d is not a router link", c.Port, cur)
		}
		route.Commit(p, &c)
		hops = append(hops, Hop{Router: cur, Cand: c})
		cur, _ = topo.Peer(cur, c.Port)
		ctx.InPort = 0 // arbitrary non-injection marker
	}
	return hops, p, nil
}
