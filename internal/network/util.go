package network

import (
	"sort"

	"hyperx/internal/route"
	"hyperx/internal/sim"
)

// LinkStat describes the utilization of one router-to-router channel
// since the start of the simulation.
type LinkStat struct {
	Router, Port int
	Utilization  float64 // busy cycles / elapsed cycles
	Grants       uint64  // packets carried
}

// LinkUtilization returns per-link utilization for every router-to-router
// channel, sorted hottest first. Terminal channels are excluded. It is a
// diagnostic for locating bottlenecks (e.g. the DCR funnel link under
// dimension-order routing).
func (n *Network) LinkUtilization() []LinkStat {
	now := n.K.Now()
	if now == 0 {
		return nil
	}
	var out []LinkStat
	for _, r := range n.Routers {
		for p := range r.out {
			o := &r.out[p]
			if r.links[p].port < 0 {
				continue
			}
			out = append(out, LinkStat{
				Router:      r.id,
				Port:        p,
				Utilization: float64(o.busyAccum) / float64(now),
				Grants:      o.grants,
			})
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Utilization > out[j].Utilization })
	return out
}

// MaxLinkUtilization returns the utilization of the hottest
// router-to-router channel.
func (n *Network) MaxLinkUtilization() float64 {
	ls := n.LinkUtilization()
	if len(ls) == 0 {
		return 0
	}
	return ls[0].Utilization
}

// MeanLinkUtilization returns the average utilization across all
// router-to-router channels.
func (n *Network) MeanLinkUtilization() float64 {
	ls := n.LinkUtilization()
	if len(ls) == 0 {
		return 0
	}
	sum := 0.0
	for _, l := range ls {
		sum += l.Utilization
	}
	return sum / float64(len(ls))
}

// PathStats accumulates per-hop statistics through the Network.OnHop and
// OnDeliver hooks: hop-count distribution and deroute fraction.
type PathStats struct {
	Hops      uint64 // router-to-router hops observed
	Deroutes  uint64
	Delivered uint64
	HopSum    uint64 // sum of per-packet hop counts at delivery
}

// Attach registers the collector on a network. It chains any existing
// OnDeliver hook.
func (s *PathStats) Attach(n *Network) {
	prevDeliver := n.OnDeliver
	n.OnHop = func(p *route.Packet, _ int, _ int, _ int8) {
		s.Hops++
		if p.LastDerDim >= 0 {
			s.Deroutes++
		}
	}
	n.OnDeliver = func(p *route.Packet, at sim.Time) {
		s.Delivered++
		s.HopSum += uint64(p.Hops)
		if prevDeliver != nil {
			prevDeliver(p, at)
		}
	}
}

// MeanHops returns the average router-to-router hops per delivered
// packet.
func (s *PathStats) MeanHops() float64 {
	if s.Delivered == 0 {
		return 0
	}
	return float64(s.HopSum) / float64(s.Delivered)
}

// DerouteRate returns the fraction of hops that were deroutes.
func (s *PathStats) DerouteRate() float64 {
	if s.Hops == 0 {
		return 0
	}
	return float64(s.Deroutes) / float64(s.Hops)
}
