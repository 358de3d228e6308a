package network

import (
	"testing"

	"hyperx/internal/core"
	"hyperx/internal/routing"
	"hyperx/internal/topology"
)

// TestCreditConservation: after the network fully drains, every output's
// credit count must be restored to exactly BufDepth — no credit is ever
// lost or duplicated.
func TestCreditConservation(t *testing.T) {
	h := topology.MustHyperX([]int{4, 4}, 2)
	algs := []struct {
		name string
		mk   func() *Network
	}{
		{"DimWAR", func() *Network { return buildNet(t, h, core.NewDimWAR(h), nil) }},
		{"OmniWAR", func() *Network { return buildNet(t, h, core.MustOmniWAR(h, 8, false), nil) }},
		{"UGAL", func() *Network { return buildNet(t, h, routing.NewUGAL(h), nil) }},
		{"DAL", func() *Network {
			return buildNet(t, h, routing.NewDAL(h), func(c *Config) { c.AtomicVCAlloc = true })
		}},
		{"DimWAR16VC", func() *Network { return buildNet(t, h, core.NewDimWAR(h), func(c *Config) { c.NumVCs = 16 }) }},
	}
	for _, tc := range algs {
		mk := tc.mk
		t.Run(tc.name, func(t *testing.T) {
			n := mk()
			for k := 0; k < 8; k++ {
				for src := 0; src < h.NumTerminals(); src++ {
					n.Terminals[src].Send(n.NewPacket(src, (src+5+k)%h.NumTerminals(), 1+k))
				}
			}
			n.K.Run(0)
			if n.InFlight() != 0 {
				t.Fatalf("network did not drain: %d in flight", n.InFlight())
			}
			for _, r := range n.Routers {
				for p := range r.out {
					if r.links[p].port < 0 {
						continue
					}
					for vc := 0; vc < n.Cfg.NumVCs; vc++ {
						if cr := *r.credit(p, int8(vc)); int(cr) != n.Cfg.BufDepth {
							t.Fatalf("router %d port %d vc %d: %d credits after drain, want %d",
								r.id, p, vc, cr, n.Cfg.BufDepth)
						}
					}
					if ld := r.lines[p].load; ld != 0 {
						t.Fatalf("router %d port %d: packed load %d after drain", r.id, p, ld)
					}
					if n := r.lines[p].nwait; n != 0 {
						t.Fatalf("router %d port %d: %d stale waiters", r.id, p, n)
					}
				}
			}
			// Terminal injection credits restored too.
			for _, term := range n.Terminals {
				for vc, cr := range term.credits {
					if int(cr) != n.Cfg.BufDepth {
						t.Fatalf("terminal %d vc %d: %d credits after drain", term.id, vc, cr)
					}
				}
			}
		})
	}
}

// TestRerouteUnderBlockage: a head packet blocked long enough re-routes
// and still delivers (exercises the ReRouteInterval path).
func TestRerouteUnderBlockage(t *testing.T) {
	h := topology.MustHyperX([]int{4}, 2)
	n := buildNet(t, h, core.NewDimWAR(h), func(c *Config) {
		c.BufDepth = 16 // tiny buffers so blockage happens immediately
		c.ReRouteInterval = 20
	})
	// Flood one destination from all terminals; tiny buffers force long
	// waits and many reroute timer firings.
	for k := 0; k < 30; k++ {
		for src := 2; src < h.NumTerminals(); src++ {
			n.Terminals[src].Send(n.NewPacket(src, 0, 16))
		}
	}
	n.K.Run(0)
	want := uint64(30 * (h.NumTerminals() - 2))
	if n.DeliveredPackets != want {
		t.Fatalf("delivered %d of %d under blockage", n.DeliveredPackets, want)
	}
}

// TestSmallBufferDepthStillDelivers: the minimum legal buffer (one max
// packet) must remain live, just slow.
func TestSmallBufferDepthStillDelivers(t *testing.T) {
	h := topology.MustHyperX([]int{4, 4}, 1)
	n := buildNet(t, h, core.MustOmniWAR(h, 8, false), func(c *Config) {
		c.BufDepth = 16
	})
	for src := 0; src < h.NumTerminals(); src++ {
		for k := 0; k < 5; k++ {
			n.Terminals[src].Send(n.NewPacket(src, h.NumTerminals()-1-src, 16))
		}
	}
	n.K.Run(0)
	if n.DeliveredPackets != uint64(5*h.NumTerminals()) {
		t.Fatalf("delivered %d", n.DeliveredPackets)
	}
}
