package network

import (
	"fmt"

	"hyperx/internal/sim"
)

// Huge reports whether the build backs its state with huge pages.
func (n *Network) Huge() bool { return n.huge }

// PortLine is what one port's packed-view entry says about the channel
// and its congestion; the wait-list region it also records is arena
// layout, which a restore repacks.
type PortLine struct {
	BusyUntil, AttemptAt sim.Time
	Load, NWait          int32
}

// Lines returns every router's packed view, router by router, ports in
// order, without the padding entries.
func (n *Network) Lines() []PortLine {
	var out []PortLine
	for _, r := range n.Routers {
		for _, ln := range r.lines {
			out = append(out, PortLine{BusyUntil: ln.busyUntil, AttemptAt: ln.attemptAt, Load: ln.load, NWait: ln.nwait})
		}
	}
	return out
}

// CheckLines recomputes every port's packed-view entry from the state it
// summarizes and reports the first disagreement: the wait list must hold
// exactly the input VCs whose decision names the port, load must equal
// the flits of those decisions plus the occupancy of the port's
// downstream buffers (a dead port's count as full), and a busy channel is
// reserved at most one largest packet ahead.
func (n *Network) CheckLines() error {
	depth := int32(n.Cfg.BufDepth)
	for _, r := range n.Routers {
		waiting := make([]int32, len(r.out))
		for i := range r.vcs {
			if iv := &r.vcs[i]; iv.out >= 0 {
				waiting[iv.out]++
			}
		}
		for p := range r.out {
			o, ln := &r.out[p], r.lines[p]
			if ln.nwait != waiting[p] || ln.nwait > ln.wcap {
				return fmt.Errorf("router %d port %d: %d waiters in a region of %d, %d input VCs wait on it", r.id, p, ln.nwait, ln.wcap, waiting[p])
			}
			want := int32(0)
			for _, w := range r.waits[ln.wbase : ln.wbase+ln.nwait] {
				if r.vcs[w.ivc].out != int32(p) {
					return fmt.Errorf("router %d port %d: waiter for input VC %d, whose decision names port %d", r.id, p, w.ivc, r.vcs[w.ivc].out)
				}
				want += w.flits
			}
			if !o.toTerminal {
				for vc := 0; vc < n.Cfg.NumVCs; vc++ {
					want += depth - *r.credit(p, int8(vc))
				}
			}
			if ln.load != want {
				return fmt.Errorf("router %d port %d: packed load %d, queued flits + downstream occupancy = %d", r.id, p, ln.load, want)
			}
			if dead := n.Cfg.Faults.Dead(r.id, p); o.dead != dead {
				return fmt.Errorf("router %d port %d: dead = %v, fault set says %v", r.id, p, o.dead, dead)
			}
			if limit := n.K.Now() + sim.Time(n.Cfg.MaxPktFlits); ln.busyUntil > limit {
				return fmt.Errorf("router %d port %d: busy until %d, past now + largest packet = %d", r.id, p, ln.busyUntil, limit)
			}
		}
	}
	return nil
}
