package network

// Steady-state allocation regression for the full router data path:
// injection, candidate generation, weighted selection, output arbitration,
// grants, credit returns, and delivery. Once the pools (packets, waiters,
// kernel events) and the high-water queue capacities are warm, a complete
// inject-to-drain cycle must not allocate at all — this is the property
// that makes paper-scale sweep points run at a steady heap size.

import (
	"testing"

	"hyperx/internal/core"
	"hyperx/internal/topology"
)

func steadyStateZeroAlloc(t *testing.T, mut func(*Config)) {
	h := topology.MustHyperX([]int{4, 4, 4}, 4)
	n := buildNet(t, h, core.NewDimWAR(h), mut)
	nt := h.NumTerminals()
	// The bursts below inject from every terminal on the same cycle, a far
	// spikier calendar occupancy than the build-time estimate plans for;
	// reserve enough chunks that the calendar never grows.
	n.K.Reserve(4096)
	burst := func(k int) {
		for src := 0; src < nt; src++ {
			n.Terminals[src].Send(n.NewPacket(src, (src*31+k)%nt, 1+k%16))
		}
		n.K.Run(0)
	}
	// Warm every pool and queue to its high-water mark: enough bursts that
	// packet/waiter/event pools and bucket capacities stop growing.
	for k := 0; k < 50; k++ {
		burst(k)
	}
	i := 0
	allocs := testing.AllocsPerRun(100, func() {
		i++
		burst(i)
	})
	if allocs != 0 {
		t.Fatalf("steady-state inject-route-arbitrate-drain cycle allocated %.1f objects/op, want 0", allocs)
	}
	if n.InFlight() != 0 {
		t.Fatal("network did not drain")
	}
}

// TestSteadyStateZeroAllocAge: the paper's configuration (age-based
// output arbitration).
func TestSteadyStateZeroAllocAge(t *testing.T) {
	steadyStateZeroAlloc(t, nil)
}

// TestSteadyStateZeroAllocRandom: random arbitration draws tie-break
// samples in the arbitration loop; those draws must be allocation-free
// too.
func TestSteadyStateZeroAllocRandom(t *testing.T) {
	steadyStateZeroAlloc(t, func(c *Config) { c.Arbiter = RandomArbiter })
}
