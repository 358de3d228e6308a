package network

// Steady-state allocation regression for the full router data path:
// injection, candidate generation, weighing, weighted selection, output
// arbitration, grants, credit returns, delivery, and on a faulted
// network the drop of a packet with no live candidate. Once the pools (packets, waiters,
// kernel events) and the high-water queue capacities are warm, a complete
// inject-to-drain cycle must not allocate at all — this is the property
// that makes paper-scale sweep points run at a steady heap size.

import (
	"runtime"
	"testing"

	"hyperx/internal/core"
	"hyperx/internal/route"
	"hyperx/internal/routing"
	"hyperx/internal/topology"
)

func steadyStateZeroAlloc(t *testing.T, mut func(*Config)) {
	h := topology.MustHyperX([]int{4, 4, 4}, 4)
	steadyStateZeroAllocOn(t, h, core.NewDimWAR(h), mut, 50, 100)
}

// steadyStateZeroAllocOn runs warm and then measured bursts on h under
// alg and returns the drained network.
func steadyStateZeroAllocOn(t *testing.T, h *topology.HyperX, alg route.Algorithm, mut func(*Config), warm, measured int) *Network {
	t.Helper()
	n := buildNet(t, h, alg, mut)
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
	for k := 0; k < warm; k++ {
		burst(k)
	}
	allocs := countMallocs(func() {
		for k := 1; k <= measured; k++ {
			burst(k)
		}
	})
	if allocs > runtimeAllocs {
		t.Fatalf("%d steady-state inject-route-arbitrate-drain bursts allocated %d objects, want at most the runtime's own %d", measured, allocs, runtimeAllocs)
	}
	if n.InFlight() != n.DroppedPackets {
		t.Fatal("network did not drain")
	}
	return n
}

// runtimeAllocs is how many allocations countMallocs forgives: the count
// is the process's, and the runtime allocates on its own now and then (a
// timer heap growing), so that many objects are its and not the code's.
const runtimeAllocs = 2

// countMallocs returns how many heap objects f allocates, on one P. It
// counts every allocation, not a per-run average: an append that grows
// a slice now and then allocates far less than once per run, which an
// average (testing.AllocsPerRun) rounds to zero.
func countMallocs(f func()) uint64 {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	f()
	runtime.ReadMemStats(&after)
	return after.Mallocs - before.Mallocs
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

// TestSteadyStateZeroAllocDrop: DOR on a network with four failed links
// cannot route around them, so every burst sends packets into the drop
// path — the dead-candidate filter, the drop, its counters and observer
// call, and the credit it returns — which must not allocate either.
func TestSteadyStateZeroAllocDrop(t *testing.T) {
	h := topology.MustHyperX([]int{4, 4, 4}, 4)
	fs, err := topology.RandomConnectedFaults(h, 4, 1)
	if err != nil {
		t.Fatal(err)
	}
	n := steadyStateZeroAllocOn(t, h, routing.NewDOR(h), func(c *Config) { c.Faults = fs }, 50, 100)
	if n.DroppedPackets == 0 {
		t.Fatal("no packet reached the drop path")
	}
}

// TestSteadyStateZeroAllocPaperScale: the paper's 8×8×8 t=8 network, the
// one build whose slabs reach a huge page, so its warm-up refills the
// packet pools, wait arenas and calendar chunks through the huge-page
// advice (sim.AdviseHuge). Its steady state must allocate nothing either.
func TestSteadyStateZeroAllocPaperScale(t *testing.T) {
	h := topology.MustHyperX([]int{8, 8, 8}, 8)
	n := steadyStateZeroAllocOn(t, h, core.NewDimWAR(h), nil, 32, 32)
	if !n.Huge() {
		t.Fatal("the paper-scale build is not on huge pages")
	}
}
