package sim_test

import (
	"testing"

	"hyperx/internal/core"
	"hyperx/internal/network"
	"hyperx/internal/sim"
	"hyperx/internal/topology"
	"hyperx/internal/traffic"
)

// maxEventBytes bounds the calendar's memory per pending event: a 32-byte
// event, and the chunk space of partly filled buckets and spare chunks
// around it.
const maxEventBytes = 40

// TestCalendarBytesPerEvent: on the paper's 8×8×8 t=8 network (the build
// on huge pages) under DimWAR and uniform traffic at load 0.6, a few
// hundred cycles in, the calendar's chunks hold at most maxEventBytes per
// pending event. A wider event, a smaller share of a chunk used, or a
// reserve far past the pending population breaks the bound.
func TestCalendarBytesPerEvent(t *testing.T) {
	h := topology.MustHyperX([]int{8, 8, 8}, 8)
	k := sim.NewKernel()
	n, err := network.New(k, network.Config{Topo: h, Alg: core.NewDimWAR(h), Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	gen := &traffic.Generator{
		Net:     n,
		Pattern: traffic.UniformRandom{N: h.NumTerminals()},
		Sizes:   traffic.UniformSize{Min: 1, Max: 16},
		Load:    0.6,
	}
	gen.Start(1)
	k.Run(300)
	pending, bytes := k.Pending(), k.ChunkBytes()
	if pending < 50_000 {
		t.Fatalf("%d events pending after 300 cycles; the test meant a paper-scale population", pending)
	}
	if per := float64(bytes) / float64(pending); per > maxEventBytes {
		t.Fatalf("calendar chunks hold %d bytes for %d pending events, %.1f per event, want at most %d", bytes, pending, per, maxEventBytes)
	}
	t.Logf("%d pending events in %d chunk bytes: %.1f per event", pending, bytes, float64(bytes)/float64(pending))
}
