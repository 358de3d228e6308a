package network

// Candidate-scratch capacity tests. The reusable Cands buffer was
// historically a fixed 64-entry cap — comfortable at the 4x4x4
// development scale, an unchecked assumption at paper-scale radix and
// plain wrong for wide single-dimension shapes. The buffer is now sized
// from the topology's declared offered-port bound at build time, one per
// execution context (the network's one context here); these tests pin
// that a full decision at large radix fits it without a mid-decision
// grow.

import (
	"testing"

	"hyperx/internal/core"
	"hyperx/internal/topology"
)

// candScratch runs one full candidate generation on router 0 of a drained
// network through its context's candidate scratch and reports (candidates
// produced, scratch capacity before, scratch capacity after).
func candScratch(t *testing.T, n *Network, dstTerm int) (produced, capBefore, capAfter int) {
	t.Helper()
	r := n.Routers[0]
	if r.sc != n.shards[0] {
		t.Fatal("router 0 does not act through the network's one execution context")
	}
	ctx := &r.sc.ctx
	capBefore = cap(ctx.Cands)
	p := n.NewPacket(0, dstTerm, 1)
	ctx.Router = r.id
	ctx.InPort = -1
	ctx.RNG = r.rng
	cands := n.Cfg.Alg.Route(ctx, p)
	produced = len(cands)
	ctx.Cands = cands[:0]
	capAfter = cap(ctx.Cands)
	r.sc.putPacket(p)
	return produced, capBefore, capAfter
}

// TestCandScratchPaperScaleRadix: at the paper's 8x8x8 t=8 radix, the
// build-time scratch equals the topology's offered-port bound and a
// maximal OmniWAR decision (minimal + every lateral in every unaligned
// dimension) fits it without reallocation.
func TestCandScratchPaperScaleRadix(t *testing.T) {
	h := topology.MustHyperX([]int{8, 8, 8}, 8)
	n := buildNet(t, h, core.MustOmniWAR(h, 6, false), nil)
	want := h.OfferedPorts()
	dst := h.NumTerminals() - 1 // far corner: all three dimensions unaligned
	produced, before, after := candScratch(t, n, dst)
	if before != want {
		t.Fatalf("build-time scratch cap = %d, want OfferedPorts() = %d", before, want)
	}
	if produced != 21 { // 3 minimal + 3*6 laterals at full deroute budget
		t.Fatalf("maximal decision produced %d candidates, want 21", produced)
	}
	if after != before {
		t.Fatalf("scratch grew %d -> %d during a paper-scale decision", before, after)
	}
}

// TestCandScratchWideDimension: a 1-D width-70 HyperX offers 69 candidates
// in a single decision — past the historical fixed cap of 64. The shape-
// derived scratch absorbs it without growing.
func TestCandScratchWideDimension(t *testing.T) {
	h := topology.MustHyperX([]int{70}, 1)
	n := buildNet(t, h, core.MustOmniWAR(h, 2, false), nil)
	dst := h.NumTerminals() - 1
	produced, before, after := candScratch(t, n, dst)
	if before != h.OfferedPorts() {
		t.Fatalf("build-time scratch cap = %d, want OfferedPorts() = %d", before, h.OfferedPorts())
	}
	if produced <= 64 {
		t.Fatalf("wide-dimension decision produced %d candidates; test needs > 64 to exercise the old cap", produced)
	}
	if after != before {
		t.Fatalf("scratch grew %d -> %d; fixed-cap sizing would have reallocated here", before, after)
	}
	// The routed network still delivers: end-to-end sanity at wide radix.
	n.Terminals[0].Send(n.NewPacket(0, dst, 4))
	n.K.Run(0)
	if n.DeliveredPackets != 1 {
		t.Fatalf("wide-dimension network delivered %d packets, want 1", n.DeliveredPackets)
	}
}
