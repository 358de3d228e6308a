package core

// Allocation regression for the routing hot path: one full route decision
// — candidate generation plus weighted selection — must not allocate once
// the context's candidate scratch is warm. The router calls this pair for
// every packet head and every re-route timer, so a single stray allocation
// here multiplies into millions per sweep point.

import (
	"testing"

	"hyperx/internal/rng"
	"hyperx/internal/route"
	"hyperx/internal/topology"
)

func decisionZeroAlloc(t *testing.T, mk func(*topology.HyperX) route.Algorithm) {
	h := topology.MustHyperX([]int{8, 8, 8}, 8)
	alg := mk(h)
	src := h.RouterAt([]int{0, 0, 0})
	dst := h.RouterAt([]int{5, 6, 7})
	p := &route.Packet{SrcRouter: src, DstRouter: dst, Len: 4}
	p.Reset()
	ctx := &route.Ctx{Router: src, InPort: -1, RNG: rng.New(1),
		Cands: make([]route.Candidate, 0, 64)}

	// One warm call: Route may grow the scratch past its initial capacity;
	// the router keeps the grown buffer the same way.
	ctx.Cands = alg.Route(ctx, p)

	allocs := testing.AllocsPerRun(500, func() {
		cands := alg.Route(ctx, p)
		ctx.Cands = cands
		if len(cands) == 0 {
			t.Fatal("no candidates")
		}
		_ = cands[route.SelectMinWeight(cands, ctx.RNG)]
	})
	if allocs != 0 {
		t.Fatalf("%s route decision allocated %.1f objects/op, want 0", alg.Name(), allocs)
	}
}

func TestDimWARDecisionZeroAlloc(t *testing.T) {
	decisionZeroAlloc(t, func(h *topology.HyperX) route.Algorithm { return NewDimWAR(h) })
}

func TestOmniWARDecisionZeroAlloc(t *testing.T) {
	decisionZeroAlloc(t, func(h *topology.HyperX) route.Algorithm {
		a, err := NewOmniWAR(h, h.NumDims()+1, false)
		if err != nil {
			t.Fatal(err)
		}
		return a
	})
}
