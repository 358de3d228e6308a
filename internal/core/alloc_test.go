package core

// Allocation regression for the routing hot path: one full route decision
// — candidate generation plus weighted selection — must not allocate once
// the context's candidate scratch is warm. The router calls this pair for
// every packet head and every re-route timer, so a single stray allocation
// here multiplies into millions per sweep point.

import (
	"runtime"
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

	// Count every allocation of the measured decisions, not a per-call
	// average, which would round a rare one down to zero. The count is the
	// process's, and the runtime allocates on its own now and then, so
	// up to runtimeAllocs objects are its and not the decisions'.
	const runtimeAllocs = 2
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < 500; i++ {
		cands := alg.Route(ctx, p)
		ctx.Cands = cands
		if len(cands) == 0 {
			t.Fatal("no candidates")
		}
		_ = cands[route.SelectMinWeight(cands, ctx.RNG)]
	}
	runtime.ReadMemStats(&after)
	if allocs := after.Mallocs - before.Mallocs; allocs > runtimeAllocs {
		t.Fatalf("500 %s route decisions allocated %d objects, want at most the runtime's own %d", alg.Name(), allocs, runtimeAllocs)
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
