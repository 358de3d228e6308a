package core

import (
	"testing"
	"testing/quick"

	"hyperx/internal/rng"
	"hyperx/internal/route"
	"hyperx/internal/routetest"
	"hyperx/internal/topology"
)

func newCtx(r int) *route.Ctx {
	return &route.Ctx{Router: r, InPort: -1, RNG: rng.New(1)}
}

// TestDimWARCandidatesAtSource: in the first unaligned dimension, one
// minimal candidate on class 0 plus W-2 deroutes on class 1.
func TestDimWARCandidatesAtSource(t *testing.T) {
	h := topology.MustHyperX([]int{4, 4, 4}, 1)
	a := NewDimWAR(h)
	src := h.RouterAt([]int{0, 0, 0})
	dst := h.RouterAt([]int{2, 3, 1})
	p := &route.Packet{SrcRouter: src, DstRouter: dst}
	p.Reset()
	cands := a.Route(newCtx(src), p)
	if len(cands) != 1+2 {
		t.Fatalf("candidates = %d, want 3 (1 minimal + W-2 deroutes)", len(cands))
	}
	minimal, deroutes := 0, 0
	for _, c := range cands {
		d, _ := h.PortDim(src, c.Port)
		if d != 0 {
			t.Errorf("candidate in dim %d; DimWAR must stay in the first unaligned dimension", d)
		}
		if c.Deroute {
			deroutes++
			if c.Class != 1 {
				t.Errorf("deroute on class %d, want 1", c.Class)
			}
			if c.HopsLeft != 4 {
				t.Errorf("deroute HopsLeft %d, want minHops+1 = 4", c.HopsLeft)
			}
		} else {
			minimal++
			if c.Class != 0 {
				t.Errorf("minimal on class %d, want 0", c.Class)
			}
			if c.HopsLeft != 3 {
				t.Errorf("minimal HopsLeft %d, want 3", c.HopsLeft)
			}
		}
	}
	if minimal != 1 || deroutes != 2 {
		t.Errorf("minimal=%d deroutes=%d", minimal, deroutes)
	}
}

// TestDimWARNoDerouteAfterDeroute: a packet on class 1 may only take the
// aligning minimal hop.
func TestDimWARNoDerouteAfterDeroute(t *testing.T) {
	h := topology.MustHyperX([]int{4, 4}, 1)
	a := NewDimWAR(h)
	src := h.RouterAt([]int{1, 0})
	dst := h.RouterAt([]int{3, 2})
	p := &route.Packet{SrcRouter: src, DstRouter: dst}
	p.Reset()
	p.Class = 1 // as if just derouted
	p.Hops = 1
	cands := a.Route(newCtx(src), p)
	if len(cands) != 1 || cands[0].Deroute {
		t.Fatalf("on class 1 want exactly the minimal candidate, got %+v", cands)
	}
}

// TestDimWARSkipsAlignedDims: with dimension 0 aligned, candidates are in
// dimension 1.
func TestDimWARSkipsAlignedDims(t *testing.T) {
	h := topology.MustHyperX([]int{4, 4}, 1)
	a := NewDimWAR(h)
	src := h.RouterAt([]int{2, 0})
	dst := h.RouterAt([]int{2, 3})
	p := &route.Packet{SrcRouter: src, DstRouter: dst}
	p.Reset()
	for _, c := range a.Route(newCtx(src), p) {
		if d, _ := h.PortDim(src, c.Port); d != 1 {
			t.Errorf("candidate in dim %d with dim 0 aligned", d)
		}
	}
}

// TestDimWARAvoidsHotMinimal: a congested minimal path loses to a cold
// deroute — the essence of incremental adaptivity.
func TestDimWARAvoidsHotMinimal(t *testing.T) {
	h := topology.MustHyperX([]int{4}, 1)
	a := NewDimWAR(h)
	src, dst := 0, 2
	view := &routetest.StubView{Loads: map[[2]int]int{{0, h.DimPort(0, 0, 2)}: 1000}}
	hops, p, err := routetest.Walk(h, a, src, dst, 4, 7, view)
	if err != nil {
		t.Fatal(err)
	}
	if len(hops) != 2 {
		t.Fatalf("path length %d, want 2 (deroute + align)", len(hops))
	}
	if !hops[0].Cand.Deroute || hops[0].Cand.Class != 1 {
		t.Errorf("first hop should be a class-1 deroute: %+v", hops[0].Cand)
	}
	if hops[1].Cand.Deroute || hops[1].Cand.Class != 0 {
		t.Errorf("second hop should be the class-0 aligning hop: %+v", hops[1].Cand)
	}
	if p.Hops != 2 {
		t.Errorf("packet hops = %d", p.Hops)
	}
}

// TestDimWARWalkProperties: from any source to any destination under
// random congestion, DimWAR delivers within 2N hops, never deroutes twice
// in one dimension, and traverses dimensions in order.
func TestDimWARWalkProperties(t *testing.T) {
	h := topology.MustHyperX([]int{4, 3, 5}, 1)
	a := NewDimWAR(h)
	f := func(s, d uint32, seed uint64, hot uint32) bool {
		src := int(s) % h.NumRouters()
		dst := int(d) % h.NumRouters()
		if src == dst {
			return true
		}
		view := &routetest.StubView{Loads: map[[2]int]int{
			{int(hot) % h.NumRouters(), h.Terms + int(hot)%3}: 500,
		}}
		hops, _, err := routetest.Walk(h, a, src, dst, 2*h.NumDims(), seed, view)
		if err != nil {
			t.Logf("walk error: %v", err)
			return false
		}
		lastDim := -1
		deroutesInDim := map[int8]int{}
		for _, hp := range hops {
			d := int(hp.Cand.Dim)
			if d < lastDim {
				return false // dimension order violated
			}
			lastDim = d
			if hp.Cand.Deroute {
				deroutesInDim[hp.Cand.Dim]++
				if deroutesInDim[hp.Cand.Dim] > 1 {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 1500}); err != nil {
		t.Error(err)
	}
}

// TestOmniWARCandidates: minimal candidates in all unaligned dimensions,
// deroutes everywhere while the class budget allows, distance class = hop
// index.
func TestOmniWARCandidates(t *testing.T) {
	h := topology.MustHyperX([]int{4, 4, 4}, 1)
	a := MustOmniWAR(h, 8, false)
	src := h.RouterAt([]int{0, 0, 0})
	dst := h.RouterAt([]int{1, 2, 3})
	p := &route.Packet{SrcRouter: src, DstRouter: dst}
	p.Reset()
	cands := a.Route(newCtx(src), p)
	// 3 minimal + 3 dims x 2 lateral values.
	if len(cands) != 3+6 {
		t.Fatalf("candidates = %d, want 9", len(cands))
	}
	for _, c := range cands {
		if c.Class != 0 {
			t.Errorf("first hop class %d, want 0 (distance class = hop index)", c.Class)
		}
	}
}

// TestOmniWARDerouteBudget: with classes == remaining minimal hops,
// deroutes disappear.
func TestOmniWARDerouteBudget(t *testing.T) {
	h := topology.MustHyperX([]int{4, 4, 4}, 1)
	a := MustOmniWAR(h, 8, false)
	src := h.RouterAt([]int{0, 0, 0})
	dst := h.RouterAt([]int{1, 2, 3})
	p := &route.Packet{SrcRouter: src, DstRouter: dst}
	p.Reset()
	p.Hops = 5 // 3 classes left, 3 minimal hops needed
	for _, c := range a.Route(newCtx(src), p) {
		if c.Deroute {
			t.Errorf("deroute offered with zero spare classes: %+v", c)
		}
		if c.Class != 5 {
			t.Errorf("class %d, want hop index 5", c.Class)
		}
	}
}

// TestOmniWARMinADDegenerate: with classes == N the algorithm is minimal
// adaptive and reports itself as MinAD.
func TestOmniWARMinADDegenerate(t *testing.T) {
	h := topology.MustHyperX([]int{4, 4, 4}, 1)
	a := MustOmniWAR(h, 3, false)
	if a.Name() != "MinAD" {
		t.Errorf("name = %s", a.Name())
	}
	if a.MaxDeroutes() != 0 {
		t.Errorf("deroutes = %d", a.MaxDeroutes())
	}
}

// TestOmniWARRejectsTooFewClasses: fewer classes than dimensions is a
// configuration error.
func TestOmniWARRejectsTooFewClasses(t *testing.T) {
	h := topology.MustHyperX([]int{4, 4, 4}, 1)
	if _, err := NewOmniWAR(h, 2, false); err == nil {
		t.Error("2 classes accepted for 3-D network")
	}
}

// TestOmniWARB2BRestriction: with the optimization on, a deroute in the
// same dimension as the immediately preceding deroute is not offered.
func TestOmniWARB2BRestriction(t *testing.T) {
	h := topology.MustHyperX([]int{4, 4}, 1)
	a := MustOmniWAR(h, 8, true)
	src := h.RouterAt([]int{0, 0})
	dst := h.RouterAt([]int{3, 3})
	p := &route.Packet{SrcRouter: src, DstRouter: dst}
	p.Reset()
	p.Hops = 1
	p.LastDerDim = 0 // just derouted in dim 0
	for _, c := range a.Route(newCtx(src), p) {
		if c.Deroute && c.Dim == 0 {
			t.Errorf("back-to-back deroute in dim 0 offered: %+v", c)
		}
	}
	// Deroutes in dim 1 must still exist.
	found := false
	for _, c := range a.Route(newCtx(src), p) {
		if c.Deroute && c.Dim == 1 {
			found = true
		}
	}
	if !found {
		t.Error("no deroute in the other dimension")
	}
}

// TestOmniWARWalkProperties: delivery within the class budget, strictly
// increasing distance classes, and correct hop accounting under random
// congestion.
func TestOmniWARWalkProperties(t *testing.T) {
	h := topology.MustHyperX([]int{4, 4, 4}, 1)
	classes := 8
	a := MustOmniWAR(h, classes, false)
	f := func(s, d uint32, seed uint64, hotR, hotP uint32) bool {
		src := int(s) % h.NumRouters()
		dst := int(d) % h.NumRouters()
		if src == dst {
			return true
		}
		view := &routetest.StubView{Loads: map[[2]int]int{
			{int(hotR) % h.NumRouters(), h.Terms + int(hotP)%(h.NumPorts()-h.Terms)}: 700,
		}}
		hops, p, err := routetest.Walk(h, a, src, dst, classes, seed, view)
		if err != nil {
			t.Logf("walk error: %v", err)
			return false
		}
		if len(hops) > classes {
			return false
		}
		for i, hp := range hops {
			if int(hp.Cand.Class) != i {
				return false // distance class must equal hop index
			}
		}
		return int(p.Hops) == len(hops)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 1500}); err != nil {
		t.Error(err)
	}
}

// TestWARMeta sanity-checks the Table 1 rows of the two contributions.
func TestWARMeta(t *testing.T) {
	h := topology.MustHyperX([]int{4, 4, 4}, 1)
	dw := NewDimWAR(h).Meta()
	if !dw.DimOrdered || dw.Style != "incremental" || dw.PktContents != "none" {
		t.Errorf("DimWAR meta %+v", dw)
	}
	ow := MustOmniWAR(h, 8, false).Meta()
	if ow.DimOrdered || ow.Style != "incremental" || ow.PktContents != "none" {
		t.Errorf("OmniWAR meta %+v", ow)
	}
	if NewDimWAR(h).NumClasses() != 2 {
		t.Error("DimWAR must need exactly 2 classes")
	}
}
