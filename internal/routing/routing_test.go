package routing

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

// TestDORSingleCandidate: DOR always emits exactly one candidate, in the
// first unaligned dimension, on class 0.
func TestDORSingleCandidate(t *testing.T) {
	h := topology.MustHyperX([]int{4, 4, 4}, 1)
	a := NewDOR(h)
	for src := 0; src < h.NumRouters(); src += 7 {
		for dst := 0; dst < h.NumRouters(); dst += 11 {
			if src == dst {
				continue
			}
			p := &route.Packet{SrcRouter: src, DstRouter: dst}
			p.Reset()
			cands := a.Route(newCtx(src), p)
			if len(cands) != 1 {
				t.Fatalf("DOR candidates = %d", len(cands))
			}
			c := cands[0]
			if c.Class != 0 || c.Deroute {
				t.Fatalf("DOR candidate %+v", c)
			}
			if d, v := h.PortDim(src, c.Port); d != h.FirstUnalignedDim(src, dst) || v != h.CoordDigit(dst, d) {
				t.Fatalf("DOR hop not dimension-ordered minimal")
			}
		}
	}
}

// TestDORWalkLength: DOR paths are exactly MinHops long.
func TestDORWalkLength(t *testing.T) {
	h := topology.MustHyperX([]int{3, 4, 5}, 1)
	a := NewDOR(h)
	f := func(s, d uint32) bool {
		src := int(s) % h.NumRouters()
		dst := int(d) % h.NumRouters()
		if src == dst {
			return true
		}
		hops, _, err := routetest.Walk(h, a, src, dst, 3, 1, nil)
		return err == nil && len(hops) == h.MinHops(src, dst)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Error(err)
	}
}

// TestVALTwoPhases: VAL walks DOR to some intermediate on class 0/phase 0
// and then DOR to the destination on class 1/phase 1.
func TestVALTwoPhases(t *testing.T) {
	h := topology.MustHyperX([]int{4, 4, 4}, 1)
	a := NewVAL(h)
	f := func(s, d uint32, seed uint64) bool {
		src := int(s) % h.NumRouters()
		dst := int(d) % h.NumRouters()
		if src == dst {
			return true
		}
		hops, p, err := routetest.Walk(h, a, src, dst, 2*h.NumDims(), seed, nil)
		if err != nil {
			t.Logf("%v", err)
			return false
		}
		phase := int8(0)
		for _, hp := range hops {
			if hp.Cand.Class != hp.Cand.NewPhase {
				return false // class mirrors phase
			}
			if hp.Cand.NewPhase < phase {
				return false // phases never go backward
			}
			phase = hp.Cand.NewPhase
		}
		// A packet that passes through its destination router during
		// phase 0 ejects early (as in the router model), so ending in
		// phase 0 is legal; otherwise it must have flipped to phase 1.
		_ = p
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 1000}); err != nil {
		t.Error(err)
	}
}

// TestUGALSourceChoice: an uncongested network routes minimally; heavy
// congestion on the minimal first hop diverts to Valiant.
func TestUGALSourceChoice(t *testing.T) {
	h := topology.MustHyperX([]int{4, 4, 4}, 1)
	a := NewUGAL(h)
	src := h.RouterAt([]int{0, 0, 0})
	dst := h.RouterAt([]int{2, 2, 2})

	hops, _, err := routetest.Walk(h, a, src, dst, 6, 3, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(hops) != h.MinHops(src, dst) {
		t.Errorf("uncongested UGAL path length %d, want minimal %d", len(hops), h.MinHops(src, dst))
	}

	// Congest every port of the source toward dst's first-dim coordinate.
	view := &routetest.StubView{Loads: map[[2]int]int{}}
	view.Loads[[2]int{src, h.DimPort(src, 0, 2)}] = 10000
	nonMin := 0
	for seed := uint64(0); seed < 20; seed++ {
		hops, _, err := routetest.Walk(h, a, src, dst, 6, seed, view)
		if err != nil {
			t.Fatal(err)
		}
		if len(hops) > h.MinHops(src, dst) {
			nonMin++
		}
	}
	if nonMin < 15 {
		t.Errorf("UGAL went non-minimal only %d/20 times under heavy first-hop congestion", nonMin)
	}
}

// TestUGALPacketCarriesIntermediate: Table 1 — UGAL needs the
// intermediate address in the packet.
func TestUGALPacketCarriesIntermediate(t *testing.T) {
	h := topology.MustHyperX([]int{4, 4, 4}, 1)
	if NewUGAL(h).Meta().PktContents != "int. addr." {
		t.Error("UGAL meta must declare intermediate address storage")
	}
}

// TestClosADSourceCandidates: at the source, one candidate per non-self
// coordinate value in every unaligned dimension.
func TestClosADSourceCandidates(t *testing.T) {
	h := topology.MustHyperX([]int{4, 4, 4}, 1)
	a := NewClosAD(h)
	src := h.RouterAt([]int{0, 0, 0})
	dst := h.RouterAt([]int{1, 2, 0}) // dims 0,1 unaligned
	p := &route.Packet{SrcRouter: src, DstRouter: dst}
	p.Reset()
	p.Inter = -1
	cands := a.Route(newCtx(src), p)
	if len(cands) != 2*3 {
		t.Fatalf("candidates = %d, want 6 (2 unaligned dims x (W-1))", len(cands))
	}
	for _, c := range cands {
		d, _ := h.PortDim(src, c.Port)
		if d == 2 {
			t.Errorf("Clos-AD offered a port in aligned dimension 2 (LCA violation)")
		}
		if c.Deroute {
			inter := int(c.Inter)
			if h.CoordDigit(inter, 2) != h.CoordDigit(dst, 2) {
				t.Errorf("intermediate leaves aligned dimension: %d", inter)
			}
		}
	}
}

// TestClosADWalkDelivers under random congestion, within 2N+1 hops.
func TestClosADWalkDelivers(t *testing.T) {
	h := topology.MustHyperX([]int{4, 4, 4}, 1)
	a := NewClosAD(h)
	f := func(s, d uint32, seed uint64, hotR, hotP uint32) bool {
		src := int(s) % h.NumRouters()
		dst := int(d) % h.NumRouters()
		if src == dst {
			return true
		}
		view := &routetest.StubView{Loads: map[[2]int]int{
			{int(hotR) % h.NumRouters(), h.Terms + int(hotP)%(h.NumPorts()-h.Terms)}: 800,
		}}
		_, _, err := routetest.Walk(h, a, src, dst, 2*h.NumDims()+1, seed, view)
		if err != nil {
			t.Logf("%v", err)
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 1000}); err != nil {
		t.Error(err)
	}
}

// TestMinADStaysMinimal: every hop reduces distance; path length is
// exactly MinHops regardless of congestion.
func TestMinADStaysMinimal(t *testing.T) {
	h := topology.MustHyperX([]int{4, 4, 4}, 1)
	a := NewMinAD(h)
	f := func(s, d uint32, seed uint64, hotR, hotP uint32) bool {
		src := int(s) % h.NumRouters()
		dst := int(d) % h.NumRouters()
		if src == dst {
			return true
		}
		view := &routetest.StubView{Loads: map[[2]int]int{
			{int(hotR) % h.NumRouters(), h.Terms + int(hotP)%(h.NumPorts()-h.Terms)}: 800,
		}}
		hops, _, err := routetest.Walk(h, a, src, dst, h.NumDims(), seed, view)
		return err == nil && len(hops) == h.MinHops(src, dst)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 1500}); err != nil {
		t.Error(err)
	}
}

// TestDALDerouteOncePerDim: DAL tracks deroutes in the packet's N-bit
// field and never deroutes twice in a dimension; the escape class only
// ever moves dimension-ordered minimal.
func TestDALDerouteOncePerDim(t *testing.T) {
	h := topology.MustHyperX([]int{4, 4, 4}, 1)
	a := NewDAL(h)
	src := h.RouterAt([]int{0, 0, 0})
	dst := h.RouterAt([]int{1, 1, 1})
	p := &route.Packet{SrcRouter: src, DstRouter: dst}
	p.Reset()
	p.Derouted = 1 << 0 // already derouted in dim 0
	for _, c := range a.Route(newCtx(src), p) {
		if c.Deroute && c.Dim == 0 {
			t.Errorf("second deroute in dim 0 offered")
		}
	}
	// Escape class: only the DOR hop.
	p.Class = 1
	cands := a.Route(newCtx(src), p)
	if len(cands) != 1 || cands[0].Class != 1 || cands[0].Deroute {
		t.Fatalf("escape-class candidates %+v", cands)
	}
}

// TestDALWalkDelivers within 2N+? hops under congestion.
func TestDALWalkDelivers(t *testing.T) {
	h := topology.MustHyperX([]int{4, 4, 4}, 1)
	a := NewDAL(h)
	f := func(s, d uint32, seed uint64) bool {
		src := int(s) % h.NumRouters()
		dst := int(d) % h.NumRouters()
		if src == dst {
			return true
		}
		_, _, err := routetest.Walk(h, a, src, dst, 2*h.NumDims(), seed, nil)
		return err == nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 1000}); err != nil {
		t.Error(err)
	}
}

// TestFatTreeWalk: adaptive Clos routing delivers between any two edge
// switches within 4 hops, up then down.
func TestFatTreeWalk(t *testing.T) {
	f := topology.MustFatTree(8)
	a := NewFatTreeAdaptive(f)
	check := func(src, dst uint32, seed uint64) bool {
		s := int(src) % (f.K * f.K / 2) // edge switches only
		d := int(dst) % (f.K * f.K / 2)
		if s == d {
			return true
		}
		hops, _, err := routetest.Walk(f, a, s, d, 4, seed, nil)
		if err != nil {
			t.Logf("%v", err)
			return false
		}
		// Up hops precede down hops.
		wentDown := false
		prev := s
		for _, hp := range hops {
			next, _ := f.Peer(hp.Router, hp.Cand.Port)
			up := f.Level(next) > f.Level(prev)
			if up && wentDown {
				return false
			}
			if !up {
				wentDown = true
			}
			prev = next
		}
		return true
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 1000}); err != nil {
		t.Error(err)
	}
}

// TestDragonflyWalks: MIN stays within 3 hops, VAL within 5, UGAL within
// 5, all with strictly increasing distance classes.
func TestDragonflyWalks(t *testing.T) {
	d := topology.MustDragonfly(2, 4, 2)
	for _, tc := range []struct {
		alg route.Algorithm
		max int
	}{
		{NewDragonflyMIN(d), 3},
		{NewDragonflyVAL(d), 5},
		{NewDragonflyUGAL(d), 5},
	} {
		tc := tc
		t.Run(tc.alg.Name(), func(t *testing.T) {
			f := func(s, dd uint32, seed uint64) bool {
				src := int(s) % d.NumRouters()
				dst := int(dd) % d.NumRouters()
				if src == dst {
					return true
				}
				hops, _, err := routetest.Walk(d, tc.alg, src, dst, tc.max, seed, nil)
				if err != nil {
					t.Logf("%v", err)
					return false
				}
				for i, hp := range hops {
					if int(hp.Cand.Class) != i {
						return false
					}
				}
				return len(hops) <= tc.max
			}
			if err := quick.Check(f, &quick.Config{MaxCount: 800}); err != nil {
				t.Error(err)
			}
		})
	}
}

// TestDragonflyMINLength: minimal routing length equals MinHops.
func TestDragonflyMINLength(t *testing.T) {
	d := topology.MustDragonfly(2, 4, 2)
	a := NewDragonflyMIN(d)
	for src := 0; src < d.NumRouters(); src += 3 {
		for dst := 0; dst < d.NumRouters(); dst += 5 {
			if src == dst {
				continue
			}
			hops, _, err := routetest.Walk(d, a, src, dst, 3, 1, nil)
			if err != nil {
				t.Fatal(err)
			}
			if len(hops) != d.MinHops(src, dst) {
				t.Fatalf("MIN path %d->%d length %d, want %d", src, dst, len(hops), d.MinHops(src, dst))
			}
		}
	}
}

// TestMetaTable spot-checks Table 1 fields of the baselines.
func TestMetaTable(t *testing.T) {
	h := topology.MustHyperX([]int{4, 4, 4}, 1)
	if m := NewDOR(h).Meta(); m.Style != "oblivious" || m.VCsRequired != "1" {
		t.Errorf("DOR meta %+v", m)
	}
	if m := NewVAL(h).Meta(); m.PktContents != "int. addr." {
		t.Errorf("VAL meta %+v", m)
	}
	if m := NewDAL(h).Meta(); m.VCsRequired != "1+1e" || m.ArchRequires != "escape paths" {
		t.Errorf("DAL meta %+v", m)
	}
	if m := NewClosAD(h).Meta(); m.Style != "source" {
		t.Errorf("ClosAD meta %+v", m)
	}
}
