package core

import (
	"testing"
	"testing/quick"

	"hyperx/internal/route"
	"hyperx/internal/routetest"
	"hyperx/internal/topology"
)

// TestDimWARExcludesDeadMinimal: with the minimal link of the first
// unaligned dimension dead, DimWAR must offer only deroutes, and only via
// intermediates whose remote aligning link is alive.
func TestDimWARExcludesDeadMinimal(t *testing.T) {
	h := topology.MustHyperX([]int{4, 4}, 1)
	src := h.RouterAt([]int{0, 0})
	dst := h.RouterAt([]int{2, 3})
	fs := topology.NewFaultSet()
	if err := fs.Add(h, src, h.DimPort(src, 0, 2)); err != nil {
		t.Fatal(err)
	}
	a := NewDimWAR(h)
	a.SetFaults(fs)
	p := &route.Packet{SrcRouter: src, DstRouter: dst}
	p.Reset()
	cands := a.Route(newCtx(src), p)
	if len(cands) == 0 {
		t.Fatal("no candidates around a single dead minimal link")
	}
	for _, c := range cands {
		if !c.Deroute {
			t.Errorf("minimal candidate on port %d survived its dead link", c.Port)
		}
		if fs.Dead(src, c.Port) {
			t.Errorf("candidate uses dead lateral port %d", c.Port)
		}
		via, _ := h.Peer(src, c.Port)
		if fs.Dead(via, h.DimPort(via, 0, 2)) {
			t.Errorf("deroute via %d has a dead remote aligning link", via)
		}
	}
}

// TestDimWARFaultWalks: with a connected random fault set, DimWAR walks
// deliver every pair within the two-resource-class hop bound and never
// traverse a dead link (Walk errors on either violation).
func TestDimWARFaultWalks(t *testing.T) {
	h := topology.MustHyperX([]int{4, 3, 5}, 1)
	fs, err := topology.RandomConnectedFaults(h, 4, 11)
	if err != nil {
		t.Fatal(err)
	}
	a := NewDimWAR(h)
	a.SetFaults(fs)
	f := func(s, d uint32, seed uint64) bool {
		src := int(s) % h.NumRouters()
		dst := int(d) % h.NumRouters()
		if src == dst {
			return true
		}
		view := &routetest.StubView{Faults: fs}
		_, _, err := routetest.Walk(h, a, src, dst, 2*h.NumDims(), seed, view)
		if err != nil {
			t.Logf("walk %d->%d: %v", src, dst, err)
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Error(err)
	}
}

// TestOmniWARFaultWalks: same guarantee for OmniWAR within its distance-
// class budget.
func TestOmniWARFaultWalks(t *testing.T) {
	h := topology.MustHyperX([]int{4, 3, 5}, 1)
	fs, err := topology.RandomConnectedFaults(h, 4, 23)
	if err != nil {
		t.Fatal(err)
	}
	a := MustOmniWAR(h, 8, false)
	a.SetFaults(fs)
	f := func(s, d uint32, seed uint64) bool {
		src := int(s) % h.NumRouters()
		dst := int(d) % h.NumRouters()
		if src == dst {
			return true
		}
		view := &routetest.StubView{Faults: fs}
		_, _, err := routetest.Walk(h, a, src, dst, 8, seed, view)
		if err != nil {
			t.Logf("walk %d->%d: %v", src, dst, err)
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Error(err)
	}
}

// TestFaultCandidatesAreSubset: on any router, the faulted candidate set
// is a subset of the fault-free one — the deadlock-freedom argument.
func TestFaultCandidatesAreSubset(t *testing.T) {
	h := topology.MustHyperX([]int{4, 4}, 1)
	fs, err := topology.RandomConnectedFaults(h, 3, 5)
	if err != nil {
		t.Fatal(err)
	}
	pristine := NewDimWAR(h)
	faulted := NewDimWAR(h)
	faulted.SetFaults(fs)
	key := func(c route.Candidate) [4]int {
		return [4]int{c.Port, int(c.Class), int(c.Dim), b2i(c.Deroute)}
	}
	for src := 0; src < h.NumRouters(); src++ {
		for dst := 0; dst < h.NumRouters(); dst++ {
			if src == dst {
				continue
			}
			p := &route.Packet{SrcRouter: src, DstRouter: dst}
			p.Reset()
			free := make(map[[4]int]bool)
			for _, c := range pristine.Route(newCtx(src), p) {
				free[key(c)] = true
			}
			p2 := &route.Packet{SrcRouter: src, DstRouter: dst}
			p2.Reset()
			for _, c := range faulted.Route(newCtx(src), p2) {
				if !free[key(c)] {
					t.Fatalf("src %d dst %d: faulted candidate %+v not offered fault-free", src, dst, c)
				}
			}
		}
	}
}

func b2i(b bool) int {
	if b {
		return 1
	}
	return 0
}
