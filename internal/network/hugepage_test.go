package network

import (
	"testing"

	"hyperx/internal/core"
	"hyperx/internal/topology"
)

// TestHugeGate: a build backs its state with huge pages only once its
// slabs reach one. The 4×4×4 t=4 build of the sweeps stays below, so it
// makes no madvise call at all, and the paper's 8×8×8 t=8 build is above;
// splitting it into shards changes nothing.
func TestHugeGate(t *testing.T) {
	for _, c := range []struct {
		widths []int
		terms  int
		huge   bool
	}{
		{[]int{4, 4, 4}, 4, false},
		{[]int{8, 8, 8}, 8, true},
	} {
		h := topology.MustHyperX(c.widths, c.terms)
		n := buildNet(t, h, core.NewDimWAR(h), nil)
		if n.Huge() != c.huge {
			t.Errorf("%v t=%d: huge = %v, want %v", c.widths, c.terms, n.Huge(), c.huge)
		}
		if err := n.ConfigureShards(2); err != nil {
			t.Fatal(err)
		}
		if n.Huge() != c.huge {
			t.Errorf("%v t=%d on 2 shards: huge = %v, want %v", c.widths, c.terms, n.Huge(), c.huge)
		}
	}
}

// TestHugeAfterRestore: a paper-scale network restored from a snapshot,
// its packets rebuilt into fresh packet slabs, is still on huge pages.
func TestHugeAfterRestore(t *testing.T) {
	h := topology.MustHyperX([]int{8, 8, 8}, 8)
	n := buildNet(t, h, core.NewDimWAR(h), nil)
	nt := h.NumTerminals()
	for src := 0; src < nt; src++ {
		n.Terminals[src].Send(n.NewPacket(src, (src*31+1)%nt, 8))
	}
	n.K.Run(200)
	snap, err := n.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	if len(snap.Packets) == 0 {
		t.Fatal("snapshot holds no packet: the rebuilt packet slabs are not exercised")
	}
	m := buildNet(t, h, core.NewDimWAR(h), nil)
	if err := m.Restore(snap); err != nil {
		t.Fatal(err)
	}
	if !m.Huge() {
		t.Fatal("restored paper-scale network is not on huge pages")
	}
	m.K.Run(0)
	if m.InFlight() != 0 {
		t.Fatalf("restored network did not drain: %d in flight", m.InFlight())
	}
}
