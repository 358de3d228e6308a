package network_test

// The packed view is kept up to date as decisions register, grants move
// flits and credits return, rather than recomputed per decision. These
// tests recompute it from scratch after loaded runs — serial, on two
// shards, faulted, and across a snapshot and restore — and require every
// entry to agree.

import (
	"context"
	"reflect"
	"testing"

	"hyperx/internal/core"
	"hyperx/internal/network"
	"hyperx/internal/route"
	"hyperx/internal/shard"
	"hyperx/internal/sim"
	"hyperx/internal/topology"
	"hyperx/internal/traffic"
)

// loaded builds a 4x4x4 network under alg with UR traffic at load 0.6
// and returns it with its generator, started but not yet run.
func loaded(t *testing.T, alg func(*topology.HyperX) route.Algorithm, fs *topology.FaultSet) (*network.Network, *traffic.Generator) {
	t.Helper()
	h := topology.MustHyperX([]int{4, 4, 4}, 4)
	n, err := network.New(sim.NewKernel(), network.Config{Topo: h, Alg: alg(h), Faults: fs, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	gen := &traffic.Generator{Net: n, Pattern: traffic.UniformRandom{N: h.NumTerminals()},
		Sizes: traffic.UniformSize{Min: 1, Max: 16}, Load: 0.6}
	gen.Start(3)
	return n, gen
}

// runOn advances n to until, serially or on the given shard count.
func runOn(t *testing.T, n *network.Network, until sim.Time, shards int) {
	t.Helper()
	if shards <= 1 {
		n.K.Run(until)
		return
	}
	if err := n.ConfigureShards(shards); err != nil {
		t.Fatal(err)
	}
	cfg := &n.Cfg
	x := shard.New(n.K, n, min(cfg.XbarLat, cfg.RouterChanLat, cfg.TermChanLat))
	defer x.Close()
	if _, err := x.RunCtx(context.Background(), until); err != nil {
		t.Fatal(err)
	}
}

func dimWAR(h *topology.HyperX) route.Algorithm { return core.NewDimWAR(h) }

// TestPortLinesMatchState: DimWAR at UR 0.6 on one and two shards, the
// view checked at several points of the run; both runs must also end
// with identical views.
func TestPortLinesMatchState(t *testing.T) {
	var views [][]network.PortLine
	for _, shards := range []int{1, 2} {
		n, _ := loaded(t, dimWAR, nil)
		for _, until := range []sim.Time{500, 1500, 3000} {
			runOn(t, n, until, shards)
			if err := n.CheckLines(); err != nil {
				t.Fatalf("shards=%d at %d: %v", shards, until, err)
			}
		}
		if n.DeliveredPackets == 0 {
			t.Fatalf("shards=%d: nothing delivered", shards)
		}
		views = append(views, n.Lines())
	}
	if !reflect.DeepEqual(views[0], views[1]) {
		t.Error("two-shard run ended with a different packed view than the serial run")
	}
}

// TestPortLinesFaulted: OmniWAR around four failed links, whose dead
// ports hold no credits and count as full.
func TestPortLinesFaulted(t *testing.T) {
	h := topology.MustHyperX([]int{4, 4, 4}, 4)
	fs, err := topology.RandomConnectedFaults(h, 4, 2)
	if err != nil {
		t.Fatal(err)
	}
	omni := func(h *topology.HyperX) route.Algorithm {
		a := core.MustOmniWAR(h, 4, false)
		a.SetFaults(fs)
		return a
	}
	n, _ := loaded(t, omni, fs)
	for _, until := range []sim.Time{1000, 2000} {
		runOn(t, n, until, 1)
		if err := n.CheckLines(); err != nil {
			t.Fatalf("at %d: %v", until, err)
		}
	}
	if n.DeliveredPackets == 0 || n.DroppedPackets != 0 {
		t.Errorf("delivered %d, dropped %d: want deliveries and no drops around connected faults", n.DeliveredPackets, n.DroppedPackets)
	}
}

// TestPortLinesAfterRestore: a snapshot restored into a freshly built
// network rebuilds the view exactly — the same entries as the network
// it was taken from — and it stays consistent as the run resumes.
func TestPortLinesAfterRestore(t *testing.T) {
	n, gen := loaded(t, dimWAR, nil)
	runOn(t, n, 1500, 1)
	snap, err := n.Snapshot(gen)
	if err != nil {
		t.Fatal(err)
	}
	m, gen2 := loaded(t, dimWAR, nil)
	if err := m.Restore(snap, gen2); err != nil {
		t.Fatal(err)
	}
	if err := gen2.Restore(gen.Snapshot()); err != nil {
		t.Fatal(err)
	}
	if err := m.CheckLines(); err != nil {
		t.Fatalf("after restore: %v", err)
	}
	if !reflect.DeepEqual(m.Lines(), n.Lines()) {
		t.Fatal("restored packed view differs from the snapshotted network's")
	}
	runOn(t, n, 3000, 1)
	runOn(t, m, 3000, 1)
	if err := m.CheckLines(); err != nil {
		t.Fatalf("resumed after restore: %v", err)
	}
	if !reflect.DeepEqual(m.Lines(), n.Lines()) {
		t.Error("resumed restored network's packed view diverged")
	}
}
