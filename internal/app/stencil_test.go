package app

import (
	"reflect"
	"testing"

	"hyperx/internal/core"
	"hyperx/internal/network"
	"hyperx/internal/sim"
	"hyperx/internal/topology"
)

func testNet(t *testing.T) *network.Network {
	t.Helper()
	h := topology.MustHyperX([]int{4, 4}, 4) // 64 terminals
	n, err := network.New(sim.NewKernel(), network.Config{Topo: h, Alg: core.NewDimWAR(h), Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	return n
}

func TestPacketize(t *testing.T) {
	cases := []struct {
		bytes, flitB, maxF int
		want               []int
	}{
		{64, 32, 16, []int{2}},
		{0, 32, 16, []int{1}},
		{512, 32, 16, []int{16}},
		{513, 32, 16, []int{16, 1}},
		{1600, 32, 16, []int{16, 16, 16, 2}},
	}
	for _, c := range cases {
		got := packetize(c.bytes, c.flitB, c.maxF)
		if len(got) != len(c.want) {
			t.Errorf("packetize(%d) = %v, want %v", c.bytes, got, c.want)
			continue
		}
		for i := range got {
			if got[i] != c.want[i] {
				t.Errorf("packetize(%d) = %v, want %v", c.bytes, got, c.want)
				break
			}
		}
	}
}

func TestTagRoundTrip(t *testing.T) {
	for _, c := range [][3]int{{0, 0, 0}, {15, 1, 11}, {3, 0, 0}, {1, 1, 7}} {
		i, p, r := untag(tag(c[0], c[1], c[2]))
		if i != c[0] || p != c[1] || r != c[2] {
			t.Errorf("tag round trip %v -> %d %d %d", c, i, p, r)
		}
	}
}

// TestNeighborStructure: with a 4x4x4 periodic grid each process has
// exactly 26 distinct neighbors: 6 faces, 12 edges, 8 corners, and halo
// byte budget is conserved across types.
func TestNeighborStructure(t *testing.T) {
	n := testNet(t)
	s, err := New(n, Config{GridX: 4, GridY: 4, GridZ: 4, Mode: HaloOnly, BytesPerExchange: 100_000})
	if err != nil {
		t.Fatal(err)
	}
	for p := 0; p < s.procs; p++ {
		if len(s.neighbors[p]) != 26 {
			t.Fatalf("process %d has %d neighbors, want 26", p, len(s.neighbors[p]))
		}
	}
	// Symmetry: expected receive counts equal sent counts globally, and
	// every process expects the same amount on a symmetric torus grid.
	for p := 1; p < s.procs; p++ {
		if s.haloExpect[p] != s.haloExpect[0] {
			t.Fatalf("asymmetric halo expectation: %d vs %d", s.haloExpect[p], s.haloExpect[0])
		}
	}
}

// TestNeighborWeighting: face messages carry n^2/(n) times more than
// edge/corner messages (n=SubCubeSide ratio).
func TestNeighborWeighting(t *testing.T) {
	n := testNet(t)
	s, err := New(n, Config{GridX: 4, GridY: 4, GridZ: 4, Mode: HaloOnly, BytesPerExchange: 100_000, SubCubeSide: 16})
	if err != nil {
		t.Fatal(err)
	}
	// Face neighbors (single non-zero offset) get ~16x edge bytes which
	// get ~16x corner bytes; measured in flits: faces >> corners.
	flits := func(pkts []int) int {
		total := 0
		for _, f := range pkts {
			total += f
		}
		return total
	}
	var face, corner int
	nb := s.neighbors[0]
	for _, x := range nb {
		f := flits(x.packets)
		if f > face {
			face = f
		}
		if corner == 0 || f < corner {
			corner = f
		}
	}
	if face < 10*corner {
		t.Errorf("face flits %d not >> corner flits %d", face, corner)
	}
}

// TestCollectiveOnlyCompletes and takes ~rounds * round-trip time.
func TestCollectiveOnlyCompletes(t *testing.T) {
	n := testNet(t)
	s, err := New(n, Config{GridX: 4, GridY: 4, GridZ: 4, Mode: CollectiveOnly})
	if err != nil {
		t.Fatal(err)
	}
	res, err := s.Run()
	if err != nil {
		t.Fatal(err)
	}
	if s.rounds != 6 {
		t.Fatalf("rounds = %d, want ceil(log2 64) = 6", s.rounds)
	}
	// Each round costs at least one network traversal (~200ns at this
	// scale); all six must be serialized.
	if res.ExecTime < 6*200 {
		t.Errorf("collective finished implausibly fast: %d", res.ExecTime)
	}
}

// TestCollectiveNonPowerOfTwo: dissemination handles any process count.
func TestCollectiveNonPowerOfTwo(t *testing.T) {
	n := testNet(t)
	s, err := New(n, Config{GridX: 3, GridY: 3, GridZ: 5, Mode: CollectiveOnly}) // 45 procs
	if err != nil {
		t.Fatal(err)
	}
	if s.rounds != 6 {
		t.Fatalf("rounds = %d, want ceil(log2 45) = 6", s.rounds)
	}
	if _, err := s.Run(); err != nil {
		t.Fatal(err)
	}
}

// TestHaloOnlyConservation: all sent packets are delivered and counted.
func TestHaloOnlyConservation(t *testing.T) {
	n := testNet(t)
	s, err := New(n, Config{GridX: 4, GridY: 4, GridZ: 2, Mode: HaloOnly, BytesPerExchange: 5_000})
	if err != nil {
		t.Fatal(err)
	}
	res, err := s.Run()
	if err != nil {
		t.Fatal(err)
	}
	expected := 0
	for p := range s.neighbors {
		for _, nb := range s.neighbors[p] {
			expected += len(nb.packets)
		}
	}
	if int(res.Packets) != expected {
		t.Errorf("delivered %d packets, want %d", res.Packets, expected)
	}
}

// TestIterationsScaleTime: 3 iterations take at least 2x one iteration.
func TestIterationsScaleTime(t *testing.T) {
	run := func(iters int) sim.Time {
		n := testNet(t)
		s, err := New(n, Config{GridX: 4, GridY: 2, GridZ: 2, Mode: Full, Iterations: iters, BytesPerExchange: 2_000})
		if err != nil {
			t.Fatal(err)
		}
		res, err := s.Run()
		if err != nil {
			t.Fatal(err)
		}
		return res.ExecTime
	}
	one, three := run(1), run(3)
	if three < 2*one {
		t.Errorf("3 iterations (%d) < 2x one iteration (%d)", three, one)
	}
}

// TestRandomPlacementIsPermutation and is seed-deterministic.
func TestRandomPlacement(t *testing.T) {
	mk := func(seed uint64) []int {
		n := testNet(t)
		s, err := New(n, Config{GridX: 4, GridY: 4, GridZ: 4, Mode: CollectiveOnly, Placement: RandomPlacement, Seed: seed})
		if err != nil {
			t.Fatal(err)
		}
		return s.placement
	}
	a, b, c := mk(5), mk(5), mk(6)
	seen := map[int]bool{}
	diff := false
	for i := range a {
		if seen[a[i]] {
			t.Fatal("placement not injective")
		}
		seen[a[i]] = true
		if a[i] != b[i] {
			t.Fatal("same seed produced different placements")
		}
		if a[i] != c[i] {
			diff = true
		}
	}
	if !diff {
		t.Error("different seeds produced identical placements")
	}
}

// TestRandomPlacementGolden pins the placement stream itself: seed 5 on
// 64 terminals places a 16-process grid exactly here. Any change to how
// the placement RNG is seeded or drawn moves every stencil result, so it
// must fail a test rather than pass silently.
func TestRandomPlacementGolden(t *testing.T) {
	s, err := New(testNet(t), Config{GridX: 2, GridY: 2, GridZ: 4, Mode: CollectiveOnly, Placement: RandomPlacement, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	want := []int{5, 1, 23, 53, 16, 58, 45, 30, 4, 25, 56, 36, 61, 57, 15, 35}
	if !reflect.DeepEqual(s.placement, want) {
		t.Errorf("seed-5 placement = %v, want %v", s.placement, want)
	}
}

// TestRecursiveDoubling: the alternative collective completes on a
// power-of-two count and is rejected otherwise.
func TestRecursiveDoubling(t *testing.T) {
	n := testNet(t)
	s, err := New(n, Config{GridX: 4, GridY: 4, GridZ: 4, Mode: CollectiveOnly, Collective: RecursiveDoubling})
	if err != nil {
		t.Fatal(err)
	}
	res, err := s.Run()
	if err != nil {
		t.Fatal(err)
	}
	// Exactly procs * rounds messages (one send per peer per round).
	want := uint64(64 * 6)
	if res.Packets != want {
		t.Errorf("recursive doubling delivered %d packets, want %d", res.Packets, want)
	}

	n2 := testNet(t)
	if _, err := New(n2, Config{GridX: 3, GridY: 3, GridZ: 5, Mode: CollectiveOnly, Collective: RecursiveDoubling}); err == nil {
		t.Error("recursive doubling accepted 45 processes")
	}
}

// TestCollectiveAlgorithmsAgreeOnTime: both collectives run the same
// number of rounds, so their execution times are comparable (within a
// small factor at idle load).
func TestCollectiveAlgorithmsAgreeOnTime(t *testing.T) {
	run := func(c Collective) int64 {
		n := testNet(t)
		s, err := New(n, Config{GridX: 4, GridY: 4, GridZ: 4, Mode: CollectiveOnly, Collective: c})
		if err != nil {
			t.Fatal(err)
		}
		res, err := s.Run()
		if err != nil {
			t.Fatal(err)
		}
		return int64(res.ExecTime)
	}
	dis, rd := run(Dissemination), run(RecursiveDoubling)
	t.Logf("collective time: dissemination=%d recursive-doubling=%d", dis, rd)
	if rd > 2*dis || dis > 2*rd {
		t.Errorf("collective times diverge: %d vs %d", dis, rd)
	}
}

// TestConfigErrors: too many processes or degenerate grids rejected.
func TestConfigErrors(t *testing.T) {
	n := testNet(t)
	if _, err := New(n, Config{GridX: 10, GridY: 10, GridZ: 10}); err == nil {
		t.Error("1000 processes on 64 terminals accepted")
	}
	if _, err := New(n, Config{GridX: 1, GridY: 1, GridZ: 1}); err == nil {
		t.Error("single process accepted")
	}
}
