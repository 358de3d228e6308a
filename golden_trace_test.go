package hyperx

// Golden-trace determinism regression. A tiny 2x2 t=2 network runs for a
// fixed window while the kernel's TraceExec hook folds every executed
// event's (time, seq) into an FNV-1a hash; per-router link counters and
// the network's aggregate counters are folded in afterwards. The result is
// pinned in testdata/golden_trace.json, which also stores the first
// tracePrefixLen executed events so an event-reordering regression (for
// example from a queue replacement in internal/sim) fails with the first
// divergent event rather than just a hash mismatch.
//
// Regenerate the golden file only when an intentional behaviour change
// alters the event stream:
//
//	go test -run TestGoldenTrace -update-golden .

import (
	"encoding/binary"
	"encoding/json"
	"flag"
	"fmt"
	"hash/fnv"
	"math"
	"os"
	"path/filepath"
	"testing"

	"hyperx/internal/sim"
	"hyperx/internal/traffic"
)

var updateGolden = flag.Bool("update-golden", false, "rewrite testdata/golden_trace.json from the current simulator")

const (
	goldenTraceFile = "testdata/golden_trace.json"
	tracePrefixLen  = 512
	traceRunUntil   = 2500 // cycles simulated per traced run
)

// traceGolden pins one algorithm's execution fingerprint.
type traceGolden struct {
	Alg    string     `json:"alg"`
	Hash   uint64     `json:"hash"`   // FNV-1a 64 over the full fold
	Events uint64     `json:"events"` // live events executed during the run
	Prefix [][2]int64 `json:"prefix"` // first tracePrefixLen (time, seq) pairs
}

// runTraced executes the fixed tiny-network scenario for one algorithm and
// returns its fingerprint. shards <= 1 runs the historical serial kernel
// loop; shards > 1 runs the same scenario through the window-barrier
// sharded executor at the given window width, which must produce the
// identical fingerprint (counts beyond the 4 routers clamp, so shards=8
// exercises the clamp path; window=1 is the per-cycle barrier, wider
// windows exercise in-window local execution and the batched merge).
func runTraced(t *testing.T, alg string, shards, window int) traceGolden {
	t.Helper()
	inst, err := Build(Config{Widths: []int{2, 2}, Terms: 2, Algorithm: alg, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	h := fnv.New64a()
	var buf [16]byte
	g := traceGolden{Alg: alg}
	inst.K.TraceExec = func(at sim.Time, seq uint64) {
		binary.LittleEndian.PutUint64(buf[0:8], uint64(at))
		binary.LittleEndian.PutUint64(buf[8:16], seq)
		h.Write(buf[:])
		if len(g.Prefix) < tracePrefixLen {
			g.Prefix = append(g.Prefix, [2]int64{int64(at), int64(seq)})
		}
	}
	pat, err := NewPattern("UR", inst.Topo)
	if err != nil {
		t.Fatal(err)
	}
	gen := &traffic.Generator{
		Net:     inst.Net,
		Pattern: pat,
		Sizes:   traffic.UniformSize{Min: 1, Max: 16},
		Load:    0.6,
	}
	gen.Start(inst.Cfg.Seed)
	if shards > 1 {
		defer inst.Close()
		if err := runWidth(inst, traceRunUntil, shards, window); err != nil {
			t.Fatal(err)
		}
	} else {
		inst.K.Run(traceRunUntil)
	}

	// Fold the end-state counters: per-router link grants and busy time
	// (via LinkUtilization) and the network aggregates. Any bookkeeping
	// divergence shows up here even if event order happened to match.
	fold := func(v uint64) {
		binary.LittleEndian.PutUint64(buf[0:8], v)
		h.Write(buf[0:8])
	}
	for _, ls := range inst.Net.LinkUtilization() {
		fold(uint64(ls.Router))
		fold(uint64(ls.Port))
		fold(ls.Grants)
		fold(math.Float64bits(ls.Utilization))
	}
	fold(inst.Net.InjectedPackets)
	fold(inst.Net.InjectedFlits)
	fold(inst.Net.DeliveredPackets)
	fold(inst.Net.DeliveredFlits)
	fold(inst.Net.DroppedPackets)
	fold(uint64(inst.K.Now()))
	fold(inst.K.Executed())

	g.Hash = h.Sum64()
	g.Events = inst.K.Executed()
	return g
}

// goldenTraceAlgs covers the paper's two contribution algorithms plus the
// dimension-ordered baseline: between them they exercise every router-path
// event type (route, reroute, grant, credit, deliver) and both the
// adaptive and oblivious candidate generators.
var goldenTraceAlgs = []string{"DOR", "DimWAR", "OmniWAR"}

func TestGoldenTrace(t *testing.T) {
	if *updateGolden {
		var all []traceGolden
		for _, alg := range goldenTraceAlgs {
			all = append(all, runTraced(t, alg, 1, 1))
		}
		data, err := json.MarshalIndent(all, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.MkdirAll(filepath.Dir(goldenTraceFile), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(goldenTraceFile, append(data, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("wrote %s", goldenTraceFile)
		return
	}

	data, err := os.ReadFile(goldenTraceFile)
	if err != nil {
		t.Fatalf("missing golden file (run `go test -run TestGoldenTrace -update-golden .`): %v", err)
	}
	var want []traceGolden
	if err := json.Unmarshal(data, &want); err != nil {
		t.Fatal(err)
	}
	if len(want) != len(goldenTraceAlgs) {
		t.Fatalf("golden file has %d entries, want %d", len(want), len(goldenTraceAlgs))
	}
	// Every shard count and window width must reproduce the serial golden
	// bit-for-bit: the sharded executor's contract is an identical
	// executed-event sequence, so there is exactly one golden fingerprint
	// per algorithm. Window 1 is the per-cycle barrier, 5 the derived
	// default (min configured latency), 50 the cross-shard latency bound.
	for i, alg := range goldenTraceAlgs {
		alg, want := alg, want[i]
		t.Run(alg, func(t *testing.T) {
			for _, nsh := range []int{1, 2, 4, 8} {
				for _, win := range []int{1, 5, 50} {
					if nsh == 1 && win != 1 {
						continue // serial path has no window
					}
					nsh, win := nsh, win
					t.Run(fmt.Sprintf("shards=%d,window=%d", nsh, win), func(t *testing.T) {
						got := runTraced(t, alg, nsh, win)
						if got.Hash == want.Hash && got.Events == want.Events {
							return
						}
						// Locate the first divergent event for the failure message.
						n := len(got.Prefix)
						if len(want.Prefix) < n {
							n = len(want.Prefix)
						}
						for j := 0; j < n; j++ {
							if got.Prefix[j] != want.Prefix[j] {
								t.Fatalf("event stream diverges at executed event %d: got (t=%d seq=%d), golden (t=%d seq=%d)",
									j, got.Prefix[j][0], got.Prefix[j][1], want.Prefix[j][0], want.Prefix[j][1])
							}
						}
						t.Fatalf("trace hash mismatch beyond the %d-event prefix: got hash=%#x events=%d, golden hash=%#x events=%d",
							n, got.Hash, got.Events, want.Hash, want.Events)
					})
				}
			}
		})
	}
}
