package hyperx

// Sharded-execution determinism suite. The contract under test is
// absolute: a run at any shard count executes the bit-identical event
// sequence — and lands in the bit-identical end state — as the serial
// kernel loop, across network shapes, routing algorithms, faulted
// configurations, and composition with warm-state snapshot/restore. The
// same property makes RunOpts.Shards invisible to the checkpoint key,
// which the cross-mode cache test pins. Run under `-race` (make race)
// this suite doubles as the data-race check of the parallel phase.

import (
	"context"
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"math"
	"reflect"
	"strings"
	"testing"

	"hyperx/internal/harness"
	"hyperx/internal/sim"
	"hyperx/internal/traffic"
)

// simFingerprint condenses a run into the executed (time, seq) stream
// hash plus the end-state counters — the same fold as the golden trace.
type simFingerprint struct {
	Hash   uint64
	Events uint64
	Now    sim.Time
}

// foldCounters folds the instance's end-state counters into h, mirroring
// runTraced so any bookkeeping divergence is caught even when the event
// order matches.
func foldCounters(h interface{ Write([]byte) (int, error) }, inst *Instance) {
	var buf [8]byte
	fold := func(v uint64) {
		binary.LittleEndian.PutUint64(buf[:], v)
		h.Write(buf[:])
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
}

// fingerprintRun builds cfg, drives UR traffic at 0.6 load for until
// cycles through the serial kernel (shards <= 1) or the sharded executor
// at the given barrier window width (0 derives the default from the
// configured latencies), and returns the run's fingerprint.
func fingerprintRun(t *testing.T, cfg Config, shards, window int, until sim.Time) simFingerprint {
	t.Helper()
	inst, err := Build(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer inst.Close()
	h := fnv.New64a()
	var buf [16]byte
	inst.K.TraceExec = func(at sim.Time, seq uint64) {
		binary.LittleEndian.PutUint64(buf[0:8], uint64(at))
		binary.LittleEndian.PutUint64(buf[8:16], seq)
		h.Write(buf[:])
	}
	pat, err := NewPattern("UR", inst.Topo)
	if err != nil {
		t.Fatal(err)
	}
	gen := &traffic.Generator{Net: inst.Net, Pattern: pat, Sizes: traffic.UniformSize{Min: 1, Max: 16}, Load: 0.6}
	gen.Start(inst.Cfg.Seed)
	if _, err := inst.runCtx(context.Background(), until, shards, window); err != nil {
		t.Fatal(err)
	}
	foldCounters(h, inst)
	return simFingerprint{Hash: h.Sum64(), Events: inst.K.Executed(), Now: inst.K.Now()}
}

// TestShardedMatchesSerialShapes: bit-identical execution across shard
// counts on shapes from 4 routers (every count clamps or divides
// unevenly) through 16 (even contiguous blocks), and across the
// algorithm families: dimension-ordered, the two incremental adaptive
// algorithms, and the RNG-drawing baselines (VAL redraws its
// intermediate on every Route call, UGAL draws tie-breaks), whose
// per-router streams make any spuriously executed event visible.
func TestShardedMatchesSerialShapes(t *testing.T) {
	cases := []struct {
		name   string
		widths []int
		alg    string
	}{
		{"2x2-DimWAR", []int{2, 2}, "DimWAR"},
		{"2x2x2-OmniWAR", []int{2, 2, 2}, "OmniWAR"},
		{"4x4-DOR", []int{4, 4}, "DOR"},
		{"4x4-DimWAR", []int{4, 4}, "DimWAR"},
		{"4x4-VAL", []int{4, 4}, "VAL"},
		{"4x4-UGAL", []int{4, 4}, "UGAL"},
	}
	for _, c := range cases {
		c := c
		t.Run(c.name, func(t *testing.T) {
			cfg := Config{Widths: c.widths, Terms: 2, Algorithm: c.alg, Seed: 7}
			want := fingerprintRun(t, cfg, 1, 0, 2500)
			for _, nsh := range []int{2, 3, 4, 8} {
				if got := fingerprintRun(t, cfg, nsh, 0, 2500); got != want {
					t.Errorf("shards=%d diverged from serial: got %+v, want %+v", nsh, got, want)
				}
			}
		})
	}
}

// TestShardedSameCycleCancelVAL pins a regression: a reroute timer
// cancelled by an earlier-seq event of its own cycle still fired under
// sharding. The executor of the time popped the whole window from the
// calendar before running any of it, and Kernel.Cancel then no-oped on
// an already-popped (queued=false) event, whereas serially the target
// is still in the calendar when the canceller runs. Shards now pop each
// event only when it runs, as the serial loop does. VAL makes the bug
// observable: every Route call on an unrouted packet redraws the
// intermediate from the per-router RNG stream, so one spuriously
// executed reroute shifts every later draw on that router. Paper-scale
// VAL at this seed hits the grant-vs-timer same-cycle coincidence
// within 4000 cycles.
func TestShardedSameCycleCancelVAL(t *testing.T) {
	cfg := DefaultScale()
	cfg.Algorithm = "VAL"
	cfg.Seed = 1
	want := fingerprintRun(t, cfg, 1, 0, 4000)
	for _, nsh := range []int{2, 4} {
		// Window 50 (the cross-shard latency cap) makes the cancelled timer
		// and its canceller share a window far more often than the per-cycle
		// barrier did, stressing processing-time deadness reads.
		for _, win := range []int{1, 50} {
			if got := fingerprintRun(t, cfg, nsh, win, 4000); got != want {
				t.Errorf("shards=%d window=%d diverged from serial: got %+v, want %+v", nsh, win, got, want)
			}
		}
	}
}

// TestShardedWindowWidths: every legal barrier window width — per-cycle,
// partial, the derived default, and the cross-shard latency cap (wider
// requests clamp to it) — yields the bit-identical fingerprint. The
// window only changes how often the shards synchronize, never what they
// execute.
func TestShardedWindowWidths(t *testing.T) {
	for _, c := range []struct {
		name   string
		widths []int
		alg    string
	}{
		{"4x4-DimWAR", []int{4, 4}, "DimWAR"},
		{"2x2x2-OmniWAR", []int{2, 2, 2}, "OmniWAR"},
	} {
		c := c
		t.Run(c.name, func(t *testing.T) {
			cfg := Config{Widths: c.widths, Terms: 2, Algorithm: c.alg, Seed: 7}
			want := fingerprintRun(t, cfg, 1, 0, 2500)
			for _, win := range []int{1, 2, 5, 50, 1000} {
				if got := fingerprintRun(t, cfg, 4, win, 2500); got != want {
					t.Errorf("window=%d diverged from serial: got %+v, want %+v", win, got, want)
				}
			}
		})
	}
}

// TestShardedMatchesSerialFaulted: the detect-and-drop path (fxDrop
// staging, loss counters) and fault-aware rerouting stay bit-identical
// under sharding.
func TestShardedMatchesSerialFaulted(t *testing.T) {
	for _, alg := range []string{"DOR", "DimWAR"} {
		alg := alg
		t.Run(alg, func(t *testing.T) {
			cfg := Config{Widths: []int{4, 4}, Terms: 2, Algorithm: alg, Seed: 3, Faults: 4}
			want := fingerprintRun(t, cfg, 1, 0, 2500)
			if got := fingerprintRun(t, cfg, 4, 0, 2500); got != want {
				t.Errorf("faulted sharded run diverged from serial: got %+v, want %+v", got, want)
			}
			if got := fingerprintRun(t, cfg, 4, 50, 2500); got != want {
				t.Errorf("faulted windowed run diverged from serial: got %+v, want %+v", got, want)
			}
			if want.Hash == fingerprintRun(t, Config{Widths: []int{4, 4}, Terms: 2, Algorithm: alg, Seed: 3}, 1, 0, 2500).Hash {
				t.Error("faulted and pristine runs share a fingerprint; the fixture exercises no fault path")
			}
		})
	}
}

// TestShardedSnapshotRestoreResume: snapshot/restore composes with
// sharded execution — a warm snapshot resumed through the sharded
// executor, at each shard count of a sequence, is bit-identical to the
// same snapshot resumed serially. Repeated restores across shard counts
// pin that Restore resets every execution context's packet pool: a pool
// left threading through the restore arena hands out packets the next
// restore overwrites.
func TestShardedSnapshotRestoreResume(t *testing.T) {
	for _, tc := range []struct {
		load   float64
		shards []int
	}{
		{0.6, []int{2, 4}},
		{0.8, []int{2, 2, 4, 4}},
	} {
		t.Run(fmt.Sprintf("load=%.1f/shards=%v", tc.load, tc.shards), func(t *testing.T) {
			cfg := Config{Widths: []int{2, 2, 2}, Terms: 2, Algorithm: "DimWAR", Seed: 5}
			inst := MustBuild(cfg)
			defer inst.Close()
			pat, err := NewPattern("UR", inst.Topo)
			if err != nil {
				t.Fatal(err)
			}
			gen := &traffic.Generator{Net: inst.Net, Pattern: pat, Sizes: traffic.UniformSize{Min: 1, Max: 16}, Load: tc.load}
			gen.Start(inst.Cfg.Seed)
			inst.K.Run(1200)
			snap, err := inst.Snapshot(gen)
			if err != nil {
				t.Fatal(err)
			}

			resume := func(shards int) simFingerprint {
				if err := inst.Restore(snap, gen); err != nil {
					t.Fatal(err)
				}
				h := fnv.New64a()
				var buf [16]byte
				inst.K.TraceExec = func(at sim.Time, seq uint64) {
					binary.LittleEndian.PutUint64(buf[0:8], uint64(at))
					binary.LittleEndian.PutUint64(buf[8:16], seq)
					h.Write(buf[:])
				}
				if _, err := inst.runCtx(context.Background(), 3600, shards, 0); err != nil {
					t.Fatal(err)
				}
				inst.K.TraceExec = nil
				foldCounters(h, inst)
				return simFingerprint{Hash: h.Sum64(), Events: inst.K.Executed(), Now: inst.K.Now()}
			}

			want := resume(1)
			for _, nsh := range tc.shards {
				if got := resume(nsh); got != want {
					t.Errorf("restore-then-resume at shards=%d diverged from serial resume: got %+v, want %+v", nsh, got, want)
				}
			}
			// And back to serial after sharded runs: the executor must leave
			// no residual mode or pool state that perturbs a later serial
			// resume.
			if got := resume(1); got != want {
				t.Errorf("serial resume after sharded runs diverged: got %+v, want %+v", got, want)
			}
		})
	}
}

// TestShardedSteadyStateZeroAlloc: once pools and staging slabs are warm,
// sharded execution must not allocate per event — allocations per
// executor invocation are a small constant (worker goroutines, the work
// channel), independent of how many cycles the invocation simulates.
func TestShardedSteadyStateZeroAlloc(t *testing.T) {
	cfg := Config{Widths: []int{4, 4}, Terms: 2, Algorithm: "DimWAR", Seed: 1}
	inst := MustBuild(cfg)
	defer inst.Close()
	pat, err := NewPattern("UR", inst.Topo)
	if err != nil {
		t.Fatal(err)
	}
	gen := &traffic.Generator{Net: inst.Net, Pattern: pat, Sizes: traffic.UniformSize{Min: 1, Max: 16}, Load: 0.6}
	gen.Start(inst.Cfg.Seed)
	// Warm pools, queue capacities, and shard staging slabs to their
	// high-water marks through the sharded path itself.
	if _, err := inst.runCtx(context.Background(), 100000, 4, 0); err != nil {
		t.Fatal(err)
	}
	measure := func(cycles sim.Time) float64 {
		return testing.AllocsPerRun(10, func() {
			if _, err := inst.runCtx(context.Background(), inst.K.Now()+cycles, 4, 0); err != nil {
				t.Fatal(err)
			}
		})
	}
	short, long := measure(200), measure(2000)
	// 10x the simulated work must not change the per-invocation alloc
	// count: every allocation belongs to executor setup, none to events.
	if long > short+1 {
		t.Errorf("sharded execution allocates per event: %.1f allocs for 200-cycle runs vs %.1f for 2000-cycle runs", short, long)
	}
	if short > 32 {
		t.Errorf("sharded executor setup allocates %.1f objects per invocation, want a small constant (<= 32)", short)
	}
}

// TestShardsExcludedFromCheckpointKey: the cross-mode cache contract. A
// checkpoint store populated by a serial sweep must serve a sharded rerun
// entirely from cache (and return identical curves) — possible only
// because results are bit-identical across shard counts and optsKey
// deliberately omits Shards.
func TestShardsExcludedFromCheckpointKey(t *testing.T) {
	if testing.Short() {
		t.Skip("steady-state simulations")
	}
	cfg := Config{Widths: []int{4, 4}, Terms: 2, Seed: 1}
	opts := RunOpts{Warmup: 1000, Window: 1000}
	loads := []float64{0.2, 0.4}
	dir := t.TempDir()

	serial, _, err := RunLoadSweepParallel(context.Background(), cfg,
		[]string{"UR"}, []string{"DimWAR"}, loads, opts, SweepOpts{Workers: 2, CheckpointDir: dir})
	if err != nil {
		t.Fatal(err)
	}

	shOpts := opts
	shOpts.Shards = 4
	sharded, mani, err := RunLoadSweepParallel(context.Background(), cfg,
		[]string{"UR"}, []string{"DimWAR"}, loads, shOpts, SweepOpts{Workers: 2, CheckpointDir: dir})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(sharded, serial) {
		t.Errorf("sharded rerun diverged from serial-written cache:\ngot:  %+v\nwant: %+v", sharded, serial)
	}
	if mani.Provenance == nil || mani.Provenance.CachedJobs == 0 {
		t.Errorf("sharded rerun recomputed despite a serial-written cache (provenance %+v); Shards leaked into the checkpoint key", mani.Provenance)
	}
}

// TestShardedSweepMatchesSerialSweep: the end-to-end facade claim — a
// full measured load point (latency percentiles, accepted throughput,
// saturation flag, stats counters) is identical with and without shards.
func TestShardedSweepMatchesSerialSweep(t *testing.T) {
	if testing.Short() {
		t.Skip("steady-state simulations")
	}
	cfg := Config{Widths: []int{2, 2, 2}, Terms: 2, Algorithm: "DimWAR", Seed: 1}
	opts := RunOpts{Warmup: 1500, Window: 1500}
	want, wantSt, err := runLoadPointCtx(context.Background(), cfg, "UR", 0.5, opts)
	if err != nil {
		t.Fatal(err)
	}
	shOpts := opts
	shOpts.Shards = 4
	got, gotSt, err := runLoadPointCtx(context.Background(), cfg, "UR", 0.5, shOpts)
	if err != nil {
		t.Fatal(err)
	}
	if got != want || gotSt != wantSt {
		t.Errorf("sharded load point diverged from serial:\ngot:  %+v / %+v\nwant: %+v / %+v", got, gotSt, want, wantSt)
	}
}

// assembleJobs runs hand-built harness results through the runner's
// collect-and-assemble tail for a normalized experiment.
func assembleJobs(t *testing.T, x *Experiment, rr *harness.RunResult) (Result, error) {
	t.Helper()
	if err := x.Normalize(); err != nil {
		t.Fatal(err)
	}
	p := x.plan()
	vals, err := cellValues(x, p, rr)
	if err != nil {
		return Result{}, err
	}
	return p.assemble(x, vals)
}

// TestGridIncompleteCellError: regression for a not-Done grid cell
// silently surviving as Values[pi][ai] == 0.0 — assembly must fail
// loudly, naming the cell.
func TestGridIncompleteCellError(t *testing.T) {
	x := &Experiment{Kind: "throughput", Patterns: []string{"UR"}, Algorithms: []string{"DOR", "DimWAR"}}
	rr := &harness.RunResult{Jobs: []harness.JobResult{
		{Job: harness.Job{Curve: 0, Label: "UR/DOR@1.000"}, Done: true, Outcome: harness.Outcome{Value: 0.42}},
		{Job: harness.Job{Curve: 1, Label: "UR/DimWAR@1.000"}, Done: false},
	}}
	res, err := assembleJobs(t, x, rr)
	if err == nil {
		t.Fatalf("incomplete cell assembled without error: %+v", res.Grid)
	}
	if want := "UR/DimWAR"; !strings.Contains(err.Error(), want) {
		t.Errorf("error %q does not name the missing cell %q", err, want)
	}
	rr.Jobs[1].Done = true
	rr.Jobs[1].Outcome = harness.Outcome{Value: 0.9}
	res, err = assembleJobs(t, x, rr)
	if err != nil {
		t.Fatal(err)
	}
	if grid := res.Grid; len(grid.Values) != 1 || len(grid.Values[0]) != 2 || grid.Values[0][0] != 0.42 || grid.Values[0][1] != 0.9 {
		t.Errorf("assembled grid %+v, want [[0.42 0.9]]", grid.Values)
	}
}

// TestResilienceIncompleteCellError: regression for a not-Done resilience
// cell being silently skipped, quietly shortening a degradation curve.
func TestResilienceIncompleteCellError(t *testing.T) {
	x := &Experiment{Kind: "resilience", Config: Config{Widths: []int{4, 4}, Terms: 2},
		Algorithms: []string{"DimWAR"}, MaxFaults: 1, Load: 0.3}
	pt := LoadPoint{Load: 0.3, Delivered: 10}
	rr := &harness.RunResult{Jobs: []harness.JobResult{
		{Job: harness.Job{Curve: 0, Point: 0, Label: "UR/DimWAR@0.30 k=0"}, Done: true, Outcome: harness.Outcome{Value: pt}},
		{Job: harness.Job{Curve: 0, Point: 1, Label: "UR/DimWAR@0.30 k=1"}, Done: false},
	}}
	res, err := assembleJobs(t, x, rr)
	if err == nil {
		t.Fatalf("incomplete cell assembled without error: %+v", res.Points)
	}
	if want := "DimWAR@0.30 k=1"; !strings.Contains(err.Error(), want) {
		t.Errorf("error %q does not name the missing cell %q", err, want)
	}
	rr.Jobs[1].Done = true
	rr.Jobs[1].Outcome = harness.Outcome{Value: pt}
	res, err = assembleJobs(t, x, rr)
	if err != nil {
		t.Fatal(err)
	}
	if pts := res.Points; len(pts) != 2 || pts[1].Faults != 1 || len(pts[1].FaultSet) != 1 {
		t.Errorf("assembled points %+v, want two cells with the k=1 fault set attached", pts)
	}
}
