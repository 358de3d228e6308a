package hyperx

import (
	"context"
	"encoding/json"
	"os"
	"reflect"
	"strings"
	"testing"

	"hyperx/internal/harness"
)

// TestCheckpointStoreRoundTrip: basic store semantics — a saved value
// loads back equal, an absent key is a clean miss, and a filename hash
// collision with a different key is also a clean miss (the stored full
// key disambiguates), never a wrong answer.
func TestCheckpointStoreRoundTrip(t *testing.T) {
	store, err := OpenCheckpointDir(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	want := pointRecord{
		Point: LoadPoint{Load: 0.3, Mean: 123.5, Accepted: 0.299, Samples: 777, Delivered: 901},
		Stats: simStats{Cycles: 40000, Events: 123456, Delivered: 901},
	}
	const key = "point|test|roundtrip"
	var got pointRecord
	if ok, err := store.Load(key, &got); err != nil || ok {
		t.Fatalf("Load before Save = (%v, %v), want clean miss", ok, err)
	}
	if err := store.Save(key, want); err != nil {
		t.Fatal(err)
	}
	if ok, err := store.Load(key, &got); err != nil || !ok {
		t.Fatalf("Load after Save = (%v, %v), want hit", ok, err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("round trip changed the record:\ngot:  %+v\nwant: %+v", got, want)
	}

	// Forge a collision: a file at key's path whose stored key differs.
	env, _ := json.Marshal(checkpointFile{Version: checkpointVersion, Key: "point|other|experiment"})
	if err := os.WriteFile(store.path(key), env, 0o644); err != nil {
		t.Fatal(err)
	}
	if ok, err := store.Load(key, &got); err != nil || ok {
		t.Errorf("Load against a colliding file = (%v, %v), want clean miss", ok, err)
	}
}

// TestCheckpointStoreRejectsDamage: a damaged checkpoint must surface as
// an explicit error — never a silent recompute (the operator decides
// whether to delete it) and never a parsed-anyway wrong result.
func TestCheckpointStoreRejectsDamage(t *testing.T) {
	const key = "point|test|damage"
	newStore := func() *CheckpointStore {
		store, err := OpenCheckpointDir(t.TempDir())
		if err != nil {
			t.Fatal(err)
		}
		if err := store.Save(key, pointRecord{Point: LoadPoint{Load: 0.5}}); err != nil {
			t.Fatal(err)
		}
		return store
	}

	cases := []struct {
		name    string
		damage  func(t *testing.T, path string)
		wantErr string
	}{
		{"garbage", func(t *testing.T, path string) {
			if err := os.WriteFile(path, []byte("not json at all{{{"), 0o644); err != nil {
				t.Fatal(err)
			}
		}, "corrupt or truncated"},
		{"truncated", func(t *testing.T, path string) {
			b, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(path, b[:len(b)/2], 0o644); err != nil {
				t.Fatal(err)
			}
		}, "corrupt or truncated"},
		{"version-mismatch", func(t *testing.T, path string) {
			env, _ := json.Marshal(checkpointFile{Version: checkpointVersion + 1, Key: key, Payload: []byte("{}")})
			if err := os.WriteFile(path, env, 0o644); err != nil {
				t.Fatal(err)
			}
		}, "format version"},
		{"payload-corruption", func(t *testing.T, path string) {
			b, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			// Flip one payload byte; the envelope still parses but the
			// CRC no longer matches.
			i := strings.Index(string(b), `"Load":0.5`)
			if i < 0 {
				t.Fatalf("payload marker not found in %s", b)
			}
			b[i+len(`"Load":0.`)] = '6'
			if err := os.WriteFile(path, b, 0o644); err != nil {
				t.Fatal(err)
			}
		}, "checksum"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			store := newStore()
			c.damage(t, store.path(key))
			var rec pointRecord
			ok, err := store.Load(key, &rec)
			if err == nil || !strings.Contains(err.Error(), c.wantErr) {
				t.Errorf("Load = (%v, %v), want error containing %q", ok, err, c.wantErr)
			}
		})
	}
}

// openStore opens the checkpoint store in dir, failing the test on error.
func openStore(t *testing.T, dir string) *CheckpointStore {
	t.Helper()
	store, err := OpenCheckpointDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	return store
}

// TestSweepCheckpointResume: one driver, every kind. Each execution plan
// runs three ways — no store, a fresh store, the populated store with a
// shared Flight — and must return identical results each time, record
// the store in the provenance block, serve the third run entirely from
// cache (cached_jobs == completed, no new computation), and put every
// distinct cell through the Flight exactly once. One worker keeps the
// cold plan's speculation out of the counts: what completes is then
// exactly the cells at or below each curve's first saturation. Cold,
// forked, throughput and resilience sweeps used to carry four copies of
// this plumbing (two of which once ignored the store); the last
// subtest is the kill-and-resume acceptance claim on the cold sweep.
func TestSweepCheckpointResume(t *testing.T) {
	if testing.Short() {
		t.Skip("steady-state simulations")
	}
	cfg := Config{Widths: []int{4, 4}, Terms: 4, Seed: 1} // VAL saturates at 0.75: early stop has work to do
	opts := RunOpts{Warmup: 1000, Window: 1000}
	sweep := func(fork *ForkOpts) Experiment {
		return Experiment{Kind: "sweep", Config: cfg, Patterns: []string{"UR"}, Algorithms: []string{"DOR", "VAL"},
			Loads: LoadRange(0.25), Opts: opts, Fork: fork}
	}
	cases := []struct {
		name   string
		exp    Experiment
		mode   string // provenance mode
		cells  int    // jobs that must complete; 0 = early stop decides
		faults int    // links the manifest must list
	}{
		{"cold", sweep(nil), "cold", 0, 0},
		{"warm-fork", sweep(&ForkOpts{WarmCycles: 2000, WarmLoad: 0.3, Settle: 250}), "warm-fork", 2, 0},
		{"throughput", Experiment{Kind: "throughput", Config: cfg, Patterns: []string{"UR", "BC"},
			Algorithms: []string{"DOR", "DimWAR"}, Opts: opts}, "cold", 4, 0},
		{"resilience", Experiment{Kind: "resilience", Config: cfg, Algorithms: []string{"DOR", "DimWAR"},
			MaxFaults: 2, Load: 0.3, Opts: opts}, "cold", 6, 2},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			run := func(po SweepOpts) (Result, *Manifest) {
				po.Workers = 1
				res, mani, err := tc.exp.Run(context.Background(), po)
				if err != nil {
					t.Fatal(err)
				}
				if tc.cells != 0 && mani.Completed != tc.cells {
					t.Errorf("%d jobs completed, want %d", mani.Completed, tc.cells)
				}
				if tc.cells == 0 && mani.Cancelled == 0 {
					t.Error("no curve early-stopped; the cold row needs a grid that saturates")
				}
				if len(mani.Faults) != tc.faults {
					t.Errorf("manifest lists %d faults, want %d; fault stamping must not depend on recomputation", len(mani.Faults), tc.faults)
				}
				return res, mani
			}
			want, mani0 := run(SweepOpts{})
			if cold := tc.mode == "cold"; cold != (mani0.Provenance == nil) {
				t.Errorf("store-less run provenance %+v; only fork modes record one", mani0.Provenance)
			}

			dir := t.TempDir()
			flight := harness.NewFlight()
			fresh, mani1 := run(SweepOpts{Store: openStore(t, dir), Flight: flight})
			if !reflect.DeepEqual(fresh, want) {
				t.Errorf("run against a fresh store diverged from the store-less run:\ngot:  %+v\nwant: %+v", fresh, want)
			}
			if p := mani1.Provenance; p == nil || p.Mode != tc.mode || p.ResumedFrom != dir || p.CachedJobs != 0 {
				t.Errorf("fresh-store provenance %+v, want mode %q, store %q, nothing cached", p, tc.mode, dir)
			}
			computes := flight.Computes()
			if computes != uint64(mani1.Completed) {
				t.Errorf("flight ran %d computations for %d completed cells; every cell must go through it once", computes, mani1.Completed)
			}

			again, mani2 := run(SweepOpts{Store: openStore(t, dir), Flight: flight})
			if !reflect.DeepEqual(again, want) {
				t.Errorf("fully cached run diverged from the store-less run:\ngot:  %+v\nwant: %+v", again, want)
			}
			if p := mani2.Provenance; p == nil || p.CachedJobs != mani2.Completed || mani2.Completed != mani1.Completed {
				t.Errorf("rerun provenance %+v with %d completed, want all %d cells served from the store", p, mani2.Completed, mani1.Completed)
			}
			if flight.Computes() != computes {
				t.Errorf("rerun against the populated store computed %d more cells", flight.Computes()-computes)
			}
			for _, rec := range mani2.Jobs {
				if rec.Cached && rec.Status != "done" {
					t.Errorf("cached job %s has status %q, want done", rec.Label, rec.Status)
				}
			}
		})
	}

	t.Run("cold-killed", func(t *testing.T) {
		exp := sweep(nil)
		want, _, err := exp.Run(context.Background(), SweepOpts{Workers: 2})
		if err != nil {
			t.Fatal(err)
		}
		dir := t.TempDir()
		// "Kill" a run partway: cancel the context as soon as the first job
		// completes. Completed points are already persisted (saves happen
		// inside the job, before the outcome is reported).
		ctx, cancel := context.WithCancel(context.Background())
		_, _, err = exp.Run(ctx, SweepOpts{Workers: 2, Store: openStore(t, dir), OnEvent: func(harness.Event) { cancel() }})
		if err == nil {
			t.Fatal("interrupted sweep reported success; cancellation did not take")
		}
		files, err := os.ReadDir(dir)
		if err != nil {
			t.Fatal(err)
		}
		if len(files) == 0 {
			t.Fatal("interrupted sweep persisted nothing; resume has nothing to serve")
		}

		got, mani, err := exp.Run(context.Background(), SweepOpts{Workers: 2, Store: openStore(t, dir)})
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("resumed sweep diverged from uninterrupted run:\ngot:  %+v\nwant: %+v", got, want)
		}
		if mani.Provenance == nil || mani.Provenance.ResumedFrom != dir || mani.Provenance.CachedJobs == 0 {
			t.Fatalf("resume provenance %+v, want cached jobs served from %q", mani.Provenance, dir)
		}
		cached := 0
		for _, rec := range mani.Jobs {
			if rec.Cached {
				cached++
			}
		}
		if cached != mani.Provenance.CachedJobs {
			t.Errorf("provenance counts %d cached jobs, job records mark %d", mani.Provenance.CachedJobs, cached)
		}
	})
}

// TestSweepSurfacesCorruptCheckpoint: a damaged checkpoint file fails
// the sweep with an explicit, actionable error instead of silently
// recomputing or — worse — feeding garbage into the CSV.
func TestSweepSurfacesCorruptCheckpoint(t *testing.T) {
	if testing.Short() {
		t.Skip("steady-state simulations")
	}
	opts := RunOpts{Warmup: 1000, Window: 1000}
	loads := []float64{0.2}
	cfg := Config{Widths: []int{4, 4}, Terms: 2, Seed: 1}
	dir := t.TempDir()
	store, err := OpenCheckpointDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	// Plant garbage exactly where the sweep's one job will look.
	ccfg := cfg.withDefaults()
	ccfg.Algorithm = "DOR"
	key := pointKey(ccfg, "UR", loads[0], opts.withDefaults())
	if err := os.WriteFile(store.path(key), []byte("garbage"), 0o644); err != nil {
		t.Fatal(err)
	}
	_, _, err = RunLoadSweepParallel(context.Background(), cfg,
		[]string{"UR"}, []string{"DOR"}, loads, opts, SweepOpts{Store: store})
	if err == nil || !strings.Contains(err.Error(), "corrupt or truncated") {
		t.Errorf("sweep over a corrupt checkpoint returned %v, want an explicit corruption error", err)
	}
}
