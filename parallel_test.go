package hyperx

import (
	"context"
	"encoding/json"
	"math"
	"reflect"
	"strings"
	"testing"
)

// TestLoadRangeExact: grid points are generated as i*step, so they carry
// no accumulated float error — index i is exactly (i+1)*step and every
// standard step lands exactly on 1.0 at the top.
func TestLoadRangeExact(t *testing.T) {
	for _, step := range []float64{0.02, 0.05, 0.1, 0.2, 0.25} {
		r := LoadRange(step)
		for i, l := range r {
			if want := float64(i+1) * step; l != want {
				t.Errorf("LoadRange(%v)[%d] = %v, want exactly %v", step, i, l, want)
			}
		}
		if last := r[len(r)-1]; last != 1.0 {
			t.Errorf("LoadRange(%v) endpoint = %v, want exactly 1.0", step, last)
		}
	}
	// A step the loop cannot terminate on is an empty grid, not an
	// out-of-memory crash (hxsweep -step 0 used to die that way).
	for _, step := range []float64{0, -0.1, math.NaN(), math.Inf(-1)} {
		if r := LoadRange(step); r != nil {
			t.Errorf("LoadRange(%v) = %d points, want nil", step, len(r))
		}
	}
}

// TestRunLoadSweepParallelMatchesSerial: the tentpole determinism claim —
// for multiple worker counts and seeds, the parallel sweep is
// byte-identical to the serial RunLoadSweep, including where the curve
// ends (early stop at first saturation).
func TestRunLoadSweepParallelMatchesSerial(t *testing.T) {
	if testing.Short() {
		t.Skip("steady-state simulations")
	}
	opts := RunOpts{Warmup: 1500, Window: 1500}
	loads := LoadRange(0.2)
	const pattern, alg = "UR", "VAL" // VAL saturates ~0.5: exercises early stop

	serial := make(map[uint64][]LoadPoint)
	for _, seed := range []uint64{1, 9} {
		cfg := DefaultScale()
		cfg.Algorithm = alg
		cfg.Seed = seed
		pts, err := RunLoadSweep(cfg, pattern, loads, opts)
		if err != nil {
			t.Fatal(err)
		}
		if len(pts) == 0 || len(pts) == len(loads) && !pts[len(pts)-1].Saturated {
			t.Fatalf("seed %d: want a curve ending in saturation to exercise early stop, got %+v", seed, pts)
		}
		serial[seed] = pts
	}

	cases := []struct {
		workers int
		seed    uint64
	}{
		{2, 1}, {5, 1}, {2, 9}, {5, 9},
	}
	for _, c := range cases {
		cfg := DefaultScale()
		cfg.Seed = c.seed
		curves, mani, err := RunLoadSweepParallel(context.Background(), cfg,
			[]string{pattern}, []string{alg}, loads, opts, SweepOpts{Workers: c.workers})
		if err != nil {
			t.Fatalf("workers=%d seed=%d: %v", c.workers, c.seed, err)
		}
		if len(curves) != 1 || curves[0].Pattern != pattern || curves[0].Algorithm != alg {
			t.Fatalf("workers=%d seed=%d: unexpected curves %+v", c.workers, c.seed, curves)
		}
		if !reflect.DeepEqual(curves[0].Points, serial[c.seed]) {
			t.Errorf("workers=%d seed=%d: parallel diverged from serial:\nparallel: %s\nserial:   %s",
				c.workers, c.seed, FormatLoadPoints(curves[0].Points), FormatLoadPoints(serial[c.seed]))
		}
		if mani == nil || mani.Workers != c.workers || mani.Completed == 0 {
			t.Errorf("workers=%d seed=%d: manifest missing or empty: %+v", c.workers, c.seed, mani)
		}
	}
}

// TestParallelCancellationPreservesPreSaturation: with one worker per
// point every load runs concurrently, so the deep-saturated high loads
// are cancelled mid-flight once the true saturation point confirms — and
// the curve must still contain every point up to and including it,
// matching serial exactly. The manifest must show every pre-saturation
// point as completed, never cancelled.
func TestParallelCancellationPreservesPreSaturation(t *testing.T) {
	if testing.Short() {
		t.Skip("steady-state simulations")
	}
	opts := RunOpts{Warmup: 1500, Window: 1500}
	loads := LoadRange(0.2)
	cfg := DefaultScale()
	cfg.Algorithm = "VAL"
	serial, err := RunLoadSweep(cfg, "UR", loads, opts)
	if err != nil {
		t.Fatal(err)
	}

	curves, mani, err := RunLoadSweepParallel(context.Background(), DefaultScale(),
		[]string{"UR"}, []string{"VAL"}, loads, opts, SweepOpts{Workers: len(loads)})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(curves[0].Points, serial) {
		t.Errorf("cancellation dropped or altered a pre-saturation point:\nparallel: %s\nserial:   %s",
			FormatLoadPoints(curves[0].Points), FormatLoadPoints(serial))
	}
	satIdx := len(serial) - 1
	for _, rec := range mani.Jobs {
		if rec.Point <= satIdx && rec.Status != "done" {
			t.Errorf("pre-saturation point %d has status %q, want done", rec.Point, rec.Status)
		}
		if rec.Status == "done" && (rec.WallSeconds <= 0 || rec.Events == 0) {
			t.Errorf("job record lacks observability data: %+v", rec)
		}
	}
}

// TestRunThroughputGridMatchesSerial: every grid cell equals the serial
// RunThroughput measurement for the same configuration and seed.
func TestRunThroughputGridMatchesSerial(t *testing.T) {
	if testing.Short() {
		t.Skip("steady-state simulations")
	}
	opts := RunOpts{Warmup: 1500, Window: 1500}
	patterns, algs := []string{"UR"}, []string{"DOR", "VAL"}
	grid, mani, err := RunThroughputGrid(context.Background(), DefaultScale(), patterns, algs, opts, SweepOpts{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	for pi, pat := range patterns {
		for ai, alg := range algs {
			cfg := DefaultScale()
			cfg.Algorithm = alg
			want, err := RunThroughput(cfg, pat, opts)
			if err != nil {
				t.Fatal(err)
			}
			if got := grid.Values[pi][ai]; got != want {
				t.Errorf("%s/%s: grid %.6f != serial %.6f", pat, alg, got, want)
			}
		}
	}
	if mani.Completed != len(patterns)*len(algs) {
		t.Errorf("manifest completed = %d, want %d", mani.Completed, len(patterns)*len(algs))
	}
}

// TestParallelSweepUnknownAlgorithm: a bad name fails the run with a
// labelled error instead of hanging the pool.
func TestParallelSweepUnknownAlgorithm(t *testing.T) {
	_, _, err := RunLoadSweepParallel(context.Background(), DefaultScale(),
		[]string{"UR"}, []string{"bogus"}, []float64{0.1}, RunOpts{Warmup: 100, Window: 100}, SweepOpts{})
	if err == nil {
		t.Fatal("unknown algorithm did not error")
	}
}

// TestFacadeWrappersValidate: the exported wrappers run through
// Experiment.Normalize, so what the CLI and the daemon reject they reject
// too — as an error, before any simulation. A negative maxFaults used to
// panic in make (<= -2) or return an empty result with no error (-1).
func TestFacadeWrappersValidate(t *testing.T) {
	ctx, cfg, opts := context.Background(), DefaultScale(), RunOpts{Warmup: 100, Window: 100}
	for _, k := range []int{-2, -1, 0} {
		pts, _, err := RunResilienceSweep(ctx, cfg, "UR", []string{"DOR"}, k, 0.3, opts, SweepOpts{})
		if err == nil || !strings.Contains(err.Error(), "max_faults >= 1") {
			t.Errorf("RunResilienceSweep(maxFaults=%d) = (%d points, %v), want the max_faults error", k, len(pts), err)
		}
	}
	if _, _, err := RunThroughputGrid(ctx, cfg, []string{"UR"}, []string{"DOR"}, opts, SweepOpts{Fork: &ForkOpts{}}); err == nil || !strings.Contains(err.Error(), "kind sweep only") {
		t.Errorf("RunThroughputGrid with SweepOpts.Fork = %v, want the fork-applies-to-sweep error", err)
	}
	if _, _, err := RunLoadSweepParallel(ctx, cfg, []string{"UR"}, []string{"DOR"}, []float64{0.1, -0.2}, opts, SweepOpts{}); err == nil || !strings.Contains(err.Error(), "loads must be positive") {
		t.Errorf("RunLoadSweepParallel with a negative load = %v, want the loads error", err)
	}
}

// TestNormalizeWidths: Normalize accepts a width of 2 and rejects
// anything narrower with a message, before any simulation. A width of 1
// used to pass Normalize and fail inside its job, at build time, so
// hxserved accepted a request it should have answered 400.
func TestNormalizeWidths(t *testing.T) {
	for _, row := range []struct {
		widths []int
		ok     bool
	}{
		{[]int{2, 2}, true},
		{[]int{1, 4}, false},
		{[]int{4, 1}, false},
		{[]int{0, 4}, false},
		{[]int{4, -4}, false},
	} {
		x := Experiment{Config: Config{Widths: row.widths}}
		err := x.Normalize()
		if row.ok != (err == nil) {
			t.Errorf("widths %v: Normalize = %v, want ok=%v", row.widths, err, row.ok)
		} else if err != nil && !strings.Contains(err.Error(), "widths must be at least 2") {
			t.Errorf("widths %v: Normalize = %v, want the width message", row.widths, err)
		}
	}
}

// TestNormalizeFork: a fork without warmup is the cold sweep. The zero
// fork normalizes to no fork at all; one that sets only WarmLoad or
// Settle names nothing a run could do differently and is rejected; a
// warm fork passes through unchanged.
func TestNormalizeFork(t *testing.T) {
	warm := ForkOpts{WarmCycles: 500, WarmLoad: 0.3, Settle: 10}
	for _, row := range []struct {
		name string
		fork *ForkOpts
		want *ForkOpts // the normalized fork; unused when err is set
		err  string
	}{
		{"zero", &ForkOpts{}, nil, ""},
		{"warm_load_only", &ForkOpts{WarmLoad: 0.3}, nil, "apply only with WarmCycles > 0"},
		{"settle_only", &ForkOpts{Settle: 10}, nil, "apply only with WarmCycles > 0"},
		{"warm", &warm, &warm, ""},
	} {
		t.Run(row.name, func(t *testing.T) {
			x := Experiment{Config: Config{Widths: []int{2, 2}}, Fork: row.fork}
			err := x.Normalize()
			switch {
			case row.err != "":
				if err == nil || !strings.Contains(err.Error(), row.err) {
					t.Errorf("Normalize = %v, want an error containing %q", err, row.err)
				}
			case err != nil:
				t.Errorf("Normalize = %v, want ok", err)
			case !reflect.DeepEqual(x.Fork, row.want):
				t.Errorf("normalized fork %+v, want %+v", x.Fork, row.want)
			}
		})
	}
}

// FuzzExperimentNormalize feeds hostile request bodies — the bytes
// hxserved decodes a POST into — through Normalize. It must never panic;
// a second Normalize must change nothing, key included; and an accepted
// experiment must enumerate at most one curve per known (pattern,
// algorithm) pair, of at most maxCurvePoints cells each, so Key and Run
// stay bounded by what the body means, not by its length.
func FuzzExperimentNormalize(f *testing.F) {
	f.Add([]byte(`{}`))
	f.Add([]byte(`{"kind": "throughput", "patterns": ["UR", "BC"]}`))
	f.Add([]byte(`{"kind": "resilience", "max_faults": 3, "load": 0.4}`))
	f.Add([]byte(`{"fork": {"WarmCycles": 500}, "loads": [0.1, 0.5]}`))
	f.Fuzz(func(t *testing.T, body []byte) {
		var e Experiment
		if json.Unmarshal(body, &e) != nil || e.Normalize() != nil {
			return
		}
		once := e // Normalize replaces fields, never writes through them
		key := e.Key()
		if err := e.Normalize(); err != nil {
			t.Fatalf("second Normalize rejected the normalized %+v: %v", once, err)
		}
		if !reflect.DeepEqual(e, once) || e.Key() != key {
			t.Fatalf("Normalize is not idempotent: %+v became %+v", once, e)
		}
		curves := len(e.Patterns) * len(e.Algorithms)
		if curves > len(Patterns)*len(Algorithms) {
			t.Fatalf("%d curves, more than the %d patterns × %d algorithms there are", curves, len(Patterns), len(Algorithms))
		}
		cells := make([]int, curves)
		x := e.defaulted()
		x.eachCell(x.plan(), func(c cell) { cells[c.curve]++ })
		for curve, n := range cells {
			if n > maxCurvePoints {
				t.Fatalf("curve %d has %d cells, more than %d", curve, n, maxCurvePoints)
			}
		}
	})
}
