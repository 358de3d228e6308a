package hyperx

import (
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"os"
	"reflect"
	"testing"

	"hyperx/internal/traffic"
)

var updateWarmFork = flag.Bool("update-warmfork", false, "rewrite testdata/golden_warmfork.json from the current simulator")

// TestWarmForkMatchesCold: a zero fork is the cold sweep. A fork with no
// shared warmup could only rewind to the post-Build state before each
// cold point, so Normalize drops it: passed through SweepOpts.Fork (as
// the served benchmark does) it yields the cold CSV bytes, the cold Key
// and no fork provenance. VAL saturates partway up the grid, so the
// curves also exercise the truncation rule.
func TestWarmForkMatchesCold(t *testing.T) {
	if testing.Short() {
		t.Skip("steady-state simulations")
	}
	opts := RunOpts{Warmup: 1500, Window: 1500}
	loads := LoadRange(0.2)
	patterns, algs := []string{"UR"}, []string{"DOR", "VAL"}
	cfg := DefaultScale()

	cold, coldMani, err := RunLoadSweepParallel(context.Background(), cfg,
		patterns, algs, loads, opts, SweepOpts{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	if coldMani.Provenance != nil {
		t.Errorf("plain cold sweep stamped provenance %+v, want nil (historical manifest shape)", coldMani.Provenance)
	}

	forked, mani, err := RunLoadSweepParallel(context.Background(), cfg,
		patterns, algs, loads, opts, SweepOpts{Workers: 2, Fork: &ForkOpts{}})
	if err != nil {
		t.Fatal(err)
	}
	var coldCSV, forkedCSV bytes.Buffer
	if err := WriteSweepCSV(&coldCSV, cold); err != nil {
		t.Fatal(err)
	}
	if err := WriteSweepCSV(&forkedCSV, forked); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(forkedCSV.Bytes(), coldCSV.Bytes()) {
		t.Fatalf("zero-fork CSV diverged from the cold sweep:\nforked:\n%s\ncold:\n%s", forkedCSV.Bytes(), coldCSV.Bytes())
	}
	if mani.Provenance != nil {
		t.Errorf("zero-fork sweep stamped provenance %+v, want nil like the cold sweep", mani.Provenance)
	}

	key := func(fork *ForkOpts) string {
		x := Experiment{Config: cfg, Patterns: patterns, Algorithms: algs, Loads: loads, Opts: opts, Fork: fork}
		if err := x.Normalize(); err != nil {
			t.Fatal(err)
		}
		return x.Key()
	}
	if k0, kc := key(&ForkOpts{}), key(nil); k0 != kc {
		t.Errorf("zero-fork key differs from the cold key:\n%s\n%s", k0, kc)
	}
}

// warmForkScenario runs the fixed mode-2 (warm-fork) scenario the golden
// file pins: a small [4,4] t=2 network, one shared 2000-cycle warmup at
// load 0.3, forked across a coarse load grid.
func warmForkScenario(t *testing.T) ([]Curve, *Manifest) {
	t.Helper()
	cfg := Config{Widths: []int{4, 4}, Terms: 2, Algorithm: "DimWAR", Seed: 1}
	opts := RunOpts{Warmup: 1000, Window: 1000}
	curves, mani, err := RunLoadSweepParallel(context.Background(), cfg,
		[]string{"UR"}, []string{"DOR", "DimWAR"}, LoadRange(0.2), opts,
		SweepOpts{Workers: 2, Fork: &ForkOpts{WarmCycles: 2000, WarmLoad: 0.3, Settle: 250}})
	if err != nil {
		t.Fatal(err)
	}
	return curves, mani
}

// TestWarmForkGolden: warm forking (WarmCycles > 0) is a distinct
// deterministic methodology — not byte-comparable to cold runs, but the
// same seed must yield the same curves on every run and every machine.
// The curves are pinned in testdata/golden_warmfork.json; regenerate with
//
//	go test -run TestWarmForkGolden -update-warmfork .
//
// only when an intentional behaviour change alters the results.
func TestWarmForkGolden(t *testing.T) {
	if testing.Short() {
		t.Skip("steady-state simulations")
	}
	const goldenFile = "testdata/golden_warmfork.json"
	curves, mani := warmForkScenario(t)
	if mani.Provenance == nil || mani.Provenance.Mode != "warm-fork" {
		t.Errorf("provenance = %+v, want mode warm-fork", mani.Provenance)
	} else if p := mani.Provenance; p.ForkCycles != 2000 || p.ForkLoad != 0.3 || p.ForkSettle != 250 || p.WarmSeed != 1 {
		t.Errorf("provenance fork parameters %+v do not record the requested methodology", p)
	}
	got, err := json.MarshalIndent(curves, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	got = append(got, '\n')

	if *updateWarmFork {
		if err := os.WriteFile(goldenFile, got, 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("rewrote %s", goldenFile)
		return
	}
	want, err := os.ReadFile(goldenFile)
	if err != nil {
		t.Fatalf("%v (run with -update-warmfork to create it)", err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("warm-fork curves diverged from %s:\ngot:\n%s\nwant:\n%s", goldenFile, got, want)
	}

	// Same run again: the methodology must be internally deterministic
	// independent of the pinned file.
	again, _ := warmForkScenario(t)
	if !reflect.DeepEqual(again, curves) {
		t.Error("two identical warm-fork sweeps in one process diverged")
	}
}

// TestSnapshotRestoreAcrossInstances: the facade-level relocatability
// contract — a SimState captured mid-run on one instance, serialized
// through JSON (the checkpoint wire format), restores into a freshly
// built instance and resumes to the exact same delivery counters the
// donor reaches.
func TestSnapshotRestoreAcrossInstances(t *testing.T) {
	if testing.Short() {
		t.Skip("steady-state simulations")
	}
	cfg := Config{Widths: []int{4, 4}, Terms: 2, Algorithm: "DimWAR", Seed: 3}
	buildDriven := func() (*Instance, *traffic.Generator) {
		inst := MustBuild(cfg)
		pat, err := NewPattern("UR", inst.Topo)
		if err != nil {
			t.Fatal(err)
		}
		gen := &traffic.Generator{
			Net:     inst.Net,
			Pattern: pat,
			Sizes:   traffic.UniformSize{Min: 1, Max: 16},
			Load:    0.4,
		}
		gen.Start(inst.Cfg.Seed)
		return inst, gen
	}

	donor, donorGen := buildDriven()
	donor.K.Run(1200) // mid-run fork point with traffic in flight
	s, err := donor.Snapshot(donorGen)
	if err != nil {
		t.Fatal(err)
	}
	wire, err := json.Marshal(s)
	if err != nil {
		t.Fatal(err)
	}
	donor.K.Run(donor.K.Now() + 3000)
	wantDelivered, wantEvents := donor.Net.DeliveredPackets, donor.K.Executed()
	if wantDelivered == 0 {
		t.Fatal("donor delivered nothing; scenario too small")
	}

	fresh, freshGen := buildDriven() // Start gives the stream slab Restore overwrites
	var decoded SimState
	if err := json.Unmarshal(wire, &decoded); err != nil {
		t.Fatal(err)
	}
	if err := fresh.Restore(&decoded, freshGen); err != nil {
		t.Fatal(err)
	}
	fresh.K.Run(fresh.K.Now() + 3000)
	if fresh.Net.DeliveredPackets != wantDelivered || fresh.K.Executed() != wantEvents {
		t.Errorf("restored instance resumed to delivered=%d events=%d, donor reached delivered=%d events=%d",
			fresh.Net.DeliveredPackets, fresh.K.Executed(), wantDelivered, wantEvents)
	}
}
