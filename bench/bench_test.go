package main

import (
	"context"
	"encoding/json"
	"os"
	"regexp"
	"strings"
	"testing"
)

// benchmarkJSON mirrors the root BENCHMARK.json.
type benchmarkJSON struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct{ Name, Why string }
	EndToEnd   []struct {
		Name, Unit, Better string
		Bound              float64
	} `json:"end_to_end"`
	PerLayer []struct{ Name, Unit, Better string } `json:"per_layer"`
}

var nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)

// TestCatalogueMatchesBenchmarkJSON holds BENCHMARK.json and spec.go in
// step, name for name, and both inside the driver's limits.
func TestCatalogueMatchesBenchmarkJSON(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bj benchmarkJSON
	dec := json.NewDecoder(strings.NewReader(string(raw)))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&bj); err != nil {
		t.Fatal(err)
	}
	if got := strings.Join(bj.Command, " "); got != "bash bench/run.sh" {
		t.Errorf("command %q", got)
	}
	if len(bj.Paths) != 1 || bj.Paths[0] != "bench" {
		t.Errorf("paths %v", bj.Paths)
	}
	if bj.RunSeconds < 1 || bj.RunSeconds > 60 {
		t.Errorf("run_seconds %d", bj.RunSeconds)
	}
	if n := len(workloads); n < 2 || n > 8 || len(endToEnd) > 16 || len(perLayer) > 128 {
		t.Errorf("catalogue outside the limits: %d workloads, %d end-to-end, %d per-layer", n, len(endToEnd), len(perLayer))
	}

	seen := map[string]bool{}
	name := func(n string) {
		if !nameRE.MatchString(n) {
			t.Errorf("name %q does not match %v", n, nameRE)
		}
		if seen[n] {
			t.Errorf("name %q is used twice", n)
		}
		seen[n] = true
	}
	if len(bj.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json has %d workloads, spec.go %d", len(bj.Workloads), len(workloads))
	}
	for i, w := range workloads {
		name(w.Name)
		if bj.Workloads[i].Name != w.Name || bj.Workloads[i].Why != w.Why {
			t.Errorf("workload %d: BENCHMARK.json %q, spec.go %q (or their whys differ)", i, bj.Workloads[i].Name, w.Name)
		}
		if len(w.Why) > 200 || strings.Contains(w.Why, "\n") {
			t.Errorf("workload %s: why must be one line of at most 200 characters", w.Name)
		}
	}
	if len(bj.EndToEnd) != len(endToEnd) {
		t.Fatalf("BENCHMARK.json has %d end-to-end metrics, spec.go %d", len(bj.EndToEnd), len(endToEnd))
	}
	hasSetup := false
	for i, m := range endToEnd {
		name(m.Name)
		j := bj.EndToEnd[i]
		if j.Name != m.Name || j.Unit != m.Unit || j.Better != m.Better || j.Bound != m.Bound {
			t.Errorf("end-to-end %d: BENCHMARK.json %+v, spec.go %+v", i, j, m)
		}
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("%s: bound %v outside (0, 0.25]", m.Name, m.Bound)
		}
		hasSetup = hasSetup || (m.Name == "setup_s" && m.Unit == "s" && m.Better == "lower")
	}
	if !hasSetup {
		t.Error("no setup_s end-to-end metric")
	}
	if len(bj.PerLayer) != len(perLayer) {
		t.Fatalf("BENCHMARK.json has %d per-layer metrics, spec.go %d", len(bj.PerLayer), len(perLayer))
	}
	for i, m := range perLayer {
		name(m.Name)
		if j := bj.PerLayer[i]; j.Name != m.Name || j.Unit != m.Unit || j.Better != m.Better {
			t.Errorf("per-layer %d: BENCHMARK.json %+v, spec.go %+v", i, j, m)
		}
	}
}

// TestEveryMetricEmittedOnce runs every workload at tiny size in both
// modes. Each run must pass its own cross-checks — which include the
// decorators leaving every cell's kernel event count and CSV untouched,
// and under -race the shard.Model decorator running on two threads —
// emit exactly its mode's metric set, and leave no metric of the
// catalogue that no workload produces.
func TestEveryMetricEmittedOnce(t *testing.T) {
	produced := map[string]bool{}
	layer := map[string]map[string]float64{}
	for _, w := range workloads {
		for _, traced := range []bool{false, true} {
			rc := runCfg{workload: w.Name, seed: 3, size: "tiny", sz: sizings["tiny"], traced: traced, outDir: t.TempDir()}
			rep, err := runWorkload(context.Background(), rc)
			if err != nil {
				t.Fatalf("%s traced=%v: %v", w.Name, traced, err)
			}
			for _, f := range rep.failures {
				t.Errorf("%s traced=%v: %s", w.Name, traced, f)
			}
			res := finish(rc, rep)
			specs := specsFor(traced)
			if traced {
				layer[w.Name] = rep.metrics
			}
			if len(res.Metrics) != len(specs) {
				t.Errorf("%s traced=%v: %d metrics emitted, catalogue has %d", w.Name, traced, len(res.Metrics), len(specs))
			}
			known := map[string]bool{}
			for _, m := range specs {
				known[m.Name] = true
				mv, ok := res.Metrics[m.Name]
				if !ok || mv.Unit != m.Unit || mv.Unit == "" {
					t.Errorf("%s traced=%v: metric %s missing or without its unit", w.Name, traced, m.Name)
				}
				if !traced && mv.Value <= 0 {
					t.Errorf("%s: end-to-end metric %s is %v; it must never be zero", w.Name, m.Name, mv.Value)
				}
			}
			for name := range rep.metrics {
				if !known[name] {
					t.Errorf("%s traced=%v: produced %q, which the catalogue does not name", w.Name, traced, name)
				}
				produced[name] = true
			}
		}
	}
	for _, m := range append(append([]metricSpec{}, endToEnd...), perLayer...) {
		if !produced[m.Name] {
			t.Errorf("no workload produces %s", m.Name)
		}
	}

	// Each layer does its work in one workload and none in another.
	for _, name := range []string{"shard.windows", "shard.run_shard_busy_s"} {
		if layer["paper_point_serial"][name] != 0 || layer["paper_point_sharded"][name] == 0 {
			t.Errorf("%s: serial %v, sharded %v; want zero and non-zero", name, layer["paper_point_serial"][name], layer["paper_point_sharded"][name])
		}
	}
	for _, name := range []string{"checkpoint.bytes", "serve.submit_ms_p50", "warm_request_ms_p50"} {
		if layer["fig6_small_cold"][name] != 0 || layer["served_mix"][name] == 0 {
			t.Errorf("%s: fig6 %v, served %v; want zero and non-zero", name, layer["fig6_small_cold"][name], layer["served_mix"][name])
		}
	}
	if a, b := layer["paper_point_serial"]["sim.events"], layer["paper_point_sharded"]["sim.events"]; a != b || a == 0 {
		t.Errorf("sim.events: serial %v, sharded %v; the same point must execute the same events", a, b)
	}
}
