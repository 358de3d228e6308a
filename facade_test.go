package hyperx

import (
	"context"
	"runtime"
	"strings"
	"testing"

	"hyperx/internal/traffic"
)

func TestBuildDefaults(t *testing.T) {
	inst, err := Build(Config{})
	if err != nil {
		t.Fatal(err)
	}
	if inst.Topo.NumTerminals() != 256 {
		t.Errorf("default scale terminals = %d, want 256", inst.Topo.NumTerminals())
	}
	if inst.Alg.Name() != "DimWAR" {
		t.Errorf("default algorithm %s", inst.Alg.Name())
	}
}

func TestPaperScale(t *testing.T) {
	inst, err := Build(PaperScale())
	if err != nil {
		t.Fatal(err)
	}
	if inst.Topo.NumTerminals() != 4096 {
		t.Errorf("paper scale terminals = %d, want 4096", inst.Topo.NumTerminals())
	}
	if inst.Topo.NumPorts() != 29 {
		t.Errorf("paper scale radix = %d, want 29", inst.Topo.NumPorts())
	}
}

// TestPaperPointAllocBudget: the ledger's paper-scale point (DimWAR, UR,
// load 0.6, Warmup=Window=500; 10.9 M events, ~250 K pending at a time)
// allocates under 64 MiB beyond Build. The calendar stores events by value
// in recycled chunks, so what a run allocates is the pending population
// (~16 MiB) plus packet and waiter pools — not ring size × peak bucket of
// pointer arrays and their append-doubling garbage (~160 MiB before).
func TestPaperPointAllocBudget(t *testing.T) {
	if testing.Short() {
		t.Skip("paper-scale simulation")
	}
	cfg := PaperScale()
	cfg.Algorithm = "DimWAR"
	cfg.Seed = 1
	inst := MustBuild(cfg)
	defer inst.Close()
	pat, err := NewPattern("UR", inst.Topo)
	if err != nil {
		t.Fatal(err)
	}
	opts := RunOpts{Warmup: 500, Window: 500}.withDefaults()
	gen := &traffic.Generator{Net: inst.Net, Pattern: pat, Sizes: traffic.UniformSize{Min: opts.MinFlits, Max: opts.MaxFlits}, Load: 0.6}
	gen.Start(inst.Cfg.Seed)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	if _, _, err := runPointOn(context.Background(), inst, gen, 0.6, opts, 500); err != nil {
		t.Fatal(err)
	}
	runtime.ReadMemStats(&after)
	const budget = 64 << 20
	if got := after.TotalAlloc - before.TotalAlloc; got >= budget {
		t.Errorf("paper-scale point allocated %.1f MiB beyond Build, want < %d MiB", float64(got)/(1<<20), budget>>20)
	} else {
		t.Logf("paper-scale point allocated %.1f MiB beyond Build (%d events)", float64(got)/(1<<20), inst.K.Executed())
	}
}

func TestAllAlgorithmsConstruct(t *testing.T) {
	for _, name := range Algorithms {
		cfg := DefaultScale()
		cfg.Algorithm = name
		if _, err := Build(cfg); err != nil {
			t.Errorf("%s: %v", name, err)
		}
	}
}

func TestAllPatternsConstruct(t *testing.T) {
	inst := MustBuild(DefaultScale())
	for _, name := range Patterns {
		if _, err := NewPattern(name, inst.Topo); err != nil {
			t.Errorf("%s: %v", name, err)
		}
	}
}

func TestUnknownNamesRejected(t *testing.T) {
	cfg := DefaultScale()
	cfg.Algorithm = "bogus"
	if _, err := Build(cfg); err == nil {
		t.Error("bogus algorithm accepted")
	}
	inst := MustBuild(DefaultScale())
	if _, err := NewPattern("bogus", inst.Topo); err == nil {
		t.Error("bogus pattern accepted")
	}
}

func TestDALImpliesAtomic(t *testing.T) {
	cfg := DefaultScale()
	cfg.Algorithm = "DAL"
	inst := MustBuild(cfg)
	if !inst.Net.Cfg.AtomicVCAlloc {
		t.Error("DAL did not imply atomic queue allocation")
	}
}

func TestLoadRange(t *testing.T) {
	r := LoadRange(0.25)
	if len(r) != 4 || r[0] != 0.25 || r[3] != 1.0 {
		t.Errorf("LoadRange(0.25) = %v", r)
	}
	if got := len(LoadRange(0.02)); got != 50 {
		t.Errorf("paper granularity gives %d points, want 50", got)
	}
}

func TestFitGrid(t *testing.T) {
	cases := []struct {
		n    int
		want [3]int
	}{
		{64, [3]int{4, 4, 4}},
		{256, [3]int{4, 8, 8}},
		{4096, [3]int{16, 16, 16}},
		{250, [3]int{5, 5, 10}},
	}
	for _, c := range cases {
		got := FitGrid(c.n)
		if got != c.want {
			t.Errorf("FitGrid(%d) = %v, want %v", c.n, got, c.want)
		}
		if got[0]*got[1]*got[2] > c.n {
			t.Errorf("FitGrid(%d) = %v exceeds n", c.n, got)
		}
	}
}

func TestTableOneContent(t *testing.T) {
	tbl := TableOne()
	for _, want := range []string{"DimWAR", "OmniWAR", "UGAL+", "DAL", "N+M", "int. addr.", "escape paths"} {
		if !strings.Contains(tbl, want) {
			t.Errorf("Table 1 missing %q:\n%s", want, tbl)
		}
	}
	// The contributions carry no packet state.
	for _, line := range strings.Split(tbl, "\n") {
		if strings.HasPrefix(line, "DimWAR") || strings.HasPrefix(line, "OmniWAR") {
			if !strings.HasSuffix(strings.TrimSpace(line), "none") {
				t.Errorf("WAR row should end with PktContents none: %q", line)
			}
		}
	}
}

// TestRunDeterminism: identical config and seed give bit-identical
// results.
func TestRunDeterminism(t *testing.T) {
	cfg := DefaultScale()
	cfg.Algorithm = "OmniWAR"
	opts := RunOpts{Warmup: 2000, Window: 2000}
	a, err := RunLoadPoint(cfg, "UR", 0.3, opts)
	if err != nil {
		t.Fatal(err)
	}
	b, err := RunLoadPoint(cfg, "UR", 0.3, opts)
	if err != nil {
		t.Fatal(err)
	}
	if a != b {
		t.Errorf("nondeterministic results:\n%+v\n%+v", a, b)
	}
	cfg.Seed = 2
	c, err := RunLoadPoint(cfg, "UR", 0.3, opts)
	if err != nil {
		t.Fatal(err)
	}
	if a == c {
		t.Error("different seeds produced identical results")
	}
}

// TestFormatLoadPoints renders saturation markers.
func TestFormatLoadPoints(t *testing.T) {
	s := FormatLoadPoints([]LoadPoint{
		{Load: 0.5, Mean: 300, Accepted: 0.5, Samples: 10},
		{Load: 0.6, Mean: 9000, Accepted: 0.41, Samples: 10, Saturated: true},
	})
	if !strings.Contains(s, "[saturated]") {
		t.Errorf("missing saturation marker:\n%s", s)
	}
	if strings.Count(s, "\n") != 3 {
		t.Errorf("unexpected line count:\n%s", s)
	}
}
