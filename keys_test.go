package hyperx

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

var updateKeys = flag.Bool("update-keys", false, "rewrite testdata/checkpoint_keys.txt from the current key functions (an intentional cache-format bump; see docs/STATE.md)")

// keyCases pins the exact canonical key strings for a spread of
// configurations: the defaults, hex-float edge loads (0.0 renders
// 0x0p+00, 1.0 renders 0x1p+00), a faulted config, and the fork
// variants. Every case is a distinct stability contract.
func keyCases() []struct {
	name string
	key  string
} {
	base := Config{Widths: []int{4, 4}, Terms: 2, Algorithm: "DimWAR", Seed: 1}
	faulted := base
	faulted.Algorithm = "OmniWAR"
	faulted.Faults = 2
	faulted.FaultSeed = 9
	opts := RunOpts{Warmup: 1000, Window: 1000}
	loads := []float64{0.0, 0.5, 1.0}
	return []struct {
		name string
		key  string
	}{
		{"point-default", PointKey(Config{}, "UR", 0.5, RunOpts{})},
		{"point-small", PointKey(base, "UR", 0.5, opts)},
		{"point-load-zero", PointKey(base, "UR", 0.0, opts)},
		{"point-load-one", PointKey(base, "URBy", 1.0, opts)},
		{"point-faulted", PointKey(faulted, "UR", 0.5, opts)},
		{"point-sharded-same-as-serial", PointKey(base, "UR", 0.5, RunOpts{Warmup: 1000, Window: 1000, Shards: 4})},
		{"point-windowed-same-as-serial", PointKey(base, "UR", 0.5, RunOpts{Warmup: 1000, Window: 1000, Shards: 4})},
		{"thpt-default", ThptKey(Config{}, "DCR", RunOpts{})},
		{"thpt-small", ThptKey(base, "BC", opts)},
		{"curve-pristine-fork", CurveKey(base, "UR", loads, opts, ForkOpts{})},
		{"curve-warm-fork", CurveKey(base, "UR", loads, opts, ForkOpts{WarmCycles: 500, WarmLoad: 0.25, Settle: 100})},
		{"curve-faulted", CurveKey(faulted, "S2", loads, opts, ForkOpts{})},
	}
}

// TestCheckpointKeyStability locks the canonical key strings against the
// golden file. These strings are the on-disk cache contract: hxserved
// derives job identities from them, and persistent caches in the wild
// are addressed by them. If this test fails, either restore the key
// functions or — when the change is an intentional semantic bump —
// bump checkpointVersion, rerun with -update-keys, and record the bump
// in docs/STATE.md (old caches become unreachable, which is the point:
// a changed key must never silently serve stale results).
func TestCheckpointKeyStability(t *testing.T) {
	cases := keyCases()
	golden := filepath.Join("testdata", "checkpoint_keys.txt")

	if *updateKeys {
		var b strings.Builder
		b.WriteString("# Canonical checkpoint/cache key strings, pinned by TestCheckpointKeyStability.\n")
		b.WriteString("# Regenerate with: go test -run TestCheckpointKeyStability -update-keys\n")
		b.WriteString("# A diff here is a cache-format change; see docs/STATE.md before committing one.\n")
		for _, c := range cases {
			fmt.Fprintf(&b, "%s\t%s\n", c.name, c.key)
		}
		if err := os.WriteFile(golden, []byte(b.String()), 0o644); err != nil {
			t.Fatal(err)
		}
	}

	data, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("reading golden key file (run with -update-keys to create it): %v", err)
	}
	want := map[string]string{}
	var order []string
	for _, line := range strings.Split(string(data), "\n") {
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		name, key, ok := strings.Cut(line, "\t")
		if !ok {
			t.Fatalf("malformed golden line %q", line)
		}
		want[name] = key
		order = append(order, name)
	}
	if len(order) != len(cases) {
		t.Errorf("golden file has %d keys, test table has %d — rerun -update-keys after reconciling", len(order), len(cases))
	}
	for _, c := range cases {
		g, ok := want[c.name]
		if !ok {
			t.Errorf("%s: missing from golden file", c.name)
			continue
		}
		if g != c.key {
			t.Errorf("%s: key changed\n  golden:  %s\n  current: %s\nthis breaks every existing cache; see docs/STATE.md", c.name, g, c.key)
		}
	}
}

// TestExportedKeysMatchInternal pins the exported accessors to the
// internal key functions including defaulting: the exported forms apply
// withDefaults exactly as the sweep paths do, so hxserved's job
// identities address the same cache cells the facade files.
func TestExportedKeysMatchInternal(t *testing.T) {
	cfg := Config{Widths: []int{4, 4}, Terms: 2, Algorithm: "DimWAR", Seed: 1}
	opts := RunOpts{Warmup: 1000, Window: 1000}
	loads := []float64{0.1, 0.2}

	if got, want := PointKey(cfg, "UR", 0.1, opts), pointKey(cfg.withDefaults(), "UR", 0.1, opts.withDefaults()); got != want {
		t.Errorf("PointKey:\n  %s\n  %s", got, want)
	}
	if got, want := ThptKey(cfg, "UR", opts), thptKey(cfg.withDefaults(), "UR", opts.withDefaults()); got != want {
		t.Errorf("ThptKey:\n  %s\n  %s", got, want)
	}
	o := opts.withDefaults()
	if got, want := CurveKey(cfg, "UR", loads, opts, ForkOpts{}), curveKey(cfg.withDefaults(), "UR", loads, o, ForkOpts{}.withDefaults(o)); got != want {
		t.Errorf("CurveKey:\n  %s\n  %s", got, want)
	}

	// Shards stays excluded through the exported surface too.
	sharded := opts
	sharded.Shards = 8
	if PointKey(cfg, "UR", 0.1, opts) != PointKey(cfg, "UR", 0.1, sharded) {
		t.Error("PointKey depends on Shards; serial and sharded runs must share cache cells")
	}
}
