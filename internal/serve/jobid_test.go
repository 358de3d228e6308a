package serve

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"hyperx"
)

var updateKeys = flag.Bool("update-keys", false, "rewrite testdata/job_ids.txt from the current Experiment.Key/jobID (an intentional identity change; see docs/STATE.md)")

// jobIDCases is one canonical request per kind, a request that says
// nothing (every default), a zero fork (which normalizes to the cold
// sweep, so its line repeats job-sweep's ID) and a warm fork.
func jobIDCases() []struct {
	name string
	req  *Request
} {
	cfg := hyperx.Config{Widths: []int{4, 4}, Terms: 2, Seed: 1}
	opts := hyperx.RunOpts{Warmup: 1000, Window: 1000}
	sweep := func(fork *hyperx.ForkOpts) *Request {
		return &Request{Kind: "sweep", Config: cfg, Patterns: []string{"UR"}, Algorithms: []string{"DOR", "DimWAR"},
			Loads: []float64{0.1, 0.2}, Opts: opts, Fork: fork}
	}
	return []struct {
		name string
		req  *Request
	}{
		{"job-defaults", &Request{}},
		{"job-sweep", sweep(nil)},
		{"job-sweep-pristine-fork", sweep(&hyperx.ForkOpts{})},
		{"job-sweep-warm-fork", sweep(&hyperx.ForkOpts{WarmCycles: 500, WarmLoad: 0.25, Settle: 100})},
		{"job-throughput", &Request{Kind: "throughput", Config: cfg, Patterns: []string{"UR", "BC"}, Algorithms: []string{"DOR"}, Opts: opts}},
		{"job-resilience", &Request{Kind: "resilience", Config: cfg, Patterns: []string{"UR"}, Algorithms: []string{"DimWAR"}, MaxFaults: 2, Load: 0.3, Opts: opts}},
	}
}

// TestJobIDStability pins job IDs — the hash of the canonical job key —
// against the golden file, the way the root package pins the cell keys in
// testdata/checkpoint_keys.txt. "IDs survive restarts" is a documented
// property of the service: clients hold IDs across daemon upgrades, and a
// changed ID orphans every finished job a client remembers. If this test
// fails, either restore Experiment.Key / jobID or — when the change is
// intentional — rerun with -update-keys and record it in docs/STATE.md.
func TestJobIDStability(t *testing.T) {
	golden := filepath.Join("testdata", "job_ids.txt")
	var b strings.Builder
	b.WriteString("# Job IDs of canonical requests, pinned by TestJobIDStability.\n")
	b.WriteString("# Regenerate with: go test ./internal/serve -run TestJobIDStability -update-keys\n")
	b.WriteString("# A diff here changes the identity of every submitted job; see docs/STATE.md first.\n")
	for _, c := range jobIDCases() {
		if err := c.req.Normalize(); err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		fmt.Fprintf(&b, "%s\t%s\n", c.name, jobID(c.req.Key()))
	}
	if *updateKeys {
		if err := os.WriteFile(golden, []byte(b.String()), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("reading golden job-ID file (run with -update-keys to create it): %v", err)
	}
	if got := b.String(); got != string(want) {
		t.Errorf("job IDs changed — every client-held ID and registry dedup key moves with them\ngolden:\n%s\ncurrent:\n%s", want, got)
	}
}
