package main

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestRejectedFlagsExitTwo: the flags parse into hyperx.Experiment, so
// the CLI refuses exactly what the daemon answers 400 to — with exit
// status 2, a message on stderr, nothing on stdout, and before any
// simulation runs. Every row used to exit 0 with the conflicting flag
// silently ignored, except the step rows, which never returned at all
// (LoadRange spun until the process ran out of memory).
func TestRejectedFlagsExitTwo(t *testing.T) {
	cases := []struct {
		args string
		want string // substring of the stderr message
	}{
		{"-step 0", "step must be positive"},
		{"-step -0.1", "step must be positive"},
		{"-step NaN", "step must be positive"},
		{"-step +Inf", "step must be positive"},
		{"-step 1e-9", "at most 1000 points"},
		{"-step nonsense", "invalid value"},
		{"-throughput -forkwarm 100", "fork applies to kind sweep only"},
		{"-throughput -forkwarm 500", "fork applies to kind sweep only"},
		{"-resilience 2 -forkwarm 100", "fork applies to kind sweep only"},
		{"-forkload 0.3 -throughput", "fork applies to kind sweep only"},
		{"-forksettle 100", "apply only with WarmCycles > 0"},
		{"-forkload 0.3", "apply only with WarmCycles > 0"},
		{"-resilience 2 -throughput", "kind resilience only"},
		{"-throughput -step 0.1", "loads/step do not apply"},
		{"-resilience 2 -step 0.1", "loads/step do not apply"},
		{"-resilience -1", "max_faults >= 1"},
		{"-load 0.3", "kind resilience only"},
		{"-algs QUANTUM", "unknown algorithm"},
		{"-pattern nope", "unknown pattern"},
		{"-faults -1", "non-negative"},
	}
	for _, tc := range cases {
		t.Run(tc.args, func(t *testing.T) {
			var stdout, stderr bytes.Buffer
			if code := run(strings.Fields(tc.args), &stdout, &stderr); code != 2 {
				t.Errorf("exit status %d, want 2; stderr: %s", code, stderr.String())
			}
			if !strings.Contains(stderr.String(), tc.want) {
				t.Errorf("stderr %q does not mention %q", stderr.String(), tc.want)
			}
			if stdout.Len() != 0 {
				t.Errorf("rejected invocation wrote to stdout: %q", stdout.String())
			}
		})
	}
}

// TestEveryKindRunsThroughOnePath drives one tiny experiment per kind
// end to end through run: exit 0 and the kind's CSV header on stdout.
func TestEveryKindRunsThroughOnePath(t *testing.T) {
	if testing.Short() {
		t.Skip("steady-state simulations")
	}
	const tiny = " -algs DOR -warmup 300 -window 300 -q"
	cases := []struct {
		args   string
		header string
	}{
		{"-pattern UR -step 0.5", "algorithm,load,mean_ns,"},
		{"-pattern UR -step 0.5 -forkwarm 100", "algorithm,load,mean_ns,"},
		{"-throughput -patterns UR", "pattern,DOR\n"},
		{"-resilience 1 -load 0.2", "algorithm,faults,load,"},
	}
	for _, tc := range cases {
		t.Run(tc.args, func(t *testing.T) {
			var stdout, stderr bytes.Buffer
			if code := run(strings.Fields(tc.args+tiny), &stdout, &stderr); code != 0 {
				t.Fatalf("exit status %d; stderr: %s", code, stderr.String())
			}
			if !strings.HasPrefix(stdout.String(), tc.header) {
				t.Errorf("stdout starts %q, want the %q header", stdout.String(), tc.header)
			}
		})
	}
}

// TestForkwarmAloneKeepsItsCSV: -forkwarm without -forkload passes no
// WarmLoad, and the fork's own default (0.5, the flag's old default)
// fills it in, so the CSV and the manifest's fork load are those of an
// explicit -forkload 0.5.
func TestForkwarmAloneKeepsItsCSV(t *testing.T) {
	if testing.Short() {
		t.Skip("steady-state simulations")
	}
	dir := t.TempDir()
	csv := func(extra, manifest string) string {
		args := "-pattern UR -step 0.5 -algs DOR -warmup 300 -window 300 -q -forkwarm 100 -manifest " + manifest + extra
		var stdout, stderr bytes.Buffer
		if code := run(strings.Fields(args), &stdout, &stderr); code != 0 {
			t.Fatalf("%s: exit status %d; stderr: %s", args, code, stderr.String())
		}
		return stdout.String()
	}
	alone := csv("", filepath.Join(dir, "alone.json"))
	if explicit := csv(" -forkload 0.5", filepath.Join(dir, "explicit.json")); alone != explicit {
		t.Errorf("-forkwarm alone wrote\n%s\nwant the -forkload 0.5 CSV\n%s", alone, explicit)
	}
	m, err := os.ReadFile(filepath.Join(dir, "alone.json"))
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(m), `"fork_load": 0.5`) {
		t.Errorf("manifest does not record fork load 0.5:\n%s", m)
	}
}
