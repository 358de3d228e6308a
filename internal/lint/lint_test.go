package lint

import (
	"flag"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

var update = flag.Bool("update", false, "rewrite testdata/expect.txt from the current fixture findings")

// TestFixtureGolden runs the full suite over the seeded-violation fixture
// module and compares every finding — pass, position, message — against
// the golden file. This is the diagnostics contract: one line per
// finding, "file:line: [pass] message", covering every pass, both
// exempt maporder idioms, a valid allow directive, a directive without a
// reason, and a directive naming an unknown pass.
func TestFixtureGolden(t *testing.T) {
	findings, err := Run(filepath.Join("testdata", "repo"))
	if err != nil {
		t.Fatal(err)
	}
	var b strings.Builder
	for _, f := range findings {
		b.WriteString(f.String())
		b.WriteString("\n")
	}
	got := b.String()

	golden := filepath.Join("testdata", "expect.txt")
	if *update {
		if err := os.WriteFile(golden, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatal(err)
	}
	if got != string(want) {
		t.Errorf("fixture findings diverge from %s (re-run with -update after intentional changes)\n--- got ---\n%s--- want ---\n%s", golden, got, want)
	}
}

// TestFixtureFindsEveryPass guards the golden file itself: if expect.txt
// ever decays to the point where some pass has no seeded violation, the
// golden test would still pass while proving nothing about that pass.
func TestFixtureFindsEveryPass(t *testing.T) {
	findings, err := Run(filepath.Join("testdata", "repo"))
	if err != nil {
		t.Fatal(err)
	}
	seen := map[string]int{}
	for _, f := range findings {
		seen[f.Pass]++
	}
	for _, pass := range []string{"nodeterm", "seedflow", "maporder", "noconc", "allocfree", "statecover", "allowaudit", "directive"} {
		if seen[pass] == 0 {
			t.Errorf("fixture tree has no %s finding; the pass is untested", pass)
		}
	}
	if seen["directive"] < 2 {
		t.Errorf("want both malformed-directive cases (missing reason, unknown pass), got %d directive findings", seen["directive"])
	}
}

// TestDirectiveSuppression asserts the allow-directive mechanics on the
// fixture: the annotated select in conc.go and the annotated emission
// loop in emit.go must not be reported, while the reason-less directive's
// loop must be.
func TestDirectiveSuppression(t *testing.T) {
	findings, err := Run(filepath.Join("testdata", "repo"))
	if err != nil {
		t.Fatal(err)
	}
	lines := map[string]bool{}
	for _, f := range findings {
		lines[f.String()] = true
	}
	for l := range lines {
		// conc.go's only select is the annotated one; emit.go:44 is the
		// annotated emission loop.
		if strings.Contains(l, "conc.go") && strings.Contains(l, "select statement") {
			t.Errorf("allow directive failed to suppress: %s", l)
		}
		if strings.HasPrefix(l, "internal/stats/emit.go:44: [maporder]") {
			t.Errorf("allow directive failed to suppress: %s", l)
		}
	}
	var badDirectiveLoop bool
	for l := range lines {
		if strings.Contains(l, "emit.go:52: [maporder]") {
			badDirectiveLoop = true
		}
	}
	if !badDirectiveLoop {
		t.Error("reason-less directive suppressed its finding; it must not")
	}
}

// TestRunAllMarksSuppressed asserts the waiver trail RunAll exposes for
// hxlint -json: findings waived by a valid allow directive are returned
// with Suppressed=true and are absent from Run's live set.
func TestRunAllMarksSuppressed(t *testing.T) {
	all, err := RunAll(filepath.Join("testdata", "repo"))
	if err != nil {
		t.Fatal(err)
	}
	suppressed := map[string]bool{}
	for _, f := range all {
		if f.Suppressed {
			suppressed[f.String()] = true
		}
	}
	var haveEmit, haveSelect bool
	for l := range suppressed {
		if strings.HasPrefix(l, "internal/stats/emit.go:43: [maporder]") {
			haveEmit = true
		}
		if strings.Contains(l, "conc.go") && strings.Contains(l, "select statement") {
			haveSelect = true
		}
	}
	if !haveEmit || !haveSelect {
		t.Errorf("RunAll should surface the annotated emit.go:44 loop and conc.go select as suppressed; got %v", suppressed)
	}
	live, err := Run(filepath.Join("testdata", "repo"))
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range live {
		if f.Suppressed || suppressed[f.String()] {
			t.Errorf("suppressed finding leaked into Run: %s", f)
		}
	}
}

// TestSelfCheck lints the real repository: the tree this test ships in
// must be clean, so `make lint` (and `make ci`) stay green and every
// surviving irregularity is an annotated, reasoned exception. A failure
// here means a determinism-contract violation was introduced somewhere in
// the simulation packages or the output path.
func TestSelfCheck(t *testing.T) {
	root, err := filepath.Abs(filepath.Join("..", ".."))
	if err != nil {
		t.Fatal(err)
	}
	findings, err := Run(root)
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range findings {
		t.Errorf("repo not lint-clean: %s", f)
	}
}
