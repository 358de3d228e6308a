package lint

import (
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
)

// guardShapes are the places an early-returning `if x.sharded` guard can
// sit inside a stagesafe-reachable helper. Each helper writes shared
// state on a multi-shard actor; a line marked "// want" is one the pass
// must report, every other write is serial-only and must stay quiet.
var guardShapes = []struct {
	shape, src string
}{
	{"for body", `
func (n *Net) loop() {
	for i := 0; i < 2; i++ {
		if n.sharded {
			return
		}
		n.A++
	}
	n.B++ // want: the guard inside the loop body does not cover code after the loop
}
`},
	{"one case clause", `
func (n *Net) cases(op uint8) {
	switch op {
	case 0:
		if n.sharded {
			return
		}
		n.C++
	default:
		n.D++ // want: the guard covers only its own clause
	}
}
`},
	{"behind a label", `
func (n *Net) labeled(op uint8) {
	if op == 0 {
		goto guard
	}
guard:
	if n.sharded {
		return
	}
	n.E++
}
`},
	{"immediately-called func literal", `
func (n *Net) literal() {
	func() {
		if n.sharded {
			return
		}
		n.F++
	}()
	n.G++ // want: the literal's return leaves only the literal
}
`},
	{"func literal after a top-level guard", `
func (n *Net) after() {
	if n.sharded {
		return
	}
	f := func() { n.H++ }
	f()
}
`},
}

const guardsHeader = `package network

type Net struct {
	sharded                bool
	A, B, C, D, E, F, G, H uint64
}

// ShardOf consults the event, so Net state is visible to every shard.
func (n *Net) ShardOf(a int32) int { return int(a) }

func (n *Net) Act(op uint8, a int32) {
	n.loop()
	n.cases(op)
	n.labeled(op)
	n.literal()
	n.after()
}
`

// TestStagesafeNestedGuards pins where a guard's serial-only region ends
// for every nesting the statement grammar allows: at the end of the
// statement list holding the guard — loop body, case clause, or func
// literal — and never beyond it.
func TestStagesafeNestedGuards(t *testing.T) {
	root := t.TempDir()
	src := guardsHeader
	for _, g := range guardShapes {
		src += g.src
	}
	dir := filepath.Join(root, "internal", "network")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(root, "go.mod"), []byte("module guards\n\ngo 1.22\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, "net.go"), []byte(src), 0o644); err != nil {
		t.Fatal(err)
	}

	var want []int
	for i, line := range strings.Split(src, "\n") {
		if strings.Contains(line, "// want") {
			want = append(want, i+1)
		}
	}
	if len(want) != 3 {
		t.Fatalf("fixture has %d want markers, expected 3", len(want))
	}

	findings, err := Run(root)
	if err != nil {
		t.Fatal(err)
	}
	var got []int
	for _, f := range findings {
		if f.Pass != "stagesafe" {
			t.Errorf("unexpected finding: %s", f)
			continue
		}
		got = append(got, f.Line)
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("stagesafe reported lines %v, want %v\n%s", got, want, src)
	}
}
