package main

import (
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"hyperx/internal/lint"
)

// TestRestrict pins how path arguments select findings: a directory keeps
// its subtree (and not a sibling sharing its name as a prefix), a file
// keeps exactly that file, "./..." keeps everything, and a path that does
// not exist or lies outside the module is an error rather than a clean,
// empty report.
func TestRestrict(t *testing.T) {
	root := t.TempDir()
	for _, f := range []string{"internal/sim/clock.go", "internal/sim/kernel.go", "internal/simx/x.go", "run.go"} {
		path := filepath.Join(root, filepath.FromSlash(f))
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, nil, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	findings := []lint.Finding{
		{File: "internal/sim/clock.go", Line: 8},
		{File: "internal/sim/clock.go", Line: 11},
		{File: "internal/sim/kernel.go", Line: 3},
		{File: "internal/simx/x.go", Line: 1},
		{File: "run.go", Line: 2},
	}
	at := func(rel string) string { return filepath.Join(root, filepath.FromSlash(rel)) }
	cases := []struct {
		name    string
		args    []string
		want    []int // indices into findings
		wantErr bool
	}{
		{"no arguments", nil, []int{0, 1, 2, 3, 4}, false},
		{"whole module", []string{"./..."}, []int{0, 1, 2, 3, 4}, false},
		{"module root", []string{root}, []int{0, 1, 2, 3, 4}, false},
		{"directory", []string{at("internal/sim")}, []int{0, 1, 2}, false},
		{"directory subtree", []string{at("internal/sim") + "/..."}, []int{0, 1, 2}, false},
		{"file", []string{at("internal/sim/clock.go")}, []int{0, 1}, false},
		{"file and directory", []string{at("run.go"), at("internal/simx")}, []int{3, 4}, false},
		{"missing path", []string{at("no/such/dir")}, nil, true},
		{"missing path after ./...", []string{"./...", at("no/such/dir")}, nil, true},
		{"outside the module", []string{filepath.Dir(root)}, nil, true},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			got, err := restrict(findings, root, c.args)
			if c.wantErr {
				if err == nil {
					t.Fatalf("restrict(%v) = %v, want an error", c.args, got)
				}
				return
			}
			if err != nil {
				t.Fatal(err)
			}
			var want []lint.Finding
			for _, i := range c.want {
				want = append(want, findings[i])
			}
			if !reflect.DeepEqual(got, want) {
				t.Errorf("restrict(%v) = %v, want %v", c.args, got, want)
			}
		})
	}
}
