// Command hxlint enforces the simulator's determinism and performance
// contracts: it walks the module and reports every nodeterm / seedflow /
// maporder / noconc / allocfree / statecover / allowaudit violation (see
// internal/lint) as "file:line: [pass] message", exiting nonzero if
// anything is found. `make lint` runs it over the whole tree, and
// `make ci` gates on it, so a wall-clock read, a global-RNG draw, an
// unsorted map iteration in an output path, stray concurrency inside a
// simulation package, an unreasoned allocation on the steady-state data
// path, an uncovered snapshot or checkpoint-key field, or a stale
// suppression directive fails the build instead of silently skewing
// results. (An unstaged shared-state mutation on the sharded executor's
// parallel path is caught at runtime, by the shards-vs-serial tests.)
//
// Usage:
//
//	hxlint ./...            # lint the whole module (the CI form)
//	hxlint ./internal/sim   # restrict the report to one subtree (or file)
//	hxlint -json ./...      # one JSON object per finding, suppressed included
//
// With -json, every finding — including those waived by allow directives —
// is emitted as one JSON object per line with fields file, line, col,
// pass, msg, and suppressed, so CI and editors can consume the report
// without parsing the text format. The exit status still reflects only
// live (unsuppressed) findings.
//
// Findings can be suppressed, with a mandatory reason, by an
// //hxlint:allow directive on or directly above the offending line:
//
//	//hxlint:allow maporder — emission order is re-sorted by the caller
//
// statecover exclusions use the dedicated field-level grammars
// //hxlint:state ephemeral — <reason> and //hxlint:key excluded — <reason>
// (see internal/lint and docs/STATE.md).
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"strings"

	"hyperx/internal/lint"
)

func main() {
	jsonOut := flag.Bool("json", false, "emit one JSON finding object per line (includes suppressed findings)")
	flag.Usage = func() {
		fmt.Fprintln(os.Stderr, "usage: hxlint [-json] [./... | path ...]")
		flag.PrintDefaults()
	}
	flag.Parse()

	root, err := moduleRoot()
	if err != nil {
		fmt.Fprintln(os.Stderr, "hxlint:", err)
		os.Exit(2)
	}
	findings, err := lint.RunAll(root)
	if err != nil {
		fmt.Fprintln(os.Stderr, "hxlint:", err)
		os.Exit(2)
	}
	findings, err = restrict(findings, root, flag.Args())
	if err != nil {
		fmt.Fprintln(os.Stderr, "hxlint:", err)
		os.Exit(2)
	}
	live := 0
	enc := json.NewEncoder(os.Stdout)
	for _, f := range findings {
		if *jsonOut {
			if err := enc.Encode(f); err != nil {
				fmt.Fprintln(os.Stderr, "hxlint:", err)
				os.Exit(2)
			}
		} else if !f.Suppressed {
			fmt.Println(f)
		}
		if !f.Suppressed {
			live++
		}
	}
	if live > 0 {
		fmt.Fprintf(os.Stderr, "hxlint: %d finding(s)\n", live)
		os.Exit(1)
	}
}

// moduleRoot walks up from the working directory to the enclosing go.mod.
func moduleRoot() (string, error) {
	dir, err := os.Getwd()
	if err != nil {
		return "", err
	}
	for {
		if _, err := os.Stat(filepath.Join(dir, "go.mod")); err == nil {
			return dir, nil
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return "", fmt.Errorf("no go.mod found above the working directory")
		}
		dir = parent
	}
}

// restrict filters findings to the files and subtrees named on the
// command line. "./..." (or no arguments) keeps everything — the
// whole-module form the Makefile uses. A path that does not exist is an
// error, so a mistyped invocation fails instead of passing clean.
func restrict(findings []lint.Finding, root string, args []string) ([]lint.Finding, error) {
	all := len(args) == 0
	var files, dirs []string
	for _, a := range args {
		if a == "./..." || a == "..." {
			all = true
			continue
		}
		abs, err := filepath.Abs(strings.TrimSuffix(a, "/..."))
		if err != nil {
			return nil, err
		}
		rel, err := filepath.Rel(root, abs)
		if err != nil || strings.HasPrefix(rel, "..") {
			return nil, fmt.Errorf("%s is outside the module at %s", a, root)
		}
		st, err := os.Stat(abs)
		if err != nil {
			return nil, err
		}
		rel = filepath.ToSlash(rel)
		switch {
		case !st.IsDir():
			files = append(files, rel)
		case rel == ".":
			all = true
		default:
			dirs = append(dirs, rel+"/")
		}
	}
	if all {
		return findings, nil
	}
	var out []lint.Finding
	for _, f := range findings {
		if slices.Contains(files, f.File) || slices.ContainsFunc(dirs, func(d string) bool { return strings.HasPrefix(f.File, d) }) {
			out = append(out, f)
		}
	}
	return out, nil
}
