// Package lint is hxlint's engine: a stdlib-only static analyzer (go/ast,
// go/parser, go/token, go/types — no external modules) that enforces the
// simulator tree's determinism contract. Every headline result of this
// reproduction — the SC '19 load/latency curves, the -j 1 vs -j 8 sweep
// equality, the fault-injection delivery guarantees — rests on simulations
// being bit-identical for a fixed seed, and that property is only as
// strong as the absence of nondeterminism leaks. The passes here turn the
// conventions documented in internal/rng, internal/sim, and docs/STATE.md
// into mechanical checks that run at `make ci` time:
//
//   - nodeterm: no wall-clock (time.Now / time.Since / time.Sleep / …) and
//     no global math/rand calls inside the simulation packages. Wall-clock
//     belongs to internal/harness and cmd/, where it measures the run
//     rather than participating in it.
//   - seedflow: component RNGs are constructed through internal/rng, and
//     seeds are derived with rng.DeriveSeed rather than ad-hoc arithmetic
//     (seed+i, seed^i, …) that invites stream collisions. math/rand
//     construction (rand.New(rand.NewSource(…))) is flagged outright.
//   - maporder: no `for … range` over map-typed expressions in simulation
//     packages or in the CSV/manifest emission path — Go randomizes map
//     iteration order per process, so any map-order-dependent computation
//     or output breaks run-to-run reproducibility. Iterate sorted keys
//     instead (the key-gathering loop that feeds sort is recognized and
//     exempt), or annotate with an explicit allow directive.
//   - noconc: no `go` statements, channel operations, channel types, or
//     sync/sync-atomic primitives inside the single-threaded event-kernel
//     packages. Concurrency is the harness's job; inside a simulation
//     instance it would make event interleaving scheduler-dependent.
//   - allocfree: no make() outside construction functions (New*/Build*/
//     init*) and no `x.f = append(x.f, …)` slice-state growth inside the
//     per-event data-path packages (internal/sim, internal/network,
//     internal/core, internal/routing, internal/route). The steady-state
//     zero-allocation property those packages' AllocsPerRun suites assert
//     is easy to erode one innocent allocation at a time; this pass makes
//     every such site an explicit, reasoned decision. Amortized pool
//     refills stay, annotated with an allow directive.
//   - statecover (interprocedural): field-coverage analysis of the state
//     contracts in docs/STATE.md. Every field of a struct owning a
//     Snapshot/Restore method pair must be referenced on both the capture
//     and the restore path (same-package helpers are followed
//     transitively), and every field of a Config/RunOpts struct with a
//     configKey/optsKey partner must appear in that key function —
//     otherwise the field must carry a reasoned //hxlint:state or
//     //hxlint:key exclusion directive.
//   - allowaudit: flags stale directives — an allow that suppresses no
//     finding, or a state/key exclusion whose field is in fact covered.
//     Rot makes real suppressions invisible; a stale waiver fails the
//     build like any other finding.
//
// A pass earns its place by catching what no test catches. The sharded
// executor's staging contract — model code on the parallel path touches
// globally visible state only through its execution context — has no
// pass: the shards-vs-serial fingerprints in the root package's
// sharded_test.go, observer stream included, and the race detector
// over them (make race) catch a direct counter write, a kernel schedule
// that bypasses the stage and an observer called outside the context.
//
// # Directives
//
// A finding can be suppressed — with a mandatory, human-readable reason —
// by a directive on the offending line or on the line directly above it:
//
//	//hxlint:allow maporder — emission order is re-sorted by the caller
//
// statecover has two dedicated exclusion grammars, placed on (or directly
// above) the field declaration they excuse:
//
//	//hxlint:state ephemeral — <why the field needs no snapshot coverage>
//	//hxlint:key excluded — <why the field may be absent from the key>
//
// The separator may be an em-dash ("—") or a double hyphen ("--"). A
// directive without a reason (or with an unknown kind, pass, or verb) is
// itself reported as a finding and suppresses nothing, and a directive
// that suppresses nothing is reported stale by allowaudit.
//
// # Scope
//
// Which passes apply to which package is one table, scopes in load.go:
// a module-relative package path maps to a set of pass bits, and a
// package absent from it is not linted. The determinism scope (nodeterm,
// seedflow, noconc, maporder) is the simulation package set:
// internal/sim, internal/network, internal/core, internal/routing,
// internal/route, internal/traffic, internal/topology, internal/stats,
// plus internal/app (single-threaded workload code driven by the same
// kernel), internal/shard, and internal/serve. Both internal/shard and
// internal/serve skip noconc: the sharded executor exists to run one
// instance on several cores, and the sweep service's job queue and
// executor pool dispatch whole simulations concurrently from the harness
// side — goroutines and sync primitives are their point. Their
// determinism is enforced by the golden-trace shards-vs-serial
// equivalence tests and the httptest/stampede suite under -race instead,
// and every other determinism pass still applies to both. allocfree
// covers the per-event data path (internal/sim, internal/network,
// internal/core, internal/routing, internal/route). maporder additionally
// covers the output path: the module root package, internal/harness
// (manifest emission), and every cmd/ binary. statecover runs over every
// package in the table (the checkpoint-key contract lives in the root
// package). seedflow, allocfree, and statecover skip _test.go
// files — tests may build ad-hoc fixture seeds, allocate, and mutate
// state directly — while nodeterm, maporder, and noconc apply to tests
// too: map-ordered subtest scheduling and output is exactly the kind of
// flake this suite exists to prevent.
//
// # Limitations
//
// Type resolution is per-package with imports resolved from source, so
// map detection is exact for anything declared in the module or the
// standard library. Packages are checked in sorted directory order, and
// a package a unit imports is checked again from source, without its
// test files: no pass compares types across units. Files that fail to
// parse abort the run; files with type errors are analyzed on a
// best-effort basis (an expression whose type cannot be resolved is
// never flagged by maporder). statecover checks field references
// syntactically per named struct, not aliasing through copies.
package lint

import (
	"fmt"
	"sort"
)

// Finding is one diagnostic: a determinism-contract violation (or a
// malformed directive) at a specific line.
type Finding struct {
	File string `json:"file"` // path relative to the linted module root
	Line int    `json:"line"`
	Col  int    `json:"col"`
	Pass string `json:"pass"` // pass name, "directive", or "allowaudit"
	Msg  string `json:"msg"`
	// Suppressed marks a finding waived by a valid allow directive. Run
	// drops suppressed findings; RunAll keeps them, flagged, so tooling
	// (hxlint -json) can expose the waiver trail.
	Suppressed bool `json:"suppressed"`
}

// String renders the finding in the canonical "file:line: [pass] message"
// form that cmd/hxlint prints and the golden tests assert.
func (f Finding) String() string {
	return fmt.Sprintf("%s:%d: [%s] %s", f.File, f.Line, f.Pass, f.Msg)
}

// Run lints the Go module rooted at root and returns the live findings
// sorted by (file, line, column, pass). A nil, nil return means the tree
// is clean. Run fails with an error only for structural problems —
// missing go.mod, unparsable source — never for findings.
func Run(root string) ([]Finding, error) {
	all, err := RunAll(root)
	if err != nil {
		return nil, err
	}
	var out []Finding
	for _, f := range all {
		if !f.Suppressed {
			out = append(out, f)
		}
	}
	return out, nil
}

// RunAll lints like Run but also returns suppressed findings, each
// carrying Suppressed=true, so consumers can audit what the allow
// directives are waiving.
func RunAll(root string) ([]Finding, error) {
	pkgs, err := load(root)
	if err != nil {
		return nil, err
	}
	dirs := directiveIndex{}
	var out []Finding
	for _, p := range pkgs {
		out = append(out, collectDirectives(p, dirs)...)
		out = append(out, lintUnit(p)...)
	}
	out = append(out, passStatecover(pkgs, dirs)...)
	for i := range out {
		f := &out[i]
		if f.Pass != "directive" && dirs.use(f.Pass, f.File, f.Line) {
			f.Suppressed = true
		}
	}
	out = append(out, dirs.auditStale()...)
	sort.Slice(out, func(i, j int) bool {
		if out[i].File != out[j].File {
			return out[i].File < out[j].File
		}
		if out[i].Line != out[j].Line {
			return out[i].Line < out[j].Line
		}
		if out[i].Col != out[j].Col {
			return out[i].Col < out[j].Col
		}
		return out[i].Pass < out[j].Pass
	})
	return out, nil
}

// passes is every pass an allow directive may name, in the order lintUnit
// runs them. statecover has no unit func: RunAll calls it with the
// directive index its exclusion grammars need.
var passes = []struct {
	bit  passSet
	name string
	unit func(*pkgUnit) []Finding
}{
	{nodeterm, "nodeterm", passNodeterm},
	{seedflow, "seedflow", passSeedflow},
	{noconc, "noconc", passNoconc},
	{maporder, "maporder", passMaporder},
	{allocfree, "allocfree", passAllocfree},
	{statecover, "statecover", nil},
}

// lintUnit runs every per-package pass in the unit's scope. Suppression
// and the module-wide passes are RunAll's job.
func lintUnit(p *pkgUnit) []Finding {
	var raw []Finding
	for _, ps := range passes {
		if ps.unit != nil && p.passes&ps.bit != 0 {
			raw = append(raw, ps.unit(p)...)
		}
	}
	return raw
}
