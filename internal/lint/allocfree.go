package lint

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

// passAllocfree guards the data path's steady-state zero-allocation
// property. The simulator's paper-scale throughput rests on the event
// kernel, router arbitration, and candidate generation never touching the
// heap once warm (see the AllocsPerRun suites in internal/sim,
// internal/core, and internal/network); a single stray make() or a slice
// field that regrows per event silently reintroduces GC pressure that the
// benchmarks only catch after the fact. This pass makes the property
// reviewable at lint time. It flags, inside the allocation-sensitive
// packages:
//
//   - make() in any function that is not a construction function (a name
//     beginning with new/build/init, case-insensitively): steady-state
//     code has no business sizing fresh slices or maps per call.
//   - slice growth written back to longer-lived state,
//     x.f = append(x.f, elems…) or *p = append(*p, elems…): when
//     capacity is exceeded this reallocates mid-simulation. The element-removal idiom
//     x.f = append(x.f[:i], x.f[i+1:]…) never grows and is not flagged.
//
// The pass is advisory in character: amortized pool refills (chunked
// free-list restock, calendar buckets growing to their high-water mark)
// are legitimate and expected — each carries an //hxlint:allow allocfree
// directive whose reason documents why the allocation amortizes to zero.
// What the pass prevents is the unreasoned kind.
//
// Test files are exempt: tests and benchmarks allocate freely.
func passAllocfree(p *pkgUnit) []Finding {
	var out []Finding
	report := func(pos token.Pos, msg string) { out = append(out, p.finding(pos, "allocfree", msg)) }
	for _, f := range p.files {
		if fileIsTest(p, f) {
			continue
		}
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil || constructionFunc(fd.Name.Name) {
				continue
			}
			ast.Inspect(fd.Body, func(n ast.Node) bool {
				switch n := n.(type) {
				case *ast.CallExpr:
					if isBuiltinCall(p, n, "make") {
						report(n.Pos(), "make in "+fd.Name.Name+", a steady-state path; allocate at build "+
							"time (New*/Build*/init*) or pool it, or annotate //hxlint:allow allocfree — <why this amortizes>")
					}
				case *ast.AssignStmt:
					if dst, ok := fieldAppendGrowth(p, n); ok {
						report(n.Pos(), dst+" = append(...) grows long-lived state and reallocates when capacity "+
							"is exceeded; pre-size the backing slab at build time, or annotate "+
							"//hxlint:allow allocfree — <why this amortizes>")
					}
				}
				return true
			})
		}
	}
	return out
}

// constructionFunc reports whether a function name marks build-time code,
// where allocation is the whole point: New*, Build*, init*, and their
// unexported forms.
func constructionFunc(name string) bool {
	l := strings.ToLower(name)
	return strings.HasPrefix(l, "new") || strings.HasPrefix(l, "build") || strings.HasPrefix(l, "init")
}

// isBuiltinCall reports whether call invokes the named builtin (not a
// shadowing declaration).
func isBuiltinCall(p *pkgUnit, call *ast.CallExpr, name string) bool {
	id, ok := call.Fun.(*ast.Ident)
	if !ok || id.Name != name {
		return false
	}
	if obj, ok := p.info.Uses[id]; ok {
		_, builtin := obj.(*types.Builtin)
		return builtin
	}
	return true // unresolved (type-error file): assume the builtin
}

// fieldAppendGrowth matches `x.f = append(x.f, elems…)`, or the same
// through a pointer, `*p = append(*p, elems…)` — growth of slice state
// that outlives the call. It requires the append destination to
// syntactically equal the assignment target, at least one appended
// element, and no ellipsis (the removal idiom append(s[:i], s[i+1:]…)
// shrinks, it never grows).
func fieldAppendGrowth(p *pkgUnit, as *ast.AssignStmt) (dst string, ok bool) {
	if as.Tok != token.ASSIGN || len(as.Lhs) != 1 || len(as.Rhs) != 1 {
		return "", false
	}
	switch as.Lhs[0].(type) {
	case *ast.SelectorExpr, *ast.IndexExpr, *ast.StarExpr:
	default:
		return "", false
	}
	call, isCall := as.Rhs[0].(*ast.CallExpr)
	if !isCall || !isBuiltinCall(p, call, "append") || len(call.Args) < 2 || call.Ellipsis.IsValid() {
		return "", false
	}
	dst = types.ExprString(as.Lhs[0])
	if types.ExprString(call.Args[0]) != dst {
		return "", false
	}
	return dst, true
}
