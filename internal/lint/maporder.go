package lint

import (
	"go/ast"
	"go/types"
)

// passMaporder flags `for … range` over map-typed expressions. Go
// deliberately randomizes map iteration order per execution, so any
// computation, CSV row order, manifest field, or subtest schedule that
// ranges a map directly differs run to run — the exact nondeterminism the
// j=1 vs j=8 bit-identity guarantee cannot tolerate. The fix is to
// iterate sorted keys; the key-gathering loop that feeds sort (a body
// that only appends the key to a slice) is order-insensitive and exempt,
// as is a bodyless `for range m` counting loop that never binds key or
// value.
func passMaporder(p *pkgUnit) []Finding {
	var out []Finding
	for _, f := range p.files {
		ast.Inspect(f, func(n ast.Node) bool {
			rs, ok := n.(*ast.RangeStmt)
			if !ok {
				return true
			}
			tv, ok := p.info.Types[rs.X]
			if !ok || tv.Type == nil {
				return true
			}
			if _, isMap := tv.Type.Underlying().(*types.Map); !isMap {
				return true
			}
			if rs.Key == nil && rs.Value == nil {
				return true // order-free: no binding, pure repetition
			}
			if isKeyGathering(rs) {
				return true
			}
			out = append(out, p.finding(rs.Pos(), "maporder", "range over map "+types.ExprString(rs.X)+
				" has nondeterministic iteration order; iterate sorted keys, or annotate //hxlint:allow maporder — <reason>"))
			return true
		})
	}
	return out
}

// isKeyGathering recognizes the canonical sorted-iteration prologue
//
//	for k := range m { keys = append(keys, k) }
//
// whose result order is independent of map order once the caller sorts.
// The body must be exactly one append of the key variable back onto the
// destination slice, with no value variable bound.
func isKeyGathering(rs *ast.RangeStmt) bool {
	key, ok := rs.Key.(*ast.Ident)
	if !ok || key.Name == "_" {
		return false
	}
	if rs.Value != nil {
		if v, ok := rs.Value.(*ast.Ident); !ok || v.Name != "_" {
			return false
		}
	}
	if len(rs.Body.List) != 1 {
		return false
	}
	assign, ok := rs.Body.List[0].(*ast.AssignStmt)
	if !ok || len(assign.Lhs) != 1 || len(assign.Rhs) != 1 {
		return false
	}
	dst, ok := assign.Lhs[0].(*ast.Ident)
	if !ok {
		return false
	}
	call, ok := assign.Rhs[0].(*ast.CallExpr)
	if !ok || len(call.Args) != 2 {
		return false
	}
	fn, ok := call.Fun.(*ast.Ident)
	if !ok || fn.Name != "append" {
		return false
	}
	src, ok := call.Args[0].(*ast.Ident)
	arg, ok2 := call.Args[1].(*ast.Ident)
	return ok && ok2 && src.Name == dst.Name && arg.Name == key.Name
}
