package lint

import (
	"go/ast"
	"go/token"
	"go/types"
)

// passNoconc forbids concurrency machinery inside the single-threaded
// event-kernel packages: go statements, channel types and operations,
// select, and sync / sync/atomic primitives. The kernel's determinism
// promise is that event order is a pure function of the schedule; any
// in-instance concurrency would make it a function of the Go scheduler
// too. Parallelism lives one level up, in internal/harness, which runs
// whole isolated instances side by side.
func passNoconc(p *pkgUnit) []Finding {
	var out []Finding
	report := func(pos token.Pos, what string) {
		out = append(out, p.finding(pos, "noconc", what+" in a single-threaded simulation package; "+
			"concurrency belongs to internal/harness, which parallelizes whole instances"))
	}
	for _, f := range p.files {
		// Channel operations in a select's comm clauses are part of the
		// select finding, not findings of their own.
		covered := map[token.Pos]bool{}
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.GoStmt:
				report(n.Pos(), "go statement")
			case *ast.SelectStmt:
				report(n.Pos(), "select statement")
				for _, clause := range n.Body.List {
					if cc, ok := clause.(*ast.CommClause); ok && cc.Comm != nil {
						ast.Inspect(cc.Comm, func(m ast.Node) bool {
							if m != nil {
								covered[m.Pos()] = true
							}
							return true
						})
					}
				}
			case *ast.SendStmt:
				if !covered[n.Pos()] {
					report(n.Pos(), "channel send")
				}
			case *ast.UnaryExpr:
				if n.Op == token.ARROW && !covered[n.Pos()] {
					report(n.Pos(), "channel receive")
				}
			case *ast.ChanType:
				report(n.Pos(), "channel type")
			case *ast.RangeStmt:
				if tv, ok := p.info.Types[n.X]; ok && tv.Type != nil {
					if _, isChan := tv.Type.Underlying().(*types.Chan); isChan {
						report(n.Pos(), "range over channel")
					}
				}
			case *ast.SelectorExpr:
				if pkgPath, name := selectorTarget(p, n); pkgPath == "sync" || pkgPath == "sync/atomic" {
					report(n.Pos(), pkgPath+" primitive "+name)
				}
			}
			return true
		})
	}
	return out
}
