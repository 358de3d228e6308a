package lint

import (
	"go/ast"
	"go/types"
)

// wallClockFuncs are the time-package calls that read or depend on the
// wall clock. Pure value constructors (time.Duration arithmetic,
// time.Unix on a stored stamp) are not in the set: the contract bans the
// clock as an input, not the time types.
var wallClockFuncs = map[string]bool{
	"Now": true, "Since": true, "Until": true, "Sleep": true,
	"Tick": true, "After": true, "AfterFunc": true,
	"NewTimer": true, "NewTicker": true,
}

// globalRandFuncs are the math/rand package-level functions that draw
// from the shared global generator. rand.New / rand.NewSource are
// seedflow's concern; everything reading the process-global stream is a
// nodeterm violation because any draw perturbs every later draw in the
// process, across simulation instances.
var globalRandFuncs = map[string]bool{
	"Int": true, "Intn": true, "Int31": true, "Int31n": true,
	"Int63": true, "Int63n": true, "Uint32": true, "Uint64": true,
	"Float32": true, "Float64": true, "ExpFloat64": true, "NormFloat64": true,
	"Perm": true, "Shuffle": true, "Seed": true, "Read": true,
	"N": true, "IntN": true, "Int32N": true, "Int64N": true, "UintN": true, "Uint32N": true, "Uint64N": true,
}

// passNodeterm forbids wall-clock reads and global math/rand draws in the
// simulation packages. Either one makes a run a function of when and
// where it executed instead of a pure function of (config, seed), which
// breaks the bit-identity every published CSV depends on.
func passNodeterm(p *pkgUnit) []Finding {
	var out []Finding
	for _, f := range p.files {
		ast.Inspect(f, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			pkgPath, name := selectorTarget(p, call.Fun)
			switch {
			case pkgPath == "time" && wallClockFuncs[name]:
				out = append(out, p.finding(call.Pos(), "nodeterm", "wall-clock call time."+name+" in a simulation package; "+
					"simulated time comes from the event kernel, wall-clock belongs to internal/harness and cmd/"))
			case isMathRand(pkgPath) && globalRandFuncs[name]:
				out = append(out, p.finding(call.Pos(), "nodeterm", "global math/rand call rand."+name+" in a simulation package; "+
					"draw from a component rng.Source derived via internal/rng instead"))
			}
			return true
		})
	}
	return out
}

func isMathRand(path string) bool {
	return path == "math/rand" || path == "math/rand/v2"
}

// selectorTarget resolves expr as a qualified reference pkg.Name and
// returns the imported package path and selected name. It returns "" for
// anything else (method calls, locals, unresolved identifiers).
func selectorTarget(p *pkgUnit, expr ast.Expr) (pkgPath, name string) {
	sel, ok := expr.(*ast.SelectorExpr)
	if !ok {
		return "", ""
	}
	id, ok := sel.X.(*ast.Ident)
	if !ok {
		return "", ""
	}
	pn, ok := p.info.Uses[id].(*types.PkgName)
	if !ok {
		return "", ""
	}
	return pn.Imported().Path(), sel.Sel.Name
}
