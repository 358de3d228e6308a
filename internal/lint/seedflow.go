package lint

import (
	"go/ast"
	"go/token"
)

// passSeedflow enforces the seed-derivation contract: component RNGs are
// built through internal/rng, and distinct streams are separated with
// rng.DeriveSeed rather than ad-hoc arithmetic. rand.New(rand.NewSource(…))
// bypasses the per-component stream scheme entirely; seed+i-style
// arithmetic invites stream collisions and silently couples streams that
// the determinism docs promise are independent. Skips _test.go files —
// tests may build fixture seeds however they like.
func passSeedflow(p *pkgUnit) []Finding {
	var out []Finding
	for _, f := range p.files {
		if fileIsTest(p, f) {
			continue
		}
		ast.Inspect(f, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			pkgPath, name := selectorTarget(p, call.Fun)
			switch {
			case isMathRand(pkgPath) && (name == "New" || name == "NewSource" || name == "NewPCG" || name == "NewChaCha8"):
				out = append(out, p.finding(call.Pos(), "seedflow", "rand."+name+" constructs an RNG outside internal/rng; "+
					"use rng.New with a seed from rng.DeriveSeed so streams stay per-component and reproducible"))
			case pkgPath == p.rngPath && name == "New" && len(call.Args) == 1:
				if arith := findSeedArith(p, call.Args[0]); arith != nil {
					out = append(out, p.finding(arith.Pos(), "seedflow", "ad-hoc seed arithmetic in the rng.New argument; "+
						"fold labels into the seed with rng.DeriveSeed(base, labels...) instead"))
				}
			}
			return true
		})
	}
	return out
}

// seedArithOps are the operators that constitute ad-hoc seed derivation
// when they appear in a seed expression.
var seedArithOps = map[token.Token]bool{
	token.ADD: true, token.SUB: true, token.MUL: true, token.QUO: true, token.REM: true,
	token.XOR: true, token.OR: true, token.AND: true, token.AND_NOT: true,
	token.SHL: true, token.SHR: true,
}

// findSeedArith returns the first binary arithmetic expression inside a
// seed argument, without descending into rng.DeriveSeed calls — DeriveSeed
// is the blessed mixer, and label expressions inside it are its business.
func findSeedArith(p *pkgUnit, arg ast.Expr) ast.Expr {
	var found ast.Expr
	ast.Inspect(arg, func(n ast.Node) bool {
		if found != nil {
			return false
		}
		if call, ok := n.(*ast.CallExpr); ok {
			if pkgPath, name := selectorTarget(p, call.Fun); pkgPath == p.rngPath && name == "DeriveSeed" {
				return false
			}
		}
		if b, ok := n.(*ast.BinaryExpr); ok && seedArithOps[b.Op] {
			found = b
			return false
		}
		return true
	})
	return found
}
