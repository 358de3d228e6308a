package lint

import (
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
)

// passStagesafe is the interprocedural staging-contract pass. The sharded
// executor (internal/shard) runs each cycle's events on several cores at
// once; the contract that keeps the run bit-identical to serial is that
// model code reached during event execution never mutates globally
// visible state directly — it goes through its execution context
// (network.ShardState: emit/Count/Birth/After), whose one decision point
// is the `sharded` guard: code after an early-returning `if x.sharded`
// branch is the serial path, which the parallel phase never executes.
//
// The pass mechanizes that contract:
//
//   - Roots: every Act, Execute, or Record method declared in a
//     determinism-scope package (Act/Execute are the sim.Actor entry
//     points the kernel and the shard executor dispatch into; Record is
//     the sim.Recorder entry point Stage.RunWindow invokes on the
//     parallel phase after every in-window event).
//   - Graph: call edges between module functions, resolved through
//     go/types and keyed by (package, receiver, name) so edges cross
//     package boundaries. An edge taken only inside a serial-guarded
//     region does not propagate reachability — the parallel phase cannot
//     take it.
//   - Guard: the fall-through after `if x.sharded { …; return … }`. No
//     other shape is recognized; an else branch is not a guard.
//   - Mutations, flagged when reachable outside any guard: scalar field
//     writes on a multi-shard actor (a type whose ShardOf consults the
//     event, so its state is visible to every shard — detected by ShardOf
//     declaring any named parameter), kernel schedules through
//     (*sim.Kernel).At/After/AtAct/AfterAct (Cancel is sanctioned: staged
//     handles honor same-shard cancels), and invocations of func-typed
//     observer fields on a multi-shard actor.
//
// Element writes into slice/map fields (slab[i] = …) are deliberately out
// of scope: their shard ownership depends on index provenance, which the
// golden-trace shards-vs-serial suite pins instead. Test files are
// excluded entirely — tests drive and mutate instances serially.
func passStagesafe(pkgs []*pkgUnit) []Finding {
	a := &ssAnalysis{
		funcs:      map[string]*ssFunc{},
		multiShard: map[string]bool{},
	}
	for _, p := range pkgs {
		if !p.scope.determinism {
			continue
		}
		a.indexActors(p)
	}
	for _, p := range pkgs {
		if !p.scope.determinism {
			continue
		}
		a.indexFuncs(p)
	}
	return a.report()
}

// ssFunc is one module function's stagesafe summary: its outgoing call
// edges and its mutation sites, each tagged with whether the site is
// serial-guarded.
type ssFunc struct {
	key   string
	unit  *pkgUnit
	edges []ssEdge
	muts  []ssMut
	root  bool
}

type ssEdge struct {
	callee  string
	guarded bool
}

type ssMut struct {
	pos     token.Pos
	what    string
	guarded bool
}

type ssAnalysis struct {
	funcs      map[string]*ssFunc
	multiShard map[string]bool // "<pkgRel>.<Type>" whose ShardOf consults the event
}

// funcKey identifies a function across compilation units: module-relative
// package path, receiver type name ("" for plain functions), and name.
func funcKey(rel, recv, name string) string { return rel + ":" + recv + "." + name }

// moduleRel maps an import path to its module-relative form; ok=false for
// packages outside the linted module.
func moduleRel(path, module string) (string, bool) {
	if path == module {
		return "", true
	}
	if rest, ok := strings.CutPrefix(path, module+"/"); ok {
		return rest, true
	}
	return "", false
}

// recvName extracts the receiver type name from a method declaration.
func recvName(fd *ast.FuncDecl) string {
	if fd.Recv == nil || len(fd.Recv.List) == 0 {
		return ""
	}
	t := fd.Recv.List[0].Type
	if star, ok := t.(*ast.StarExpr); ok {
		t = star.X
	}
	if id, ok := t.(*ast.Ident); ok {
		return id.Name
	}
	return ""
}

// indexActors records every multi-shard actor type: a ShardOf
// implementation with at least one named parameter consults the event to
// pick the shard, which means events touching the same receiver can land
// on different shards and the receiver's state is globally visible.
// (Single-shard actors — Router, Terminal — declare ShardOf with all
// parameters blank: their events always run on the owner's shard, so
// receiver-local writes are shard-private.)
func (a *ssAnalysis) indexActors(p *pkgUnit) {
	for _, f := range p.files {
		if fileIsTest(p, f) {
			continue
		}
		for _, d := range f.Decls {
			fd, ok := d.(*ast.FuncDecl)
			if !ok || fd.Name.Name != "ShardOf" || fd.Recv == nil {
				continue
			}
			for _, param := range fd.Type.Params.List {
				for _, n := range param.Names {
					if n.Name != "_" {
						a.multiShard[p.rel+"."+recvName(fd)] = true
					}
				}
			}
		}
	}
}

// indexFuncs builds the per-function summaries for one unit.
func (a *ssAnalysis) indexFuncs(p *pkgUnit) {
	for _, f := range p.files {
		if fileIsTest(p, f) {
			continue
		}
		for _, d := range f.Decls {
			fd, ok := d.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			fn := &ssFunc{
				key:  funcKey(p.rel, recvName(fd), fd.Name.Name),
				unit: p,
				root: fd.Recv != nil && (fd.Name.Name == "Act" || fd.Name.Name == "Execute" || fd.Name.Name == "Record"),
			}
			a.block(p, fn, fd.Body.List, false)
			a.funcs[fn.key] = fn
		}
	}
}

// isShardedSel recognizes the guard selector `x.sharded` by field name —
// the idiom docs/STATE.md and internal/network/shard.go pin.
func isShardedSel(e ast.Expr) bool {
	sel, ok := e.(*ast.SelectorExpr)
	return ok && sel.Sel.Name == "sharded"
}

func typeOf(p *pkgUnit, e ast.Expr) types.Type {
	if id, ok := e.(*ast.Ident); ok {
		if obj := p.info.Uses[id]; obj != nil {
			return obj.Type()
		}
	}
	if tv, ok := p.info.Types[e]; ok {
		return tv.Type
	}
	return nil
}

// blockReturns reports whether the block ends in a return (the guard
// shape `if x.sharded { …; return … }`).
func blockReturns(b *ast.BlockStmt) bool {
	if len(b.List) == 0 {
		return false
	}
	_, ok := b.List[len(b.List)-1].(*ast.ReturnStmt)
	return ok
}

// block walks one statement list. guarded=true means the statements can
// only execute on the serial path; stmt's return value carries the
// upgraded guard for statements after an early-returning sharded branch.
func (a *ssAnalysis) block(p *pkgUnit, fn *ssFunc, stmts []ast.Stmt, guarded bool) {
	for _, s := range stmts {
		guarded = a.stmt(p, fn, s, guarded)
	}
}

func (a *ssAnalysis) stmt(p *pkgUnit, fn *ssFunc, s ast.Stmt, guarded bool) bool {
	switch s := s.(type) {
	case *ast.IfStmt:
		if s.Init != nil {
			a.stmt(p, fn, s.Init, guarded)
		}
		a.expr(p, fn, s.Cond, guarded)
		a.block(p, fn, s.Body.List, guarded)
		if s.Else != nil {
			a.elseBranch(p, fn, s.Else, guarded)
		}
		if isShardedSel(s.Cond) && blockReturns(s.Body) {
			return true // the staged path returned; the rest is serial
		}
	case *ast.BlockStmt:
		a.block(p, fn, s.List, guarded)
	case *ast.ForStmt:
		if s.Init != nil {
			a.stmt(p, fn, s.Init, guarded)
		}
		if s.Cond != nil {
			a.expr(p, fn, s.Cond, guarded)
		}
		if s.Post != nil {
			a.stmt(p, fn, s.Post, guarded)
		}
		a.block(p, fn, s.Body.List, guarded)
	case *ast.RangeStmt:
		a.expr(p, fn, s.X, guarded)
		a.block(p, fn, s.Body.List, guarded)
	case *ast.SwitchStmt:
		if s.Init != nil {
			a.stmt(p, fn, s.Init, guarded)
		}
		if s.Tag != nil {
			a.expr(p, fn, s.Tag, guarded)
		}
		for _, c := range s.Body.List {
			if cc, ok := c.(*ast.CaseClause); ok {
				for _, e := range cc.List {
					a.expr(p, fn, e, guarded)
				}
				a.block(p, fn, cc.Body, guarded)
			}
		}
	case *ast.TypeSwitchStmt:
		if s.Init != nil {
			a.stmt(p, fn, s.Init, guarded)
		}
		a.stmt(p, fn, s.Assign, guarded)
		for _, c := range s.Body.List {
			if cc, ok := c.(*ast.CaseClause); ok {
				a.block(p, fn, cc.Body, guarded)
			}
		}
	case *ast.SelectStmt:
		for _, c := range s.Body.List {
			if cc, ok := c.(*ast.CommClause); ok {
				if cc.Comm != nil {
					a.stmt(p, fn, cc.Comm, guarded)
				}
				a.block(p, fn, cc.Body, guarded)
			}
		}
	case *ast.LabeledStmt:
		return a.stmt(p, fn, s.Stmt, guarded)
	case *ast.ExprStmt:
		a.expr(p, fn, s.X, guarded)
	case *ast.SendStmt:
		a.expr(p, fn, s.Chan, guarded)
		a.expr(p, fn, s.Value, guarded)
	case *ast.GoStmt:
		a.expr(p, fn, s.Call, guarded)
	case *ast.DeferStmt:
		a.expr(p, fn, s.Call, guarded)
	case *ast.ReturnStmt:
		for _, e := range s.Results {
			a.expr(p, fn, e, guarded)
		}
	case *ast.AssignStmt:
		for _, l := range s.Lhs {
			a.writeTarget(p, fn, l, guarded)
			a.expr(p, fn, l, guarded)
		}
		for _, r := range s.Rhs {
			a.expr(p, fn, r, guarded)
		}
	case *ast.IncDecStmt:
		a.writeTarget(p, fn, s.X, guarded)
		a.expr(p, fn, s.X, guarded)
	case *ast.DeclStmt:
		if gd, ok := s.Decl.(*ast.GenDecl); ok {
			for _, spec := range gd.Specs {
				if vs, ok := spec.(*ast.ValueSpec); ok {
					for _, v := range vs.Values {
						a.expr(p, fn, v, guarded)
					}
				}
			}
		}
	}
	return guarded
}

func (a *ssAnalysis) elseBranch(p *pkgUnit, fn *ssFunc, s ast.Stmt, guarded bool) {
	switch s := s.(type) {
	case *ast.BlockStmt:
		a.block(p, fn, s.List, guarded)
	default: // else-if chain
		a.stmt(p, fn, s, guarded)
	}
}

// writeTarget records a mutation when the assignment target is a scalar
// field of a multi-shard actor (n.Delivered++, r.net.InjectedPackets = …).
// Element writes (slab[i] = …) are excluded by construction: the target
// must be the selector itself.
func (a *ssAnalysis) writeTarget(p *pkgUnit, fn *ssFunc, e ast.Expr, guarded bool) {
	sel, ok := e.(*ast.SelectorExpr)
	if !ok {
		return
	}
	if s := p.info.Selections[sel]; s == nil || s.Kind() != types.FieldVal {
		return
	}
	owner, ok := a.multiShardOwner(p, sel.X)
	if !ok {
		return
	}
	fn.muts = append(fn.muts, ssMut{
		pos:     sel.Pos(),
		what:    "unstaged write to " + owner + "." + sel.Sel.Name + ", shared state visible to every shard",
		guarded: guarded,
	})
}

// multiShardOwner resolves an expression's (dereferenced) type and
// reports it as "pkg.Type" when it is a multi-shard actor.
func (a *ssAnalysis) multiShardOwner(p *pkgUnit, e ast.Expr) (string, bool) {
	t := typeOf(p, e)
	if t == nil {
		return "", false
	}
	if ptr, ok := t.(*types.Pointer); ok {
		t = ptr.Elem()
	}
	named, ok := t.(*types.Named)
	if !ok || named.Obj().Pkg() == nil {
		return "", false
	}
	rel, ok := moduleRel(named.Obj().Pkg().Path(), p.module)
	if !ok || !a.multiShard[rel+"."+named.Obj().Name()] {
		return "", false
	}
	return pkgBase(rel) + "." + named.Obj().Name(), true
}

func pkgBase(rel string) string {
	if i := strings.LastIndexByte(rel, '/'); i >= 0 {
		return rel[i+1:]
	}
	if rel == "" {
		return "main"
	}
	return rel
}

// kernelSchedules are the (*sim.Kernel) methods that enqueue events.
// Cancel is sanctioned: staged events carry live handles precisely so
// same-shard cancels work unchanged during the parallel phase.
var kernelSchedules = map[string]bool{
	"AtAct": true, "AfterAct": true,
}

// expr inspects an expression tree for calls (edges and call-shaped
// mutations). Function literals are walked as statements so nested guard
// idioms keep their meaning.
func (a *ssAnalysis) expr(p *pkgUnit, fn *ssFunc, e ast.Expr, guarded bool) {
	ast.Inspect(e, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.FuncLit:
			a.block(p, fn, n.Body.List, guarded)
			return false
		case *ast.CallExpr:
			a.call(p, fn, n, guarded)
		}
		return true
	})
}

func (a *ssAnalysis) call(p *pkgUnit, fn *ssFunc, call *ast.CallExpr, guarded bool) {
	fun := call.Fun
	for {
		if paren, ok := fun.(*ast.ParenExpr); ok {
			fun = paren.X
			continue
		}
		break
	}
	switch f := fun.(type) {
	case *ast.Ident:
		if obj, ok := p.info.Uses[f].(*types.Func); ok && obj.Pkg() != nil {
			if rel, ok := moduleRel(obj.Pkg().Path(), p.module); ok {
				fn.edges = append(fn.edges, ssEdge{callee: funcKey(rel, "", f.Name), guarded: guarded})
			}
		}
	case *ast.SelectorExpr:
		if s := p.info.Selections[f]; s != nil {
			switch s.Kind() {
			case types.MethodVal:
				m, ok := s.Obj().(*types.Func)
				if !ok || m.Pkg() == nil {
					return
				}
				rel, ok := moduleRel(m.Pkg().Path(), p.module)
				if !ok {
					return
				}
				recv := methodRecvName(m)
				if rel == "internal/sim" && recv == "Kernel" && kernelSchedules[m.Name()] {
					fn.muts = append(fn.muts, ssMut{
						pos:     call.Pos(),
						what:    "unstaged kernel schedule (*sim.Kernel)." + m.Name() + ", which mutates the shared calendar",
						guarded: guarded,
					})
					return
				}
				fn.edges = append(fn.edges, ssEdge{callee: funcKey(rel, recv, m.Name()), guarded: guarded})
			case types.FieldVal:
				if _, isFunc := s.Type().Underlying().(*types.Signature); !isFunc {
					return
				}
				if owner, ok := a.multiShardOwner(p, f.X); ok {
					fn.muts = append(fn.muts, ssMut{
						pos:     call.Pos(),
						what:    "unstaged observer invocation " + owner + "." + f.Sel.Name + ", an effect every shard can see",
						guarded: guarded,
					})
				}
			}
			return
		}
		// Package-qualified call pkg.F(...).
		if id, ok := f.X.(*ast.Ident); ok {
			if pn, ok := p.info.Uses[id].(*types.PkgName); ok {
				if rel, ok := moduleRel(pn.Imported().Path(), p.module); ok {
					fn.edges = append(fn.edges, ssEdge{callee: funcKey(rel, "", f.Sel.Name), guarded: guarded})
				}
			}
		}
	}
}

func methodRecvName(m *types.Func) string {
	sig, ok := m.Type().(*types.Signature)
	if !ok || sig.Recv() == nil {
		return ""
	}
	t := sig.Recv().Type()
	if ptr, ok := t.(*types.Pointer); ok {
		t = ptr.Elem()
	}
	if named, ok := t.(*types.Named); ok {
		return named.Obj().Name()
	}
	return ""
}

// report runs the reachability sweep from the Act/Execute roots along
// unguarded edges and turns every reachable unguarded mutation into a
// finding naming the entry point that reaches it.
func (a *ssAnalysis) report() []Finding {
	var roots []string
	for key, fn := range a.funcs {
		if fn.root {
			roots = append(roots, key)
		}
	}
	sort.Strings(roots)

	rootOf := map[string]string{}
	queue := make([]string, 0, len(roots))
	for _, r := range roots {
		rootOf[r] = r
		queue = append(queue, r)
	}
	for len(queue) > 0 {
		key := queue[0]
		queue = queue[1:]
		fn := a.funcs[key]
		for _, e := range fn.edges {
			if e.guarded {
				continue
			}
			callee, ok := a.funcs[e.callee]
			if !ok {
				continue
			}
			if _, seen := rootOf[e.callee]; seen {
				continue
			}
			rootOf[e.callee] = rootOf[key]
			queue = append(queue, callee.key)
		}
	}

	var out []Finding
	for key, root := range rootOf {
		fn := a.funcs[key]
		for _, m := range fn.muts {
			if m.guarded {
				continue
			}
			file, line, col := fn.unit.position(m.pos)
			out = append(out, Finding{
				File: file, Line: line, Col: col, Pass: "stagesafe",
				Msg: m.what + ", is reachable from " + displayKey(root) +
					" during the parallel phase; route it through the execution context (ShardState emit/Count/Birth/After) or place it after an early-returning `if x.sharded` branch",
			})
		}
	}
	return out
}

// displayKey renders a function key for diagnostics: "(network.Router).Act".
func displayKey(key string) string {
	rel, rest, _ := strings.Cut(key, ":")
	recv, name, _ := strings.Cut(rest, ".")
	if recv == "" {
		return pkgBase(rel) + "." + name
	}
	return "(" + pkgBase(rel) + "." + recv + ")." + name
}
