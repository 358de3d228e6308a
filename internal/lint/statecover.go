package lint

import (
	"go/ast"
	"go/types"
)

// passStatecover is the field-coverage half of the interprocedural suite:
// it mechanizes the docs/STATE.md "adding mutable state" checklist.
//
// Snapshot/Restore coverage: for every struct type that owns both a
// Snapshot and a Restore method, each of its fields must be referenced on
// the capture path (the Snapshot method plus every same-package function
// it transitively calls) AND on the restore path (likewise from Restore).
// A field that is legitimately outside the contract — an observer rebound
// by the caller, a pool rebuilt lazily, wiring that Build reconstructs —
// must say so on its declaration:
//
//	//hxlint:state ephemeral — <why the field needs no snapshot coverage>
//
// Key coverage: a package that declares a Config struct with a configKey
// function (or RunOpts with optsKey) promises that the checkpoint key is
// a complete fingerprint of the struct. Every field must be referenced in
// the key function (helpers followed transitively) or carry:
//
//	//hxlint:key excluded — <why the field may be absent from the key>
//
// A missed field in either contract is exactly the bug class that golden
// traces catch only after a divergent run: a restored instance silently
// resuming with stale state, or two different configs colliding on one
// cached result. Test files are excluded throughout.
func passStatecover(pkgs []*pkgUnit, dirs directiveIndex) []Finding {
	var out []Finding
	for _, p := range pkgs {
		if p.passes&statecover == 0 {
			continue
		}
		sc := &scUnit{p: p, decls: map[scDeclKey]*ast.FuncDecl{}, structs: map[string]*ast.StructType{}}
		sc.index()
		out = append(out, sc.checkSnapshots(dirs)...)
		out = append(out, sc.checkKeys(dirs)...)
	}
	return out
}

// scDeclKey identifies a function declaration within one package.
type scDeclKey struct {
	recv string // receiver type name, "" for plain functions
	name string
}

type scUnit struct {
	p       *pkgUnit
	decls   map[scDeclKey]*ast.FuncDecl
	structs map[string]*ast.StructType // named struct types of the package
}

func (sc *scUnit) index() {
	for _, f := range sc.p.files {
		if fileIsTest(sc.p, f) {
			continue
		}
		for _, d := range f.Decls {
			switch d := d.(type) {
			case *ast.FuncDecl:
				if d.Body != nil {
					sc.decls[scDeclKey{recv: recvName(sc.p.info.TypeOf(d.Name)), name: d.Name.Name}] = d
				}
			case *ast.GenDecl:
				for _, spec := range d.Specs {
					if ts, ok := spec.(*ast.TypeSpec); ok {
						if st, ok := ts.Type.(*ast.StructType); ok {
							sc.structs[ts.Name.Name] = st
						}
					}
				}
			}
		}
	}
}

// fieldRefs walks the same-package call closure from the given
// declaration and collects every field of the named type referenced
// anywhere in it (r.now, inst.net, cfg.Seed — any selection whose
// receiver is the type, directly or through a pointer).
func (sc *scUnit) fieldRefs(start scDeclKey, typeName string) map[string]bool {
	refs := map[string]bool{}
	visited := map[scDeclKey]bool{}
	queue := []scDeclKey{start}
	for len(queue) > 0 {
		key := queue[0]
		queue = queue[1:]
		if visited[key] {
			continue
		}
		visited[key] = true
		fd, ok := sc.decls[key]
		if !ok {
			continue
		}
		ast.Inspect(fd.Body, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.SelectorExpr:
				if s := sc.p.info.Selections[n]; s != nil && s.Kind() == types.FieldVal {
					if recvName(s.Recv()) == typeName {
						refs[n.Sel.Name] = true
					}
				}
			case *ast.CallExpr:
				if callee, ok := sc.resolveCall(n); ok {
					queue = append(queue, callee)
				}
			}
			return true
		})
	}
	return refs
}

// resolveCall maps a call expression to a same-package declaration key.
func (sc *scUnit) resolveCall(call *ast.CallExpr) (scDeclKey, bool) {
	switch f := call.Fun.(type) {
	case *ast.Ident:
		if obj, ok := sc.p.info.Uses[f].(*types.Func); ok && obj.Pkg() != nil && obj.Pkg().Path() == sc.p.importPath {
			return scDeclKey{name: f.Name}, true
		}
	case *ast.SelectorExpr:
		if s := sc.p.info.Selections[f]; s != nil && s.Kind() == types.MethodVal {
			if m, ok := s.Obj().(*types.Func); ok && m.Pkg() != nil && m.Pkg().Path() == sc.p.importPath {
				return scDeclKey{recv: recvName(m.Type()), name: m.Name()}, true
			}
		}
	}
	return scDeclKey{}, false
}

// checkSnapshots enforces the Snapshot/Restore field contract for every
// struct of the unit owning both methods.
func (sc *scUnit) checkSnapshots(dirs directiveIndex) []Finding {
	var out []Finding
	for typeName, st := range sc.structs {
		snap := scDeclKey{recv: typeName, name: "Snapshot"}
		rest := scDeclKey{recv: typeName, name: "Restore"}
		if sc.decls[snap] == nil || sc.decls[rest] == nil {
			continue
		}
		capture := sc.fieldRefs(snap, typeName)
		restore := sc.fieldRefs(rest, typeName)
		for _, field := range st.Fields.List {
			for _, name := range fieldNames(field) {
				inCap, inRest := capture[name], restore[name]
				if inCap && inRest {
					continue
				}
				f := sc.p.finding(field.Pos(), "statecover", "field "+typeName+"."+name+" is not referenced on "+missingSides(inCap, inRest)+
					" of the Snapshot/Restore pair; a restored instance would resume with stale state — cover it on both paths or annotate //hxlint:state ephemeral — <reason>")
				if !dirs.use("state", f.File, f.Line) {
					out = append(out, f)
				}
			}
		}
	}
	return out
}

// keyContracts maps a struct name to the key-building function that must
// fingerprint every one of its fields.
var keyContracts = map[string]string{
	"Config":  "configKey",
	"RunOpts": "optsKey",
}

// checkKeys enforces the checkpoint-key field contract for every
// Config/RunOpts struct whose package declares the partner key function.
func (sc *scUnit) checkKeys(dirs directiveIndex) []Finding {
	var out []Finding
	for typeName, keyFn := range keyContracts {
		st := sc.structs[typeName]
		if st == nil || sc.decls[scDeclKey{name: keyFn}] == nil {
			continue
		}
		keyed := sc.fieldRefs(scDeclKey{name: keyFn}, typeName)
		for _, field := range st.Fields.List {
			for _, name := range fieldNames(field) {
				if keyed[name] {
					continue
				}
				f := sc.p.finding(field.Pos(), "statecover", "field "+typeName+"."+name+" is absent from "+keyFn+
					"; two runs differing only in it would collide on one cached checkpoint — add it to the key or annotate //hxlint:key excluded — <reason>")
				if !dirs.use("key", f.File, f.Line) {
					out = append(out, f)
				}
			}
		}
	}
	return out
}

func fieldNames(f *ast.Field) []string {
	if len(f.Names) == 0 { // embedded field: named after its type
		t := f.Type
		if star, ok := t.(*ast.StarExpr); ok {
			t = star.X
		}
		switch t := t.(type) {
		case *ast.Ident:
			return []string{t.Name}
		case *ast.SelectorExpr:
			return []string{t.Sel.Name}
		}
		return nil
	}
	var names []string
	for _, n := range f.Names {
		if n.Name != "_" {
			names = append(names, n.Name)
		}
	}
	return names
}

func missingSides(inCap, inRest bool) string {
	switch {
	case !inCap && !inRest:
		return "either path"
	case !inCap:
		return "the capture path"
	default:
		return "the restore path"
	}
}
