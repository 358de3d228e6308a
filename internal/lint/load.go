package lint

import (
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"os"
	"path/filepath"
	"sort"
	"strings"
)

// passSet is a set of pass bits, one per pass in the passes table.
type passSet uint8

const (
	nodeterm passSet = 1 << iota
	seedflow
	noconc
	maporder
	allocfree
	statecover
)

// simPasses is the determinism scope: packages that run inside a
// simulation instance — single-threaded, seed-driven, and forbidden from
// touching wall-clock or global RNG state. emitPasses is the CSV/manifest
// emission path, where only iteration order matters.
const (
	simPasses  = nodeterm | seedflow | noconc | maporder | statecover
	emitPasses = maporder | statecover
)

// scopes is the one scope table: module-relative package path ("" is the
// root package, "cmd" stands for every cmd/ binary) to the passes that
// apply to it. Packages absent from it are not linted.
//
// allocfree covers the per-event data path — kernel, router pipeline,
// candidate generation — whose steady state must not allocate (see the
// AllocsPerRun suites those packages carry).
//
// internal/shard and internal/serve skip noconc and keep the rest of the
// determinism scope. internal/shard is the barrier-synchronized sharded
// executor, whose whole purpose is in-instance concurrency; its
// determinism rests on a replay contract — staged effects merge in global
// (router, seq) order at every window boundary — proven by the
// golden-trace equivalence suite and the -race CI target, not by the
// absence of goroutines. internal/serve is the sweep service's job queue
// and executor pool: its goroutines dispatch whole simulations, never run
// inside one, and the httptest + stampede suite under -race pins it.
// Wall-clock and global-RNG bans still apply to both in full — serve
// routes timestamps through an injectable clock for exactly this reason.
var scopes = map[string]passSet{
	"internal/sim":      simPasses | allocfree,
	"internal/network":  simPasses | allocfree,
	"internal/core":     simPasses | allocfree,
	"internal/routing":  simPasses | allocfree,
	"internal/route":    simPasses | allocfree,
	"internal/traffic":  simPasses,
	"internal/topology": simPasses,
	"internal/stats":    simPasses,
	"internal/app":      simPasses,
	"internal/shard":    simPasses &^ noconc,
	"internal/serve":    simPasses &^ noconc,
	"":                  emitPasses,
	"internal/harness":  emitPasses,
	"cmd":               emitPasses,
}

// pkgUnit is one type-checked compilation unit: either a package together
// with its in-package tests, or an external _test package.
type pkgUnit struct {
	importPath string
	rel        string // module-relative dir, "" for root
	passes     passSet
	fset       *token.FileSet
	files      []*ast.File
	names      map[string]string // absolute filename -> root-relative path
	info       *types.Info
	rngPath    string // import path of the module's rng package
}

// relFile returns the module-root-relative path of the file containing pos.
func (p *pkgUnit) relFile(pos token.Pos) string {
	name := p.fset.Position(pos).Filename
	if rel, ok := p.names[name]; ok {
		return rel
	}
	return name
}

// finding builds pass's diagnostic at pos.
func (p *pkgUnit) finding(pos token.Pos, pass, msg string) Finding {
	ps := p.fset.Position(pos)
	return Finding{File: p.relFile(pos), Line: ps.Line, Col: ps.Column, Pass: pass, Msg: msg}
}

// scopeOf looks a module-relative package path up in scopes.
func scopeOf(rel string) passSet {
	if strings.HasPrefix(rel, "cmd/") {
		rel = "cmd"
	}
	return scopes[rel]
}

// load walks the module at root and type-checks every in-scope package,
// including its test files, in sorted directory order. Out-of-scope
// packages are only loaded on demand, as dependencies, via the module
// importer. No pass compares types across units, so a unit's module
// imports are the importer's own source checks, not the unit itself.
func load(root string) ([]*pkgUnit, error) {
	module, err := moduleName(root)
	if err != nil {
		return nil, err
	}
	fset := token.NewFileSet()
	im := newModuleImporter(root, module, fset)

	var dirs []string
	err = filepath.WalkDir(root, func(path string, d os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if !d.IsDir() {
			return nil
		}
		name := d.Name()
		if path != root && (strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_") || name == "testdata") {
			return filepath.SkipDir
		}
		dirs = append(dirs, path)
		return nil
	})
	if err != nil {
		return nil, err
	}
	sort.Strings(dirs)

	var out []*pkgUnit
	for _, dir := range dirs {
		rel, err := filepath.Rel(root, dir)
		if err != nil {
			return nil, err
		}
		rel = filepath.ToSlash(rel)
		if rel == "." {
			rel = ""
		}
		if scopeOf(rel) == 0 {
			continue
		}
		units, err := loadDir(root, dir, rel, module, fset, im)
		if err != nil {
			return nil, err
		}
		out = append(out, units...)
	}
	return out, nil
}

// loadDir parses every .go file of dir and type-checks it as up to two
// units: the package proper (with in-package tests) and, when present,
// the external _test package.
func loadDir(root, dir, rel, module string, fset *token.FileSet, im *moduleImporter) ([]*pkgUnit, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	// ReadDir sorts by name, so each package's files arrive in
	// root-relative path order.
	byPkg := map[string][]*ast.File{}
	names := map[string]string{}
	for _, e := range entries {
		if e.IsDir() || !strings.HasSuffix(e.Name(), ".go") {
			continue
		}
		path := filepath.Join(dir, e.Name())
		f, err := parser.ParseFile(fset, path, nil, parser.ParseComments)
		if err != nil {
			return nil, err
		}
		byPkg[f.Name.Name] = append(byPkg[f.Name.Name], f)
		relName, err := filepath.Rel(root, path)
		if err != nil {
			return nil, err
		}
		names[path] = filepath.ToSlash(relName)
	}

	importPath := module
	if rel != "" {
		importPath = module + "/" + rel
	}
	var pkgNames []string
	for name := range byPkg { // deterministic unit order for stable output
		pkgNames = append(pkgNames, name)
	}
	sort.Strings(pkgNames)

	var out []*pkgUnit
	for _, name := range pkgNames {
		files := byPkg[name]
		ipath := importPath
		if strings.HasSuffix(name, "_test") {
			ipath += "_test"
		}
		u := &pkgUnit{
			importPath: importPath,
			rel:        rel,
			passes:     scopeOf(rel),
			fset:       fset,
			files:      files,
			names:      names,
			rngPath:    module + "/internal/rng",
			info: &types.Info{
				Types:      map[ast.Expr]types.TypeAndValue{},
				Uses:       map[*ast.Ident]types.Object{},
				Defs:       map[*ast.Ident]types.Object{},
				Selections: map[*ast.SelectorExpr]*types.Selection{},
			},
		}
		// Best-effort check: the Error hook makes the checker push past
		// type errors, leaving unresolvable expressions untyped rather
		// than aborting the lint run.
		conf := types.Config{Importer: im, Error: func(error) {}}
		conf.Check(ipath, fset, files, u.info)
		out = append(out, u)
	}
	return out, nil
}

// moduleName reads the module path from root/go.mod.
func moduleName(root string) (string, error) {
	data, err := os.ReadFile(filepath.Join(root, "go.mod"))
	if err != nil {
		return "", fmt.Errorf("lint: %s is not a module root: %w", root, err)
	}
	for _, line := range strings.Split(string(data), "\n") {
		line = strings.TrimSpace(line)
		if rest, ok := strings.CutPrefix(line, "module"); ok {
			if name := strings.TrimSpace(rest); name != "" {
				return strings.Trim(name, `"`), nil
			}
		}
	}
	return "", fmt.Errorf("lint: no module line in %s/go.mod", root)
}

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

// moduleImporter resolves imports for the type checker: module-internal
// packages are type-checked from source inside the linted tree (test
// files excluded, as for a real build), everything else — in practice the
// standard library, since the simulator has no external dependencies —
// comes from the source importer over GOROOT.
type moduleImporter struct {
	root    string
	module  string
	fset    *token.FileSet
	std     types.Importer
	pkgs    map[string]*types.Package
	loading map[string]bool
}

func newModuleImporter(root, module string, fset *token.FileSet) *moduleImporter {
	return &moduleImporter{
		root:    root,
		module:  module,
		fset:    fset,
		std:     importer.ForCompiler(fset, "source", nil),
		pkgs:    map[string]*types.Package{},
		loading: map[string]bool{},
	}
}

func (im *moduleImporter) Import(path string) (*types.Package, error) {
	if p, ok := im.pkgs[path]; ok {
		return p, nil
	}
	rel, inModule := moduleRel(path, im.module)
	if !inModule {
		p, err := im.std.Import(path)
		if err != nil {
			return nil, err
		}
		im.pkgs[path] = p
		return p, nil
	}
	if im.loading[path] {
		return nil, fmt.Errorf("lint: import cycle through %s", path)
	}
	im.loading[path] = true
	defer delete(im.loading, path)

	dir := filepath.Join(im.root, filepath.FromSlash(rel))
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, fmt.Errorf("lint: cannot import %s: %w", path, err)
	}
	var files []*ast.File
	var fnames []string
	for _, e := range entries {
		n := e.Name()
		if e.IsDir() || !strings.HasSuffix(n, ".go") || strings.HasSuffix(n, "_test.go") {
			continue
		}
		fnames = append(fnames, filepath.Join(dir, n))
	}
	sort.Strings(fnames)
	for _, fn := range fnames {
		f, err := parser.ParseFile(im.fset, fn, nil, 0)
		if err != nil {
			return nil, err
		}
		files = append(files, f)
	}
	if len(files) == 0 {
		return nil, fmt.Errorf("lint: no Go files for %s in %s", path, dir)
	}
	conf := types.Config{Importer: im, Error: func(error) {}}
	pkg, _ := conf.Check(path, im.fset, files, nil)
	if pkg == nil {
		return nil, fmt.Errorf("lint: type-checking %s failed", path)
	}
	im.pkgs[path] = pkg
	return pkg, nil
}
