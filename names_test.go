package repro

// Guards against code that nothing runs, built on one shared go/types pass
// over the module's non-test files (bench/, cmd/, examples/ and this facade
// count as callers). A reference counts only when the type checker resolves
// it to the declared object, so a name another type also spells is no
// reference. A method counts as called when its type satisfies an
// interface that declares it: one of the module's, one of a package the
// module imports, or error. A selection through an embedded field reads
// that field.
//
// A name the guards flag is deleted when nothing calls it or only its own
// package's tests do (those tests read unexported state instead); a
// reference implementation its package's tests compare against moves into
// that package's _test.go; a name another package's test checks the model
// through is allowlisted with the reason.

import (
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io/fs"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"testing"
)

// callerAllowlist holds the internal/ package-level names and methods that
// stay without a non-test caller, each with the reason. Keys are
// "pkg.Name" for package-level names and "pkg.Type.Name" for methods; a
// key "pkg" covers a whole package.
var callerAllowlist = map[string]string{
	"sweep.PointError.Unwrap": "errors.Is and errors.As call it",

	// The bench/ ledger's snapshot layer is the package's only importer.
	"snap": "imported only by bench/layers.go; the package goes when the bench drops its snapshot layer",

	// Names a test in another package checks the model through.
	"fabric.Fabric.ChannelStats":      "core's TestSubgroupTreesSpreadAcrossSpines and coll's TestINCSendPathDominates read per-channel counters through it",
	"fabric.Fabric.SwitchEgressBytes": "core's TestTrafficOptimality and coll's TestRingVsLinearTraffic compare switch egress bytes through it",
	"fabric.Fabric.ReducedChunks":     "coll's TestINCReduceScatter checks that the switches reduced every chunk through it",
	"fabric.Fabric.MaxBacklog":        "core's TestSequencerLimitsIncast compares the worst switch-port backlog through it",
	"model.MaxBufferFittingLLC":       "manifest's TestCostSections pins manifests/cost.json's Figure 7 note against it",
	"model.CommunicatorsFittingLLC":   "manifest's TestCostSections pins manifests/cost.json's Figure 7 note against it",
	"sim.Engine.Pending":              "scenario's TestFlapDropsAndRestores and fabric's TestCongestedPortMatchesPerHopModel check the engine queue through it",
	"verbs.MR.Pages":                  "core's TestLazyCtrlSlotsCarryPayloads counts the control slots' materialised pages through it",
	"bitmap.Bitmap.SizeBytes":         "core's TestMemoryFootprint checks the §III-D bitmap footprint through it",
	"telemetry.Counter.Value":         "verbs' TestUCMessageDropOnPacketLoss checks the exported uc_msg_dropped counter through it",
}

// TestInternalNamesHaveCallers fails on every package-level name and method
// declared in internal/ that no non-test file uses and no allowlist entry
// covers, and on every stale allowlist entry.
func TestInternalNamesHaveCallers(t *testing.T) {
	m := loadModule(t)
	report(t, "caller", m.callers(), callerAllowlist)
	// CI's Code size step reads this line into the run summary.
	t.Logf("caller allowlist entries: %d", len(callerAllowlist))
}

// TestGuardPassResolvesByType runs the shared pass on a fixture the
// spelling match got wrong: two types declare Stop and one is called, a
// write-only field shares its name with a read one, and a method is reached
// only through heap.Interface. Two fields are only ever filled, one by
// element assignment and one by self-append, and neither counts as read.
func TestGuardPassResolvesByType(t *testing.T) {
	m, err := checkModule(map[string][]string{
		"internal/fix": {`package fix
import "container/heap"
type A struct{}
type B struct{}
func (A) Stop() {}
func (B) Stop() {}
type W struct{ Name string }
type R struct{ Name string }
type F struct {
	Keys map[string]int
	Vals []int
}
type h []int
func (x h) Len() int           { return len(x) }
func (x h) Less(i, j int) bool { return x[i] < x[j] }
func (x h) Swap(i, j int)      { x[i], x[j] = x[j], x[i] }
func (x *h) Push(v any)        { *x = append(*x, v.(int)) }
func (x *h) Pop() any          { return nil }
func Run() string {
	A{}.Stop()
	heap.Init(&h{})
	_ = W{Name: "w"}
	f := &F{Keys: map[string]int{}}
	f.Keys["k"] = 1
	f.Vals = append(f.Vals, 1)
	return R{}.Name
}`},
		"cmd/fix": {`package main
import "repro/internal/fix"
func main() { fix.Run() }`},
	})
	if err != nil {
		t.Fatal(err)
	}
	var got []string
	for _, d := range append(m.callers(), m.readers()...) {
		if !d.ok {
			got = append(got, d.key)
		}
	}
	if want := "fix.B.Stop fix.W.Name fix.F.Keys fix.F.Vals"; strings.Join(got, " ") != want {
		t.Errorf("flagged %v, want %s", got, want)
	}
}

// decl is one declaration a guard checks and whether it has the use the
// guard asks for.
type decl struct {
	key string // "pkg.Name" or "pkg.Type.Name"
	pos token.Pos
	ok  bool
}

// report fails on every decl without its use that no allowlist entry
// covers, on every exact entry whose decl has the use now, and on every
// entry that names no decl or prefix of one.
func report(t *testing.T, use string, decls []decl, allow map[string]string) {
	t.Helper()
	sort.Slice(decls, func(i, j int) bool { return decls[i].key < decls[j].key })
	known := map[string]bool{}
	for _, d := range decls {
		covered := false
		for k := d.key; k != ""; k = k[:max(0, strings.LastIndex(k, "."))] {
			_, listed := allow[k]
			known[k], covered = true, covered || listed
		}
		_, exact := allow[d.key]
		switch {
		case exact && d.ok:
			t.Errorf("allowlist entry %s has a non-test %s now; remove the entry", d.key, use)
		case !d.ok && !covered:
			t.Errorf("%s has no non-test %s (%s)", d.key, use, guardFset.Position(d.pos))
		}
	}
	for k := range allow {
		if !known[k] {
			t.Errorf("allowlist entry %s names no declaration the %s guard checks", k, use)
		}
	}
}

// guardFset and stdImporter are shared by every pass, so the standard
// library is type-checked from source once per test binary.
var (
	guardFset   = token.NewFileSet()
	stdImporter = importer.ForCompiler(guardFset, "source", nil)
)

// modPkg is one type-checked package of the module.
type modPkg struct {
	dir   string // slash-separated, relative to the module root
	files []*ast.File
	pkg   *types.Package
}

// module is the shared pass: the module's packages in import order, what
// the type checker resolved, and the uses the guards read off it.
type module struct {
	pkgs []*modPkg
	info *types.Info
	used map[types.Object]bool // referenced, or declared by a satisfied interface
	read map[types.Object]bool // fields read
	set  map[types.Object]bool // fields written outside their type's methods
}

var (
	modOnce sync.Once
	mod     *module
	modErr  error
)

// loadModule type-checks every non-test Go file of the module once,
// skipping hidden, underscore and testdata directories.
func loadModule(t *testing.T) *module {
	t.Helper()
	modOnce.Do(func() {
		srcs := map[string][]string{}
		modErr = filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
			if err != nil {
				return err
			}
			if n := d.Name(); d.IsDir() && path != "." && (strings.HasPrefix(n, ".") || strings.HasPrefix(n, "_") || n == "testdata") {
				return filepath.SkipDir
			}
			if d.IsDir() || !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
				return nil
			}
			dir := filepath.ToSlash(filepath.Dir(path))
			srcs[dir] = append(srcs[dir], path)
			return nil
		})
		if modErr == nil {
			mod, modErr = checkModule(srcs)
		}
	})
	if modErr != nil {
		t.Fatal(modErr)
	}
	return mod
}

// importerFunc adapts a function to types.Importer.
type importerFunc func(path string) (*types.Package, error)

func (f importerFunc) Import(path string) (*types.Package, error) { return f(path) }

// checkModule parses and type-checks the module whose files srcs lists by
// directory; a file is a path, or its source when it starts with
// "package". It then records every use the guards read.
func checkModule(srcs map[string][]string) (*module, error) {
	m := &module{
		info: &types.Info{Defs: map[*ast.Ident]types.Object{}, Uses: map[*ast.Ident]types.Object{}, Selections: map[*ast.SelectorExpr]*types.Selection{}},
		used: map[types.Object]bool{}, read: map[types.Object]bool{}, set: map[types.Object]bool{},
	}
	byPath := map[string]*modPkg{}
	var paths []string
	for dir, files := range srcs {
		p := &modPkg{dir: dir}
		for _, src := range files {
			var f *ast.File
			var err error
			if strings.HasPrefix(src, "package") {
				f, err = parser.ParseFile(guardFset, dir+"/fixture.go", src, parser.SkipObjectResolution)
			} else {
				f, err = parser.ParseFile(guardFset, src, nil, parser.SkipObjectResolution)
			}
			if err != nil {
				return nil, err
			}
			p.files = append(p.files, f)
		}
		path := strings.TrimSuffix("repro/"+dir, "/.")
		byPath[path], paths = p, append(paths, path)
	}
	var imp importerFunc
	imp = func(path string) (*types.Package, error) {
		p := byPath[path]
		if p == nil {
			return stdImporter.Import(path)
		}
		if p.pkg == nil {
			pkg, err := (&types.Config{Importer: imp}).Check(path, guardFset, p.files, m.info)
			if err != nil {
				return nil, err
			}
			p.pkg, m.pkgs = pkg, append(m.pkgs, p)
		}
		return p.pkg, nil
	}
	sort.Strings(paths)
	for _, path := range paths {
		if _, err := imp(path); err != nil {
			return nil, err
		}
	}

	for _, p := range m.pkgs {
		for _, f := range p.files {
			for _, d := range f.Decls {
				m.recordUses(d)
			}
		}
	}
	m.recordInterfaceMethods()
	return m, nil
}

// recordUses records every object a declaration uses, which fields it
// reads, and which it writes outside the methods of their own type. A
// field is written by an assignment (to it or to an element of it, x.F[k]
// = v), by a composite-literal key, and as the first argument of a
// self-append (x.F = append(x.F, v)); a selection through an embedded
// field reads that field.
func (m *module) recordUses(d ast.Decl) {
	var own *types.Struct // a method's receiver struct
	if fd, ok := d.(*ast.FuncDecl); ok && fd.Recv != nil {
		recv := m.info.Defs[fd.Name].Type().(*types.Signature).Recv().Type()
		if p, ok := recv.(*types.Pointer); ok {
			recv = p.Elem()
		}
		own, _ = recv.Underlying().(*types.Struct)
	}
	writes := map[*ast.Ident]bool{}
	// selfAppended returns the first argument of rhs when rhs is
	// append(l, ...).
	selfAppended := func(l, rhs ast.Expr) ast.Expr {
		call, ok := rhs.(*ast.CallExpr)
		if !ok || len(call.Args) == 0 {
			return nil
		}
		if id, ok := call.Fun.(*ast.Ident); !ok || m.info.Uses[id] != types.Universe.Lookup("append") ||
			types.ExprString(call.Args[0]) != types.ExprString(l) {
			return nil
		}
		return call.Args[0]
	}
	target := func(e ast.Expr) {
		for {
			ix, ok := e.(*ast.IndexExpr)
			if !ok {
				break
			}
			e = ix.X
		}
		if s, ok := e.(*ast.SelectorExpr); ok {
			writes[s.Sel] = true
		}
	}
	ast.Inspect(d, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.AssignStmt:
			if n.Tok != token.DEFINE {
				for i, l := range n.Lhs {
					target(l)
					if len(n.Rhs) == len(n.Lhs) {
						if arg := selfAppended(l, n.Rhs[i]); arg != nil {
							target(arg)
						}
					}
				}
			}
		case *ast.IncDecStmt:
			target(n.X)
		case *ast.KeyValueExpr:
			if id, ok := n.Key.(*ast.Ident); ok {
				writes[id] = true
			}
		case *ast.SelectorExpr:
			if s := m.info.Selections[n]; s != nil {
				typ := s.Recv()
				for _, i := range s.Index()[:len(s.Index())-1] {
					if p, ok := typ.(*types.Pointer); ok {
						typ = p.Elem()
					}
					f := typ.Underlying().(*types.Struct).Field(i)
					m.used[f.Origin()], m.read[f.Origin()] = true, true
					typ = f.Type()
				}
			}
		case *ast.Ident:
			obj := m.info.Uses[n]
			switch o := obj.(type) {
			case *types.Func:
				obj = o.Origin()
			case *types.Var:
				obj = o.Origin()
				if !o.IsField() {
					break
				}
				switch {
				case !writes[n]:
					m.read[obj] = true
				case own == nil || !hasField(own, o.Origin()):
					m.set[obj] = true
				}
			}
			m.used[obj] = true
		}
		return true
	})
}

// hasField reports whether f is one of st's own fields.
func hasField(st *types.Struct, f *types.Var) bool {
	for i := 0; i < st.NumFields(); i++ {
		if st.Field(i).Origin() == f {
			return true
		}
	}
	return false
}

// recordInterfaceMethods marks as used every method of a module type that
// an interface the type satisfies declares: error, or a non-generic
// interface of the module or of a package it imports.
func (m *module) recordInterfaceMethods() {
	ifaces := []*types.Interface{types.Universe.Lookup("error").Type().Underlying().(*types.Interface)}
	seen := map[*types.Package]bool{}
	scan := func(pkg *types.Package) {
		if seen[pkg] {
			return
		}
		seen[pkg] = true
		for _, name := range pkg.Scope().Names() {
			if tn, ok := pkg.Scope().Lookup(name).(*types.TypeName); ok {
				it, ok := tn.Type().Underlying().(*types.Interface)
				if n, named := tn.Type().(*types.Named); ok && it.NumMethods() > 0 && !(named && n.TypeParams().Len() > 0) {
					ifaces = append(ifaces, it)
				}
			}
		}
	}
	for _, p := range m.pkgs {
		scan(p.pkg)
		for _, im := range p.pkg.Imports() {
			scan(im)
		}
	}
	for _, p := range m.pkgs {
		for _, n := range namedTypes(p.pkg) {
			for _, it := range ifaces {
				if !types.Implements(n, it) && !types.Implements(types.NewPointer(n), it) {
					continue
				}
				for i := 0; i < it.NumMethods(); i++ {
					obj, _, _ := types.LookupFieldOrMethod(n, true, p.pkg, it.Method(i).Name())
					m.used[obj] = true
				}
			}
		}
	}
}

// namedTypes lists a package's non-generic, non-interface named types.
func namedTypes(pkg *types.Package) []*types.Named {
	var out []*types.Named
	for _, name := range pkg.Scope().Names() {
		if tn, ok := pkg.Scope().Lookup(name).(*types.TypeName); ok && !tn.IsAlias() {
			if n := tn.Type().(*types.Named); !types.IsInterface(n) && n.TypeParams().Len() == 0 {
				out = append(out, n)
			}
		}
	}
	return out
}

// internal lists the module's packages under internal/.
func (m *module) internal() []*modPkg {
	var out []*modPkg
	for _, p := range m.pkgs {
		if strings.HasPrefix(p.dir, "internal/") {
			out = append(out, p)
		}
	}
	return out
}

// callers lists the package-level names and methods declared in internal/,
// each ok when used.
func (m *module) callers() []decl {
	var out []decl
	add := func(key string, obj types.Object) {
		out = append(out, decl{key, obj.Pos(), m.used[obj]})
	}
	for _, p := range m.internal() {
		for _, name := range p.pkg.Scope().Names() {
			obj := p.pkg.Scope().Lookup(name)
			add(p.pkg.Name()+"."+name, obj)
			if tn, ok := obj.(*types.TypeName); ok && !tn.IsAlias() {
				if n := tn.Type().(*types.Named); !types.IsInterface(n) {
					for i := 0; i < n.NumMethods(); i++ {
						add(p.pkg.Name()+"."+name+"."+n.Method(i).Name(), n.Method(i))
					}
				}
			}
		}
	}
	return out
}

// structs calls f with every named struct type declared in internal/, at
// any nesting depth, and its key "pkg.Type".
func (m *module) structs(f func(typ string, st *types.Struct)) {
	for _, p := range m.internal() {
		for _, file := range p.files {
			ast.Inspect(file, func(n ast.Node) bool {
				if ts, ok := n.(*ast.TypeSpec); ok {
					if _, ok := ts.Type.(*ast.StructType); ok {
						f(p.pkg.Name()+"."+ts.Name.Name, m.info.Defs[ts.Name].Type().Underlying().(*types.Struct))
					}
				}
				return true
			})
		}
	}
}
