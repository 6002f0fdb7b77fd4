package repro

// A guard against API that nothing runs: every exported name declared in
// internal/ (functions, types, variables, constants, methods and struct
// fields) must be referenced by some non-test Go file of the module. The
// bench/ ledger counts as a caller. Without type information a method or
// field counts as referenced when any selector or composite-literal key in
// the module spells its name, so the guard can miss an unused member whose
// name another type also uses; it never flags a used one.

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"testing"
)

// callerAllowlist holds the exported names that stay without a non-test
// caller, each with the reason. Keys are "pkg.Name" for package-level
// names and "pkg.Type.Name" for methods and fields; a key "pkg" covers a
// whole package.
var callerAllowlist = map[string]string{
	// Interface methods: the standard library calls them.
	"sim.eventHeap.Less":      "heap.Interface method; container/heap calls it",
	"sim.eventHeap.Swap":      "heap.Interface method; container/heap calls it",
	"sweep.PointError.Unwrap": "errors.Is and errors.As call it",

	// The bench/ ledger's snapshot layer is the package's only importer.
	"snap": "imported only by bench/layers.go; the package goes when the bench drops its snapshot layer",

	// Names a test in another package checks the model through.
	"fabric.Fabric.ChannelStats":      "core's TestSubgroupTreesSpreadAcrossSpines and coll's TestINCSendPathDominates read per-channel counters through it",
	"fabric.Fabric.SwitchEgressBytes": "core's TestTrafficOptimality and coll's TestRingVsLinearTraffic compare switch egress bytes through it",
	"fabric.Fabric.ReducedChunks":     "coll's TestINCReduceScatter checks that the switches reduced every chunk through it",
	"model.MaxBufferFittingLLC":       "manifest's TestCostSections pins manifests/cost.json's Figure 7 note against it",
	"model.CommunicatorsFittingLLC":   "manifest's TestCostSections pins manifests/cost.json's Figure 7 note against it",
	"sim.Engine.Pending":              "scenario's TestFlapDropsAndRestores and fabric's TestCongestedPortMatchesPerHopModel check the engine queue through it",
	"verbs.MR.Pages":                  "core's TestLazyCtrlSlotsCarryPayloads counts the control slots' materialised pages through it",
	"bitmap.Bitmap.SizeBytes":         "core's TestMemoryFootprint checks the §III-D bitmap footprint through it",
}

// TestInternalNamesHaveCallers fails on every exported name in internal/
// that no non-test file references and no allowlist entry covers.
func TestInternalNamesHaveCallers(t *testing.T) {
	fset, files := parseModule(t)

	// Declarations: each exported internal/ name by key, whether it is a
	// method or field, and every declaring identifier, which is no
	// reference.
	decls := map[string]*ast.Ident{}
	member := map[string]bool{}
	declIdent := map[*ast.Ident]bool{}
	for _, fl := range files {
		declare := func(key string, id *ast.Ident, isMember bool) {
			declIdent[id] = true
			if fl.internal && id.IsExported() {
				decls[key], member[key] = id, isMember
			}
		}
		pkg := fl.f.Name.Name
		for _, d := range fl.f.Decls {
			switch d := d.(type) {
			case *ast.FuncDecl:
				if d.Recv == nil {
					declare(pkg+"."+d.Name.Name, d.Name, false)
				} else {
					declare(pkg+"."+recvName(d.Recv.List[0].Type)+"."+d.Name.Name, d.Name, true)
				}
			case *ast.GenDecl:
				for _, s := range d.Specs {
					switch s := s.(type) {
					case *ast.TypeSpec:
						declare(pkg+"."+s.Name.Name, s.Name, false)
						// Interface methods are called through the interface.
						if st, ok := s.Type.(*ast.StructType); ok {
							for _, fd := range st.Fields.List {
								for _, id := range fd.Names {
									declare(pkg+"."+s.Name.Name+"."+id.Name, id, true)
								}
							}
						}
					case *ast.ValueSpec:
						for _, id := range s.Names {
							declare(pkg+"."+id.Name, id, false)
						}
					}
				}
			}
		}
	}

	// References: pkg.Name through an import or a bare identifier inside
	// the package, and any selector or literal key for members.
	pkgRefs := map[string]bool{}
	memberRefs := map[string]bool{}
	for _, fl := range files {
		imports := map[string]string{} // local name -> package name
		for _, im := range fl.f.Imports {
			p, _ := strconv.Unquote(im.Path.Value)
			name := p[strings.LastIndex(p, "/")+1:]
			if im.Name != nil {
				imports[im.Name.Name] = name
			} else {
				imports[name] = name
			}
		}
		pkg := fl.f.Name.Name
		sels := map[*ast.Ident]bool{}
		ast.Inspect(fl.f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.SelectorExpr:
				sels[n.Sel] = true
				memberRefs[n.Sel.Name] = true
				if x, ok := n.X.(*ast.Ident); ok && imports[x.Name] != "" {
					pkgRefs[imports[x.Name]+"."+n.Sel.Name] = true
				}
			case *ast.KeyValueExpr:
				if k, ok := n.Key.(*ast.Ident); ok {
					memberRefs[k.Name] = true
				}
			case *ast.Ident:
				if !sels[n] && !declIdent[n] {
					pkgRefs[pkg+"."+n.Name] = true
				}
			}
			return true
		})
	}

	used := func(key string) bool {
		if member[key] {
			return memberRefs[key[strings.LastIndex(key, ".")+1:]]
		}
		return pkgRefs[key]
	}
	var unused []string
	for key, id := range decls {
		_, listed := callerAllowlist[key]
		_, pkgListed := callerAllowlist[key[:strings.Index(key, ".")]]
		if !listed && !pkgListed && !used(key) {
			unused = append(unused, key+" ("+fset.Position(id.Pos()).String()+")")
		}
	}
	sort.Strings(unused)
	for _, u := range unused {
		t.Errorf("exported name has no non-test caller: %s", u)
	}
	for key := range callerAllowlist {
		_, ok := decls[key]
		switch {
		case ok && used(key):
			t.Errorf("allowlist entry %s has a non-test caller now; remove the entry", key)
		case !ok && (strings.Contains(key, ".") || !hasPrefix(decls, key+".")):
			t.Errorf("allowlist entry %s names no exported declaration", key)
		}
	}
}

// moduleFile is one parsed non-test Go file of the module.
type moduleFile struct {
	f        *ast.File
	dir      string // slash-separated directory, the package's identity
	internal bool   // under internal/
}

// parseModule parses every non-test Go file of the module, skipping
// hidden, underscore and testdata directories.
func parseModule(t *testing.T) (*token.FileSet, []moduleFile) {
	t.Helper()
	fset := token.NewFileSet()
	var files []moduleFile
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if n := d.Name(); path != "." && (strings.HasPrefix(n, ".") || strings.HasPrefix(n, "_") || n == "testdata") {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
			return nil
		}
		f, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		slash := filepath.ToSlash(path)
		files = append(files, moduleFile{f, filepath.ToSlash(filepath.Dir(path)), strings.HasPrefix(slash, "internal/")})
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return fset, files
}

// hasPrefix reports whether some key of m starts with prefix.
func hasPrefix(m map[string]*ast.Ident, prefix string) bool {
	for k := range m {
		if strings.HasPrefix(k, prefix) {
			return true
		}
	}
	return false
}

// recvName is the type name of a method receiver, with any pointer and
// type parameters stripped.
func recvName(e ast.Expr) string {
	for {
		switch x := e.(type) {
		case *ast.StarExpr:
			e = x.X
		case *ast.IndexExpr:
			e = x.X
		case *ast.IndexListExpr:
			e = x.X
		case *ast.Ident:
			return x.Name
		default:
			return ""
		}
	}
}
