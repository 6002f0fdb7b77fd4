package repro

// Guards against model state and knobs that only tests touch: every field
// of a struct declared in internal/ must be read by some non-test Go file,
// and every field of a Config or Options type in internal/ must be set by
// one outside the type's own methods. Without type information a field
// counts as read when a non-test selector spelling its name (inside its own
// package, for an unexported field) is not the target of an assignment, so
// the read guard can miss a write-only field whose name another field
// shares; it never flags a read one. Likewise an assignment to a selector
// spelling a knob's name counts as setting it, unless the selector is on a
// method's own receiver.

import (
	"go/ast"
	"go/token"
	"reflect"
	"sort"
	"strconv"
	"strings"
	"testing"
)

// readerAllowlist holds the struct fields no non-test file reads, each
// with the reason it stays. Keys are "pkg.Type.Field"; a key "pkg.Type"
// covers every field of the type.
var readerAllowlist = map[string]string{
	// Read by reflection: records encode the result without json tags.
	"collective.Result": "encoded untagged into sweep records and reports, so encoding/json reads every field",

	// Map keys: the map compares the whole struct.
	"verbs.assemblyKey": "map key of the UC assembly table; the map hashes and compares every field",

	// Pool accounting that export_test.go's Outstanding reads.
	"fabric.packetPool.made":   "pool accounting: export_test.go's Outstanding subtracts the free list from it, and the pool tests check it for leaks",
	"fabric.Fabric.trainsMade": "pool accounting: export_test.go's Outstanding subtracts the free trains from it, and the pool tests check it for leaks",

	// State a claim test reads.
	"core.opState.tTxStart": "claims_test reads it for the chain-order claim (each rank starts sending after its ring predecessor)",
}

// setterAllowlist holds the Config and Options fields no non-test file sets
// outside the type's own methods, each with the reason the knob stays.
var setterAllowlist = map[string]string{
	"core.Config.RQDepth":      "the only way tests force the RNR drops that records report",
	"core.Config.ArbitratedRx": "the §V-C software traffic arbitration of receive queues",
	"core.Config.RxOnDPA":      "the receive path offloaded to the DPA",
}

// structDecl is one struct type declared in a non-test internal/ file.
type structDecl struct {
	key    string // "pkg.Type"
	dir    string
	fields []*ast.Ident
	tagged bool // some field carries a json tag
}

// internalStructs lists the named struct types of the non-test internal/
// files, at any nesting depth.
func internalStructs(files []moduleFile) []structDecl {
	var out []structDecl
	for _, fl := range files {
		if !fl.internal {
			continue
		}
		pkg := fl.f.Name.Name
		ast.Inspect(fl.f, func(n ast.Node) bool {
			ts, ok := n.(*ast.TypeSpec)
			if !ok {
				return true
			}
			st, ok := ts.Type.(*ast.StructType)
			if !ok {
				return true
			}
			d := structDecl{key: pkg + "." + ts.Name.Name, dir: fl.dir}
			for _, fd := range st.Fields.List {
				if fd.Tag != nil {
					tag, _ := strconv.Unquote(fd.Tag.Value)
					if _, ok := reflect.StructTag(tag).Lookup("json"); ok {
						d.tagged = true
					}
				}
				d.fields = append(d.fields, fd.Names...)
			}
			out = append(out, d)
			return true
		})
	}
	return out
}

// assignTargets returns the selectors a file assigns to with =, op=, ++
// or --. A selector on a method's own receiver maps to the receiver's
// type name; any other maps to "", a target of unknown type.
func assignTargets(f *ast.File) map[*ast.SelectorExpr]string {
	out := map[*ast.SelectorExpr]string{}
	for _, d := range f.Decls {
		var recv, recvType string
		if fd, ok := d.(*ast.FuncDecl); ok && fd.Recv != nil && len(fd.Recv.List[0].Names) > 0 {
			recv, recvType = fd.Recv.List[0].Names[0].Name, recvName(fd.Recv.List[0].Type)
		}
		target := func(e ast.Expr) {
			s, ok := e.(*ast.SelectorExpr)
			if !ok {
				return
			}
			out[s] = ""
			if x, ok := s.X.(*ast.Ident); ok && recv != "" && x.Name == recv {
				out[s] = recvType
			}
		}
		ast.Inspect(d, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.AssignStmt:
				if n.Tok != token.DEFINE {
					for _, l := range n.Lhs {
						target(l)
					}
				}
			case *ast.IncDecStmt:
				target(n.X)
			}
			return true
		})
	}
	return out
}

// TestFieldsHaveReaders fails on every field of a non-test internal/ struct
// that no non-test file reads and no allowlist entry covers, and on every
// allowlist entry that names no field or whose field has a reader now.
// Types with json tags are exempt: encoding/json reads them.
func TestFieldsHaveReaders(t *testing.T) {
	fset, files := parseModule(t)

	// Reads: exported names anywhere, unexported ones per directory.
	read := map[string]bool{}
	for _, fl := range files {
		writes := assignTargets(fl.f)
		ast.Inspect(fl.f, func(n ast.Node) bool {
			if s, ok := n.(*ast.SelectorExpr); ok {
				if _, w := writes[s]; !w {
					read[fl.dir+" "+s.Sel.Name] = true
					read[s.Sel.Name] = true
				}
			}
			return true
		})
	}
	isRead := func(dir string, id *ast.Ident) bool {
		if id.IsExported() {
			return read[id.Name]
		}
		return read[dir+" "+id.Name]
	}

	var unread []string
	known := map[string]bool{}
	for _, d := range internalStructs(files) {
		known[d.key] = true
		for _, id := range d.fields {
			key := d.key + "." + id.Name
			known[key] = true
			_, listed := readerAllowlist[key]
			_, typeListed := readerAllowlist[d.key]
			switch {
			case d.tagged || listed || typeListed || id.Name == "_":
			case !isRead(d.dir, id):
				unread = append(unread, key+" ("+fset.Position(id.Pos()).String()+")")
			}
			if listed && isRead(d.dir, id) {
				t.Errorf("allowlist entry %s has a non-test reader now; remove the entry", key)
			}
		}
	}
	sort.Strings(unread)
	for _, u := range unread {
		t.Errorf("struct field has no non-test reader: %s", u)
	}
	for key := range readerAllowlist {
		if !known[key] {
			t.Errorf("allowlist entry %s names no internal/ struct or field", key)
		}
	}
}

// TestConfigFieldsHaveSetters fails on every field of an internal/ type
// named Config, *Config or Options that no non-test file sets outside the
// type's own methods and no allowlist entry covers, and on every allowlist
// entry that names no such field or whose field has a setter now. A
// composite-literal key sets the field of the type the literal names; an
// assignment sets every knob its selector spells, unless the selector is on
// a method's own receiver.
func TestConfigFieldsHaveSetters(t *testing.T) {
	fset, files := parseModule(t)

	// Type aliases, "pkg.Alias" -> "pkg.Type", so a literal of the facade's
	// alias sets the aliased type's field.
	alias := map[string]string{}
	for _, fl := range files {
		for _, d := range fl.f.Decls {
			if gd, ok := d.(*ast.GenDecl); ok {
				for _, sp := range gd.Specs {
					if ts, ok := sp.(*ast.TypeSpec); ok && ts.Assign.IsValid() {
						if sel, ok := ts.Type.(*ast.SelectorExpr); ok {
							if x, ok := sel.X.(*ast.Ident); ok {
								alias[fl.f.Name.Name+"."+ts.Name.Name] = x.Name + "." + sel.Sel.Name
							}
						}
					}
				}
			}
		}
	}

	// set holds "pkg.Type.Field" for literal keys and the bare field name
	// for an assignment to a selector of unknown type. An assignment on a
	// method's own receiver sets nothing: that is the type's own method.
	set := map[string]bool{}
	for _, fl := range files {
		pkg := fl.f.Name.Name
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
		typeKey := func(e ast.Expr) string {
			k := ""
			switch e := e.(type) {
			case *ast.Ident:
				k = pkg + "." + e.Name
			case *ast.SelectorExpr:
				if x, ok := e.X.(*ast.Ident); ok && imports[x.Name] != "" {
					k = imports[x.Name] + "." + e.Sel.Name
				}
			}
			if a, ok := alias[k]; ok {
				return a
			}
			return k
		}
		// lit records the keys of a literal of type typ, descending into
		// the elided element literals of a slice or map literal.
		var lit func(cl *ast.CompositeLit, typ string)
		lit = func(cl *ast.CompositeLit, typ string) {
			var elt ast.Expr
			switch tt := cl.Type.(type) {
			case *ast.ArrayType:
				elt = tt.Elt
			case *ast.MapType:
				elt = tt.Value
			case nil:
			default:
				typ = typeKey(tt)
			}
			if st, ok := elt.(*ast.StarExpr); ok {
				elt = st.X
			}
			for _, e := range cl.Elts {
				v := e
				if kv, ok := e.(*ast.KeyValueExpr); ok {
					if k, ok := kv.Key.(*ast.Ident); ok && elt == nil {
						set[typ+"."+k.Name] = true
					}
					v = kv.Value
				}
				if inner, ok := v.(*ast.CompositeLit); ok && inner.Type == nil && elt != nil {
					lit(inner, typeKey(elt))
				}
			}
		}
		ast.Inspect(fl.f, func(n ast.Node) bool {
			if cl, ok := n.(*ast.CompositeLit); ok && cl.Type != nil {
				lit(cl, "")
			}
			return true
		})
		for s, recv := range assignTargets(fl.f) {
			if recv == "" {
				set[s.Sel.Name] = true
			}
		}
	}
	isSet := func(typ string, id *ast.Ident) bool { return set[typ+"."+id.Name] || set[id.Name] }

	var unset []string
	known := map[string]bool{}
	for _, d := range internalStructs(files) {
		if name := d.key[strings.Index(d.key, ".")+1:]; name != "Options" && !strings.HasSuffix(name, "Config") {
			continue
		}
		for _, id := range d.fields {
			key := d.key + "." + id.Name
			known[key] = true
			_, listed := setterAllowlist[key]
			switch {
			case listed && isSet(d.key, id):
				t.Errorf("allowlist entry %s has a non-test setter now; remove the entry", key)
			case !listed && !isSet(d.key, id):
				unset = append(unset, key+" ("+fset.Position(id.Pos()).String()+")")
			}
		}
	}
	sort.Strings(unset)
	for _, u := range unset {
		t.Errorf("config field has no non-test setter: %s", u)
	}
	for key := range setterAllowlist {
		if !known[key] {
			t.Errorf("allowlist entry %s names no Config or Options field", key)
		}
	}
	// CI's Code size step reads this line into the run summary.
	t.Logf("config fields only tests set: %d", len(setterAllowlist))
}
