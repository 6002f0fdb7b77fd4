package repro

// Guards against model state and knobs that only tests touch, on the shared
// go/types pass of names_test.go: every field of a struct declared in
// internal/ must be read by some non-test Go file, and every field of a
// Config or Options type in internal/ must be set by one outside the type's
// own methods. An assignment (=, op=, ++, --) or a composite-literal key
// writes a field; any other use of it reads it.

import (
	"go/types"
	"reflect"
	"strings"
	"testing"
)

// readerAllowlist holds the struct fields no non-test file reads, each
// with the reason it stays. Keys are "pkg.Type.Field"; a key "pkg.Type"
// covers every field of the type.
var readerAllowlist = map[string]string{
	// Read by reflection: records encode the result without json tags.
	"collective.Result":    "encoded untagged into sweep records and reports, so encoding/json reads every field",
	"collective.RankStats": "encoded untagged inside Result.PerRank, so encoding/json reads every field",

	// Map keys: the map compares the whole struct.
	"verbs.assemblyKey": "map key of the UC assembly table; the map hashes and compares every field",
	"snap.seenKey":      "map key of the capture's visited regions; the map hashes and compares every field",

	// Pool accounting that export_test.go's Outstanding reads.
	"fabric.packetPool.made":   "pool accounting: export_test.go's Outstanding subtracts the free list from it, and the pool tests check it for leaks",
	"fabric.Fabric.trainsMade": "pool accounting: export_test.go's Outstanding subtracts the free trains from it, and the pool tests check it for leaks",
}

// setterAllowlist holds the Config and Options fields no non-test file sets
// outside the type's own methods, each with the reason the knob stays.
var setterAllowlist = map[string]string{
	"core.Config.RQDepth":      "the only way tests force the RNR drops that records report",
	"core.Config.ArbitratedRx": "the §V-C software traffic arbitration of receive queues",
	"core.Config.RxOnDPA":      "the receive path offloaded to the DPA",
}

// TestFieldsHaveReaders fails on every field of a non-test internal/ struct
// that no non-test file reads and no allowlist entry covers, and on every
// stale allowlist entry. Types with json tags are exempt: encoding/json
// reads them.
func TestFieldsHaveReaders(t *testing.T) {
	m := loadModule(t)
	report(t, "reader", m.readers(), readerAllowlist)
	// CI's Code size step reads this line into the run summary.
	t.Logf("reader allowlist entries: %d", len(readerAllowlist))
}

// readers lists the fields of internal/ structs, each ok when read or
// when its struct has a json tag.
func (m *module) readers() []decl {
	var out []decl
	m.structs(func(typ string, st *types.Struct) {
		tagged := false
		for i := 0; i < st.NumFields(); i++ {
			_, json := reflect.StructTag(st.Tag(i)).Lookup("json")
			tagged = tagged || json
		}
		for i := 0; i < st.NumFields(); i++ {
			if v := st.Field(i); v.Name() != "_" {
				out = append(out, decl{typ + "." + v.Name(), v.Pos(), tagged || m.read[v]})
			}
		}
	})
	return out
}

// TestConfigFieldsHaveSetters fails on every field of an internal/ type
// named Config, *Config or Options that no non-test file sets outside the
// type's own methods and no allowlist entry covers, and on every stale
// allowlist entry.
func TestConfigFieldsHaveSetters(t *testing.T) {
	m := loadModule(t)
	var decls []decl
	m.structs(func(typ string, st *types.Struct) {
		if name := typ[strings.Index(typ, ".")+1:]; name == "Options" || strings.HasSuffix(name, "Config") {
			for i := 0; i < st.NumFields(); i++ {
				decls = append(decls, decl{typ + "." + st.Field(i).Name(), st.Field(i).Pos(), m.set[st.Field(i)]})
			}
		}
	})
	report(t, "setter", decls, setterAllowlist)
	// CI's Code size step reads this line into the run summary.
	t.Logf("config fields only tests set: %d", len(setterAllowlist))
}
