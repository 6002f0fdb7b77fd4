package repro

// A guard against manifest surface that nothing uses: every JSON field a
// manifest can carry must be set by some checked-in manifest — the
// experiments in manifests/ or the host-time ledger's workloads in
// bench/workloads/ — or be allowlisted with the reason it stays.

import (
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"strings"
	"testing"

	"repro/internal/manifest"
)

// fieldAllowlist holds the manifest fields no checked-in manifest sets,
// each with the reason it stays. Keys are dotted JSON paths; a field of
// an object inside an array (a section, a section's grid) is spelled
// through the array's name.
var fieldAllowlist = map[string]string{
	"shards":     "parsed only so Validate can refuse it with a hint (exit 2); bench/bench_test.go reads it",
	"warm_start": "parsed only so Validate can refuse it with a hint (exit 2); bench/bench_test.go reads it",

	// A section grid is a sweep.Grid, whose workload, op and scenario axes
	// serve the train, osu and chaos kinds through their own grid; every
	// section kernel refuses them.
	"sections.grids.workloads": "every section kernel refuses the workload axis",
	"sections.grids.ops":       "every section kernel refuses the op axis",
	"sections.grids.scenarios": "every section kernel refuses the scenario axis",
}

// TestManifestFieldsHaveCallers fails on every manifest field that no
// manifest under manifests/ or bench/workloads/ sets and no allowlist
// entry covers, and on every allowlist entry that a manifest sets or that
// names no field.
func TestManifestFieldsHaveCallers(t *testing.T) {
	declared := map[string]bool{}
	jsonFields(reflect.TypeOf(manifest.Manifest{}), "", declared)

	set := map[string]bool{}
	for _, doc := range checkedInManifests(t) {
		setFields(doc, "", set)
	}

	var unset []string
	for f := range declared {
		if _, listed := fieldAllowlist[f]; !listed && !set[f] {
			unset = append(unset, f)
		}
	}
	sort.Strings(unset)
	for _, f := range unset {
		t.Errorf("manifest field %s is set by no manifest in manifests/ or bench/workloads/", f)
	}
	for f := range fieldAllowlist {
		switch {
		case !declared[f]:
			t.Errorf("allowlist entry %s names no manifest field", f)
		case set[f]:
			t.Errorf("allowlist entry %s is set by a checked-in manifest now; remove the entry", f)
		}
	}
}

// checkedInManifests decodes every manifest under manifests/ and the
// ledger's bench/workloads/.
func checkedInManifests(t *testing.T) []any {
	t.Helper()
	paths, err := filepath.Glob(filepath.Join("manifests", "*.json"))
	if err != nil {
		t.Fatal(err)
	}
	bench, err := filepath.Glob(filepath.Join("bench", "workloads", "*.json"))
	if err != nil {
		t.Fatal(err)
	}
	paths = append(paths, bench...)
	if len(paths) == 0 {
		t.Fatal("no manifests found")
	}
	docs := make([]any, len(paths))
	for i, p := range paths {
		b, err := os.ReadFile(p)
		if err != nil {
			t.Fatal(err)
		}
		if err := json.Unmarshal(b, &docs[i]); err != nil {
			t.Fatalf("%s: %v", p, err)
		}
	}
	return docs
}

// jsonFields adds the dotted JSON path of every field reachable from t to
// out, descending through pointers, slices and nested structs.
func jsonFields(t reflect.Type, prefix string, out map[string]bool) {
	for t.Kind() == reflect.Pointer || t.Kind() == reflect.Slice {
		t = t.Elem()
	}
	if t.Kind() != reflect.Struct {
		return
	}
	for i := 0; i < t.NumField(); i++ {
		f := t.Field(i)
		name, _, _ := strings.Cut(f.Tag.Get("json"), ",")
		if !f.IsExported() || name == "-" {
			continue
		}
		if name == "" {
			name = f.Name
		}
		out[prefix+name] = true
		jsonFields(f.Type, prefix+name+".", out)
	}
}

// setFields adds the dotted path of every key present in a decoded JSON
// document to out; array elements share their array's path.
func setFields(v any, prefix string, out map[string]bool) {
	switch v := v.(type) {
	case map[string]any:
		for k, x := range v {
			out[prefix+k] = true
			setFields(x, prefix+k+".", out)
		}
	case []any:
		for _, x := range v {
			setFields(x, prefix, out)
		}
	}
}
