package repro

// A guard against registry entries that nothing runs: every name `repro
// list` prints — manifest kinds, algorithms, scenarios, workloads and sweep
// kernels — must be reached by a checked-in manifest (manifests/ or the
// ledger's bench/workloads/, where an "all" scenario or workload axis
// reaches its whole list), or by a string literal in the non-test code that
// drives the registries: the examples, the harness and the workload
// presets. A literal used as a composite-literal key defines a name rather
// than reaching it, so a table's own keys do not count.

import (
	"go/ast"
	"go/token"
	"slices"
	"sort"
	"strconv"
	"strings"
	"testing"

	"repro/internal/manifest"
	"repro/internal/registry"
	"repro/internal/scenario"
	"repro/internal/workload"
)

// listCallerDirs are the directories whose non-test string literals reach a
// listed name.
var listCallerDirs = []string{"examples/", "internal/harness/", "internal/workload/"}

// TestListedNamesHaveCallers fails on every name `repro list` prints that
// no checked-in manifest and no caller literal reaches.
func TestListedNamesHaveCallers(t *testing.T) {
	lists := map[string][]string{
		"kind":      manifest.Kinds,
		"algorithm": registry.Names(),
		"scenario":  scenario.Names(),
		"workload":  workload.Names(),
		"kernel":    manifest.Kernels,
	}
	reached := map[string]bool{}
	for _, doc := range checkedInManifests(t) {
		manifestStrings(doc, "", func(key, s string) {
			reached[s] = true
			if s == "all" && (key == "scenarios" || key == "workloads") {
				for _, name := range lists[strings.TrimSuffix(key, "s")] {
					reached[name] = true
				}
			}
		})
	}

	for _, p := range loadModule(t).pkgs {
		if !slices.ContainsFunc(listCallerDirs, func(d string) bool { return strings.HasPrefix(p.dir+"/", d) }) {
			continue
		}
		keys := map[*ast.BasicLit]bool{}
		for _, f := range p.files {
			ast.Inspect(f, func(n ast.Node) bool {
				switch n := n.(type) {
				case *ast.KeyValueExpr:
					if lit, ok := n.Key.(*ast.BasicLit); ok {
						keys[lit] = true
					}
				case *ast.BasicLit:
					if n.Kind == token.STRING && !keys[n] {
						if s, err := strconv.Unquote(n.Value); err == nil {
							reached[s] = true
						}
					}
				}
				return true
			})
		}
	}

	var unreached []string
	for list, names := range lists {
		for _, name := range names {
			if !reached[name] {
				unreached = append(unreached, list+" "+name)
			}
		}
	}
	sort.Strings(unreached)
	for _, u := range unreached {
		t.Errorf("listed %s is reached by no manifest, bench workload, example, harness or workload preset", u)
	}
}

// manifestStrings calls f with every string value in a decoded JSON
// document and the key it sits under; array elements share their array's
// key.
func manifestStrings(v any, key string, f func(key, s string)) {
	switch v := v.(type) {
	case map[string]any:
		for k, x := range v {
			manifestStrings(x, k, f)
		}
	case []any:
		for _, x := range v {
			manifestStrings(x, key, f)
		}
	case string:
		f(key, v)
	}
}
