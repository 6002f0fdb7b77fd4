package command

import (
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"

	"repro/internal/manifest"
	"repro/internal/registry"
	"repro/internal/scenario"
	"repro/internal/workload"
)

// runManifest implements `repro run <manifest...>`: parse each document,
// fold in any command-line overrides, and execute them in order, stopping
// at the first failure. With several manifests the per-file output flags
// (-json, -csv, -metrics, -perfetto, -trace) would silently overwrite one
// another, so they are rejected; -o DIR redirects every file a manifest
// declares into DIR instead, preserving basenames, which is how a batch
// (e.g. the CI matrix) lands its artifacts side by side. Every manifest is
// parsed and its outputs resolved before anything runs, so two that would
// write the same file fail the batch up front.
func runManifest(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("repro run", flag.ContinueOnError)
	comparePath := fs.String("compare", "", "override the manifest baseline path")
	tol := fs.Float64("tol", -1, "override the manifest baseline tolerance (> 0; pin expect.sha256 for an exact gate)")
	tracePath := fs.String("trace", "", "write the Figure-9 protocol phase timeline of one representative run to this file")
	outDir := fs.String("o", "", "redirect every output file the manifests declare into this directory (created if missing)")
	var c common
	c.register(fs)
	// Stdlib flag parsing stops at the first positional argument; re-parse
	// the remainder so `repro run manifests/pr.json -json out.json` works
	// as naturally as flags-first order.
	fs.SetOutput(stderr)
	var paths []string
	rest := args
	for {
		if err := fs.Parse(rest); err != nil {
			return 2
		}
		if fs.NArg() == 0 {
			break
		}
		paths = append(paths, fs.Arg(0))
		rest = fs.Args()[1:]
	}
	if len(paths) == 0 {
		return fail(stderr, 2, "usage: repro run [flags] <manifest...>")
	}
	if len(paths) > 1 {
		for _, f := range []struct{ name, val string }{
			{"json", c.jsonPath}, {"csv", c.csvPath},
			{"metrics", c.metricsPath}, {"perfetto", c.perfettoPath},
			{"trace", *tracePath}, {"compare", *comparePath},
		} {
			if f.val != "" {
				return fail(stderr, 2, "run: -%s names one output file but %d manifests were given; use -o DIR to redirect per-manifest outputs", f.name, len(paths))
			}
		}
	}
	checks := append(c.validate(), Writable("trace", *tracePath))
	if err := Validate("run", checks...); err != nil {
		return fail(stderr, 2, "%v", err)
	}
	// -1 is the unset default. Any other value is a relative tolerance,
	// and zero or less would silently compare at some other tolerance.
	if *tol != -1 && *tol <= 0 {
		return fail(stderr, 2, "run: -tol must be > 0, got %g; pin expect.sha256 in the manifest for an exact gate", *tol)
	}
	if *outDir != "" {
		if err := os.MkdirAll(*outDir, 0o755); err != nil {
			return fail(stderr, 2, "run: -o %s: %v", *outDir, err)
		}
	}
	ms := make([]manifest.Manifest, len(paths))
	writers := map[string]string{} // absolute output path -> first manifest
	for i, path := range paths {
		m, err := manifest.ParseFile(path)
		if err != nil {
			return fail(stderr, 2, "run: %v", err)
		}
		if *comparePath != "" {
			if m.Baseline == nil {
				m.Baseline = &manifest.Baseline{}
			}
			m.Baseline.Path = *comparePath
		}
		if *tol != -1 {
			if m.Baseline == nil {
				return fail(stderr, 2, "run: -tol set but no baseline declared or passed via -compare")
			}
			m.Baseline.Tolerance = *tol
		}
		c.apply(&m, stderr)
		if *outDir != "" {
			redirectOutputs(&m, *outDir)
		}
		if _, dups := claimOutputs(writers, path, &m, absPath); len(dups) > 0 {
			return fail(stderr, 2, "run: %v", dups[0])
		}
		ms[i] = m
	}
	for i, m := range ms {
		path := paths[i]
		if len(paths) > 1 {
			fmt.Fprintf(stdout, "== %s\n", path)
		}
		if code := execute(m, c.diag(*tracePath), stdout, stderr); code != 0 {
			return code
		}
	}
	return 0
}

// outputPath is one output file a manifest declares: the manifest field
// and a pointer to its path.
type outputPath struct {
	field string
	path  *string
}

// outputPaths lists every output file field of the manifest, set or not.
func outputPaths(m *manifest.Manifest) []outputPath {
	out := []outputPath{{"output.json", &m.Output.JSON}, {"output.csv", &m.Output.CSV}}
	if t := m.Telemetry; t != nil {
		out = append(out, outputPath{"telemetry.metrics", &t.Metrics}, outputPath{"telemetry.perfetto", &t.Perfetto})
	}
	return out
}

// redirectOutputs rebases every output file the manifest declares into
// dir, keeping the basename. Digest expectations are untouched: the bytes
// do not depend on where they land.
func redirectOutputs(m *manifest.Manifest, dir string) {
	for _, o := range outputPaths(m) {
		if *o.path != "" {
			*o.path = filepath.Join(dir, filepath.Base(*o.path))
		}
	}
}

// expandManifestDirs replaces each directory argument with the manifest
// files directly inside it (*.json; sorted, non-recursive),
// so `repro validate manifests` covers the whole tree without the caller
// hand-listing files — and without a stale shell glob silently skipping a
// newly added manifest.
func expandManifestDirs(paths []string) ([]string, error) {
	var out []string
	for _, p := range paths {
		st, err := os.Stat(p)
		if err != nil {
			return nil, err
		}
		if !st.IsDir() {
			out = append(out, p)
			continue
		}
		entries, err := os.ReadDir(p)
		if err != nil {
			return nil, err
		}
		n := 0
		for _, e := range entries {
			if e.IsDir() || filepath.Ext(e.Name()) != ".json" {
				continue
			}
			out = append(out, filepath.Join(p, e.Name()))
			n++
		}
		if n == 0 {
			return nil, fmt.Errorf("%s: directory holds no manifests (*.json)", p)
		}
	}
	return out, nil
}

// claimOutputs records manifest path in owners as the writer of every
// output file m declares, keyed by key(file). It returns how many files m
// declares and one error per file an earlier manifest already claimed.
// validate keys by basename: -o DIR rebases outputs by basename, so that
// is the granularity at which a batch can collide. run keys by absolute
// path once the flags and -o are applied, so two spellings of one file
// are one file.
func claimOutputs(owners map[string]string, path string, m *manifest.Manifest, key func(string) string) (n int, dups []error) {
	for _, o := range outputPaths(m) {
		if *o.path == "" {
			continue
		}
		n++
		k := key(*o.path)
		if first, ok := owners[k]; ok {
			dups = append(dups, fmt.Errorf("%s: duplicate output artifact %q (also declared by %s)", path, k, first))
			continue
		}
		owners[k] = path
	}
	return n, dups
}

// absPath is the absolute form of an output path, or its cleaned form
// when the working directory is unknown.
func absPath(p string) string {
	if a, err := filepath.Abs(p); err == nil {
		return a
	}
	return filepath.Clean(p)
}

// runValidate implements `repro validate <manifest-or-dir...>`: parse and
// compile every named manifest without executing anything, reporting all
// failures before exiting. Directory arguments expand to the manifests
// inside them. Duplicates across the set are rejected: two manifests may
// share a report name only if they write disjoint artifacts, and no two
// manifests may declare the same output basename, which would silently
// overwrite when a batch runs them into one -o directory. A manifest that
// sets the ignored shards or warm_start field gets a note on stderr.
func runValidate(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("repro validate", flag.ContinueOnError)
	if code := parseFlags(fs, args, stderr); code >= 0 {
		return code
	}
	if fs.NArg() == 0 {
		return fail(stderr, 2, "usage: repro validate <manifest-or-dir...>")
	}
	paths, err := expandManifestDirs(fs.Args())
	if err != nil {
		return fail(stderr, 2, "validate: %v", err)
	}
	bad := 0
	bareNames := make(map[string]string, len(paths)) // artifact-less name -> first path
	artifacts := make(map[string]string, len(paths)) // output basename -> first path
	for _, path := range paths {
		m, err := manifest.ParseFile(path)
		if err != nil {
			fmt.Fprintf(stderr, "%s: %v\n", path, err)
			bad++
			continue
		}
		plan, err := manifest.Compile(m)
		if err != nil {
			fmt.Fprintf(stderr, "%s: %v\n", path, err)
			bad++
			continue
		}
		outs, dups := claimOutputs(artifacts, path, &m, filepath.Base)
		dup := len(dups) > 0
		if outs == 0 {
			if first, ok := bareNames[plan.Name]; ok {
				fmt.Fprintf(stderr, "%s: duplicate manifest name %q (also %s); manifests without outputs must have distinct names\n",
					path, plan.Name, first)
				dup = true
			} else {
				bareNames[plan.Name] = path
			}
		}
		for _, err := range dups {
			fmt.Fprintln(stderr, err)
		}
		if dup {
			bad++
			continue
		}
		points := 0
		for _, sec := range plan.Sections {
			points += len(sec.Specs)
		}
		fmt.Fprintf(stdout, "ok %s: kind=%s name=%s sections=%d points=%d\n",
			path, m.Kind, plan.Name, len(plan.Sections), points)
		if m.Shards != 0 {
			fmt.Fprintf(stderr, "%s: note: shards is ignored; the engine is serial, use workers\n", path)
		}
		if m.WarmStart {
			fmt.Fprintf(stderr, "%s: note: warm_start is ignored; every point builds its own stack\n", path)
		}
	}
	if bad > 0 {
		return fail(stderr, 2, "validate: %d of %d manifests invalid", bad, len(paths))
	}
	return 0
}

// runList implements `repro list`: print everything a manifest author can
// reference — kinds, registry algorithms, scenario and workload presets,
// and the sweep kind's section kernels.
func runList(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("repro list", flag.ContinueOnError)
	if code := parseFlags(fs, args, stderr); code >= 0 {
		return code
	}
	if fs.NArg() != 0 {
		return fail(stderr, 2, "usage: repro list")
	}
	fmt.Fprintf(stdout, "kinds:       %s\n", strings.Join(manifest.Kinds, " "))
	fmt.Fprintf(stdout, "algorithms:  %s\n", strings.Join(registry.Names(), " "))
	fmt.Fprintf(stdout, "scenarios:   %s\n", strings.Join(scenario.Names(), " "))
	fmt.Fprintf(stdout, "workloads:   %s\n", strings.Join(workload.Names(), " "))
	fmt.Fprintf(stdout, "kernels:     %s\n", strings.Join(manifest.Kernels, " "))
	return 0
}
