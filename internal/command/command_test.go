package command

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/manifest"
	"repro/internal/topology"
)

// run invokes the dispatcher and returns (exit code, stdout, stderr).
func run(args ...string) (int, string, string) {
	var out, errb bytes.Buffer
	code := Run(args, &out, &errb)
	return code, out.String(), errb.String()
}

// TestExitCodes is the table test over the unified flag-validation
// convention: exit 2 for anything rejected before the simulation starts,
// on every subcommand — including the output-path checks trafficbench
// historically lacked.
func TestExitCodes(t *testing.T) {
	missing := filepath.Join(t.TempDir(), "nope", "out.json")
	hugeSizes := filepath.Join(t.TempDir(), "huge.json")
	if err := os.WriteFile(hugeSizes, []byte(`{"kind":"osu","grid":{"algorithms":["ring-allgather"],"nodes":[4],"sizes":"1:9223372036854775807"}}`), 0o644); err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		name string
		args []string
		want int
		err  string // substring expected on stderr ("" = don't check)
	}{
		{"no args", nil, 2, "usage"},
		{"unknown subcommand", []string{"frobnicate"}, 2, "unknown subcommand"},
		{"help", []string{"help"}, 0, ""},
		{"bad flag", []string{"osu", "-no-such-flag"}, 2, ""},

		{"osu bad nodes", []string{"osu", "-nodes", "0"}, 2, "[1,188]"},
		{"osu bad iters", []string{"osu", "-iters", "0"}, 2, "-iters must be positive"},
		{"osu bad sizes", []string{"osu", "-sizes", "banana"}, 2, "bad size"},
		{"osu bad algo", []string{"osu", "-algo", "nope"}, 2, "unknown algorithm"},
		{"osu overflowing sizes", []string{"osu", "-sizes", "4611686018427387904:9223372036854775807"}, 2, "bad size range"},
		{"osu oversized size", []string{"osu", "-sizes", "9223372036854775807"}, 2, "grid.sizes must be in"},
		{"validate overflowing sizes", []string{"validate", hugeSizes}, 2, "bad size range"},
		{"osu unregistered combo", []string{"osu", "-algo", "bruck", "-op", "broadcast"}, 2, "unknown algorithm"},
		{"osu bad json dir", []string{"osu", "-json", missing}, 2, "does not exist"},
		{"osu bad workers", []string{"osu", "-workers", "-2"}, 2, "-workers must be >= 0"},
		{"osu bad shards", []string{"osu", "-shards", "0"}, 2, "-shards must be positive"},

		{"chaos bad scenario", []string{"chaos", "-scenarios", "hurricane"}, 2, "hurricane"},
		{"chaos bad json dir", []string{"chaos", "-json", missing}, 2, "does not exist"},

		{"train bad layers", []string{"train", "-layers", "0"}, 2, "-layers must be positive"},
		{"train bad workload", []string{"train", "-workloads", "nope"}, 2, "unknown workload"},
		{"train bad json dir", []string{"train", "-json", missing}, 2, "does not exist"},

		{"traffic bad nodes", []string{"traffic", "-nodes", "1"}, 2, "[2,188]"},
		{"traffic bad iters", []string{"traffic", "-iters", "0"}, 2, "-iters must be positive"},
		{"traffic bad json dir", []string{"traffic", "-json", missing}, 2, "does not exist"},
		{"traffic bad csv dir", []string{"traffic", "-csv", missing}, 2, "does not exist"},

		{"ag no fig", []string{"ag"}, 2, "exactly one figure"},
		{"ag bad fig", []string{"ag", "-fig", "12"}, 2, "exactly one figure"},
		{"ag bad json dir", []string{"ag", "-fig", "10", "-json", missing}, 2, "does not exist"},

		{"dpa nothing selected", []string{"dpa"}, 2, "figures, tables or all"},
		{"dpa bad fig", []string{"dpa", "-fig", "6"}, 2, "no figure 6"},
		{"dpa bad json dir", []string{"dpa", "-fig", "5", "-json", missing}, 2, "does not exist"},

		{"cost nothing selected", []string{"cost"}, 2, "figures, speedup, economics or all"},
		{"cost bad fig", []string{"cost", "-fig", "3"}, 2, "no figure 3"},
		{"cost bad json dir", []string{"cost", "-fig", "2", "-json", missing}, 2, "does not exist"},

		{"run no manifest", []string{"run"}, 2, "usage"},
		{"run bad memprofile dir", []string{"run", "-memprofile", missing, "absent.json"}, 2, "-memprofile: directory"},
		{"run missing file", []string{"run", filepath.Join(t.TempDir(), "absent.json")}, 2, ""},
		{"validate no args", []string{"validate"}, 2, "usage"},
		{"list extra args", []string{"list", "x"}, 2, "usage"},
	}
	for _, c := range cases {
		code, _, stderr := run(c.args...)
		if code != c.want {
			t.Errorf("%s: exit %d, want %d (stderr: %s)", c.name, code, c.want, stderr)
			continue
		}
		if c.err != "" && !strings.Contains(stderr, c.err) {
			t.Errorf("%s: stderr %q does not contain %q", c.name, stderr, c.err)
		}
	}
}

// TestYAMLManifestRejected pins the one-format rule: JSON is the manifest
// format, and a .yaml/.yml path is an invalid spec (exit 2) whose message
// names the supported extension — on run, on validate, and when it is all
// a directory holds.
func TestYAMLManifestRejected(t *testing.T) {
	dir := t.TempDir()
	for _, name := range []string{"m.yaml", "m.yml"} {
		path := filepath.Join(dir, name)
		if err := os.WriteFile(path, []byte("kind: osu\n"), 0o644); err != nil {
			t.Fatal(err)
		}
		for _, sub := range []string{"run", "validate"} {
			if code, _, stderr := run(sub, path); code != 2 || !strings.Contains(stderr, "manifests are .json") {
				t.Errorf("%s %s: exit %d, stderr %q; want 2 naming .json", sub, name, code, stderr)
			}
		}
	}
	if code, _, stderr := run("validate", dir); code != 2 || !strings.Contains(stderr, "no manifests (*.json)") {
		t.Errorf("validate on a YAML-only directory: exit %d, stderr %q", code, stderr)
	}
}

func TestListAndHelp(t *testing.T) {
	code, out, _ := run("list")
	if code != 0 {
		t.Fatalf("list: exit %d", code)
	}
	for _, want := range []string{"kinds:", "mcast-allgather", "quiet", "fsdp-ring"} {
		if !strings.Contains(out, want) {
			t.Errorf("list output missing %q:\n%s", want, out)
		}
	}
	code, out, _ = run("help")
	if code != 0 || !strings.Contains(out, "byte-identical") {
		t.Fatalf("help: exit %d, out %q", code, out)
	}
}

func TestValidateSubcommand(t *testing.T) {
	good := filepath.Join("..", "..", "manifests", "pr.json")
	code, out, _ := run("validate", good)
	if code != 0 || !strings.Contains(out, "ok "+good) {
		t.Fatalf("validate %s: exit %d, out %q", good, code, out)
	}
	bad := filepath.Join(t.TempDir(), "bad.json")
	if err := os.WriteFile(bad, []byte(`{"kind":"dpa","all":true,"seed":1}`), 0o644); err != nil {
		t.Fatal(err)
	}
	code, _, stderr := run("validate", good, bad)
	if code != 2 || !strings.Contains(stderr, "1 of 2 manifests invalid") {
		t.Fatalf("validate with one bad manifest: exit %d, stderr %q", code, stderr)
	}
}

// TestValidateDirectories covers the directory form of `repro validate`:
// a directory argument expands to the manifests inside it, an empty
// directory is an error, and the whole shipping tree — including the
// warm-start twin that shares its report name by design — validates clean.
func TestValidateDirectories(t *testing.T) {
	tree := filepath.Join("..", "..", "manifests")
	code, out, stderr := run("validate", tree)
	if code != 0 {
		t.Fatalf("validate %s: exit %d, stderr %q", tree, code, stderr)
	}
	for _, want := range []string{
		"ok " + filepath.Join(tree, "pr.json"),
		"ok " + filepath.Join(tree, "chaos-warm.json"),
		"ok " + filepath.Join(tree, "telemetry.json"),
	} {
		if !strings.Contains(out, want) {
			t.Errorf("directory expansion missing %q in:\n%s", want, out)
		}
	}

	if code, _, stderr := run("validate", t.TempDir()); code != 2 ||
		!strings.Contains(stderr, "directory holds no manifests") {
		t.Errorf("empty directory: exit %d, stderr %q", code, stderr)
	}
}

// TestValidateDuplicates pins the two rejection rules of the batch form:
// two manifests may never declare the same output basename (a -o DIR
// batch would silently overwrite), and manifests without any outputs must
// carry distinct report names.
func TestValidateDuplicates(t *testing.T) {
	dir := t.TempDir()
	a := smallOSUManifest(t, dir, "a.json", "SAME.json", "")
	b := smallOSUManifest(t, dir, "b.json", "SAME.json", "")
	code, _, stderr := run("validate", a, b)
	if code != 2 || !strings.Contains(stderr, `duplicate output artifact "SAME.json"`) {
		t.Errorf("colliding artifact: exit %d, stderr %q", code, stderr)
	}

	// Same grid, no outputs: both derive the name osu-mcast-allgather.
	bare1 := smallOSUManifest(t, dir, "bare1.json", "", "")
	bare2 := smallOSUManifest(t, dir, "bare2.json", "", "")
	code, _, stderr = run("validate", bare1, bare2)
	if code != 2 || !strings.Contains(stderr, "duplicate manifest name") {
		t.Errorf("duplicate bare name: exit %d, stderr %q", code, stderr)
	}

	// Shared name is fine once each declares its own artifact — the
	// determinism-twin pattern.
	c := smallOSUManifest(t, dir, "c.json", "C.json", "")
	d := smallOSUManifest(t, dir, "d.json", "D.json", "")
	if code, _, stderr := run("validate", c, d); code != 0 {
		t.Errorf("twins with disjoint artifacts: exit %d, stderr %q", code, stderr)
	}
}

// TestManifestShardMatrix runs the three shipping manifest families that
// exercise distinct stacks — pr (OSU collectives, keyed fabric), chaos
// (scenario kernel with the keyed quiet anchor), train (workload DAGs,
// confined) — under the -shards values existing scripts pass. The flag is
// ignored: each leg must still match the manifest's expect.sha256 (a
// zero exit IS the byte-identity assertion; the digest-confirmation line is
// checked anyway so a manifest that silently loses its expect block fails
// loudly) and a leg asking for shards must print the notice exactly once.
func TestManifestShardMatrix(t *testing.T) {
	if testing.Short() {
		t.Skip("nine multi-second sweeps; skipped with -short")
	}
	for _, name := range []string{"pr.json", "chaos.json", "train.json"} {
		src, err := filepath.Abs(filepath.Join("..", "..", "manifests", name))
		if err != nil {
			t.Fatal(err)
		}
		for _, shards := range []string{"1", "2", "8"} {
			t.Run(name+"/shards="+shards, func(t *testing.T) {
				t.Parallel()
				code, stdout, stderr := run("run", "-shards", shards, "-o", t.TempDir(), src)
				if code != 0 {
					t.Fatalf("exit %d, stderr %s", code, stderr)
				}
				if !strings.Contains(stdout, "digest matches expect.sha256") {
					t.Fatalf("stdout does not confirm the digest:\n%s", stdout)
				}
				want := 0
				if shards != "1" {
					want = 1
				}
				if got := strings.Count(stderr, shardsNotice); got != want {
					t.Fatalf("stderr carries %d shards notices, want %d:\n%s", got, want, stderr)
				}
			})
		}
	}
}

// smallOSUManifest writes a fast single-point osu manifest to dir and
// returns its path. json names the declared output file (relative paths
// land in the process working directory unless redirected with -o);
// digest pins expect.sha256 when non-empty.
func smallOSUManifest(t *testing.T, dir, name, json, digest string) string {
	t.Helper()
	m := manifest.Manifest{
		Kind: "osu",
		Grid: manifest.Grid{
			Algorithms: []string{"mcast-allgather"},
			Nodes:      []int{4},
			Sizes:      manifest.Sizes{4096},
		},
		OSU:    &manifest.OSUSpec{Iters: 1},
		Output: manifest.Output{JSON: json},
	}
	if digest != "" {
		m.Expect = &manifest.Expect{SHA256: digest}
	}
	path := filepath.Join(dir, name)
	if err := os.WriteFile(path, m.Encode(), 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

// TestRunMultiManifest is the table test over the batch form of `repro
// run`: several manifests execute in order, -o redirects their declared
// outputs into one directory, per-file output flags are rejected as
// ambiguous, and the batch stops at the first failing manifest.
func TestRunMultiManifest(t *testing.T) {
	dir := t.TempDir()
	a := smallOSUManifest(t, dir, "a.json", "A.json", "")
	b := smallOSUManifest(t, dir, "b.json", "B.json", "")
	bad := smallOSUManifest(t, dir, "bad.json", "BAD.json", strings.Repeat("0", 64))

	cases := []struct {
		name    string
		args    []string
		want    int
		err     string   // substring expected on stderr
		present []string // files expected under out/ afterwards
		absent  []string
	}{
		{"batch with -o", []string{"run", "-o", filepath.Join(dir, "out"), a, b}, 0, "",
			[]string{"A.json", "B.json"}, nil},
		{"single with -o", []string{"run", "-o", filepath.Join(dir, "solo"), a}, 0, "",
			nil, nil},
		{"json flag ambiguous", []string{"run", "-json", filepath.Join(dir, "x.json"), a, b}, 2,
			"-json names one output file", nil, nil},
		{"csv flag ambiguous", []string{"run", "-csv", filepath.Join(dir, "x.csv"), a, b}, 2,
			"-csv names one output file", nil, nil},
		{"trace flag ambiguous", []string{"run", "-trace", filepath.Join(dir, "x.txt"), a, b}, 2,
			"-trace names one output file", nil, nil},
		{"stops at first failure", []string{"run", "-o", filepath.Join(dir, "stop"), bad, b}, 1,
			"does not match expect.sha256", []string{}, []string{"B.json"}},
	}
	for _, c := range cases {
		code, stdout, stderr := run(c.args...)
		if code != c.want {
			t.Errorf("%s: exit %d, want %d (stderr: %s)", c.name, code, c.want, stderr)
			continue
		}
		if c.err != "" && !strings.Contains(stderr, c.err) {
			t.Errorf("%s: stderr %q does not contain %q", c.name, stderr, c.err)
		}
		outDir := c.args[2] // every case passes a value right after the first flag
		for _, f := range c.present {
			if _, err := os.Stat(filepath.Join(outDir, f)); err != nil {
				t.Errorf("%s: expected output %s: %v", c.name, f, err)
			}
		}
		for _, f := range c.absent {
			if _, err := os.Stat(filepath.Join(outDir, f)); err == nil {
				t.Errorf("%s: output %s exists but the batch should have stopped before it", c.name, f)
			}
		}
		if code == 0 && len(c.present) > 0 && !strings.Contains(stdout, "== "+a) {
			t.Errorf("%s: stdout missing per-manifest header:\n%s", c.name, stdout)
		}
	}
	// A batch header is noise for the single-manifest form.
	if _, stdout, _ := run("run", "-o", filepath.Join(dir, "solo2"), a); strings.Contains(stdout, "== ") {
		t.Errorf("single manifest run prints a batch header:\n%s", stdout)
	}
}

// TestDigestMismatchExitsOne pins the runtime-failure exit code: a run
// whose bytes do not match the declared expect.sha256 fails with 1.
func TestDigestMismatchExitsOne(t *testing.T) {
	tmp := t.TempDir()
	m := manifest.Manifest{
		Kind: "osu",
		Grid: manifest.Grid{
			Algorithms: []string{"mcast-allgather"},
			Nodes:      []int{4},
			Sizes:      manifest.Sizes{4096},
		},
		OSU:    &manifest.OSUSpec{Iters: 1},
		Expect: &manifest.Expect{SHA256: strings.Repeat("0", 64)},
	}
	path := filepath.Join(tmp, "m.json")
	if err := os.WriteFile(path, m.Encode(), 0o644); err != nil {
		t.Fatal(err)
	}
	code, _, stderr := run("run", path)
	if code != 1 || !strings.Contains(stderr, "does not match expect.sha256") {
		t.Fatalf("digest mismatch: exit %d, stderr %q", code, stderr)
	}
}

// TestGoldenPRManifest pins the CI pr leg end to end: `repro run
// manifests/pr.json` must reproduce the historical cmd/osu BENCH_pr.json
// bytes, whose digest is declared in the manifest itself.
func TestGoldenPRManifest(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-second sweep; skipped with -short")
	}
	src, err := filepath.Abs(filepath.Join("..", "..", "manifests", "pr.json"))
	if err != nil {
		t.Fatal(err)
	}
	m, err := manifest.ParseFile(src)
	if err != nil {
		t.Fatal(err)
	}
	if m.Expect == nil {
		t.Fatal("manifests/pr.json declares no expect.sha256")
	}
	out := filepath.Join(t.TempDir(), "BENCH_pr.json")
	code, stdout, stderr := run("run", "-json", out, src)
	if code != 0 {
		t.Fatalf("repro run: exit %d, stderr %s", code, stderr)
	}
	if !strings.Contains(stdout, "digest matches expect.sha256") {
		t.Fatalf("stdout does not confirm the digest:\n%s", stdout)
	}
	b, err := os.ReadFile(out)
	if err != nil {
		t.Fatal(err)
	}
	sum := sha256.Sum256(b)
	if got := hex.EncodeToString(sum[:]); got != m.Expect.SHA256 {
		t.Fatalf("BENCH_pr.json digest %s, manifest expects %s", got, m.Expect.SHA256)
	}
}

// structureDigest hashes everything a fabric reads from the process-wide
// testbed: every adjacency entry, every link and every routing-table row.
func structureDigest() string {
	g := topology.Testbed188()
	rt := g.Routing()
	h := sha256.New()
	for n := range g.Nodes {
		fmt.Fprintf(h, "node %+v adj %v\n", g.Nodes[n], g.Adj[n])
		for dst := range g.Nodes {
			fmt.Fprintf(h, "%v,", rt.Candidates(topology.NodeID(n), topology.NodeID(dst)))
		}
	}
	fmt.Fprintf(h, "links %v", g.Links)
	return hex.EncodeToString(h.Sum(nil))
}

// TestSharedStructureSurvivesChaosRun: the graph and routing table every
// point shares are read-only. A full chaos grid — link flaps, lossy
// channels, tenants, four workers building and running fabrics on them at
// once — leaves both exactly as it found them, and still matches its digest.
func TestSharedStructureSurvivesChaosRun(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the whole chaos manifest; skipped with -short")
	}
	src, err := filepath.Abs(filepath.Join("..", "..", "manifests", "chaos.json"))
	if err != nil {
		t.Fatal(err)
	}
	before := structureDigest()
	code, stdout, stderr := run("run", "-workers", "4", "-o", t.TempDir(), src)
	if code != 0 || !strings.Contains(stdout, "digest matches expect.sha256") {
		t.Fatalf("repro run: exit %d\nstdout %s\nstderr %s", code, stdout, stderr)
	}
	if after := structureDigest(); after != before {
		t.Fatalf("shared graph + routing digest moved across the run: %s -> %s", before, after)
	}
}

// TestShardsIgnored pins the compatibility contract of -shards: the flag
// and a manifest's "shards" are still accepted, change no
// output byte, and a request for more than one shard prints shardsNotice
// exactly once per invocation, however many manifests ask. Invalid counts
// still exit 2, and validate notes a manifest that sets the field.
func TestShardsIgnored(t *testing.T) {
	dir := t.TempDir()
	outputs := func(name string, extra ...string) (string, string) {
		t.Helper()
		records, metrics := filepath.Join(dir, name+".json"), filepath.Join(dir, name+".metrics.json")
		args := append([]string{"osu", "-nodes", "8", "-sizes", "65536", "-iters", "2",
			"-json", records, "-metrics", metrics}, extra...)
		code, stdout, stderr := run(args...)
		if code != 0 {
			t.Fatalf("%v: exit %d: %s", extra, code, stderr)
		}
		var b []byte
		for _, p := range []string{records, metrics} {
			data, err := os.ReadFile(p)
			if err != nil {
				t.Fatal(err)
			}
			b = append(b, data...)
		}
		return string(b) + stdout, stderr
	}
	plain, plainErr := outputs("plain")
	sharded, shardedErr := outputs("sharded", "-shards", "4")
	if plain != sharded {
		t.Error("-shards 4 changed the records, metrics or stdout")
	}
	if plainErr != "" || shardedErr != shardsNotice+"\n" {
		t.Errorf("stderr without -shards %q, with -shards 4 %q; want nothing and exactly the notice", plainErr, shardedErr)
	}

	withShards := func(name string, shards int) string {
		m := manifest.Manifest{
			Kind:   "osu",
			Grid:   manifest.Grid{Algorithms: []string{"mcast-allgather"}, Nodes: []int{4}, Sizes: manifest.Sizes{4096}},
			OSU:    &manifest.OSUSpec{Iters: 1},
			Output: manifest.Output{JSON: name + ".out.json"},
			Shards: shards,
		}
		path := filepath.Join(dir, name+".json")
		if err := os.WriteFile(path, m.Encode(), 0o644); err != nil {
			t.Fatal(err)
		}
		return path
	}
	a, b := withShards("a", 4), withShards("b", 2)
	code, _, stderr := run("run", "-shards", "4", "-o", filepath.Join(dir, "batch"), a, b)
	if code != 0 || strings.Count(stderr, shardsNotice) != 1 || strings.Count(stderr, "\n") != 1 {
		t.Errorf("batch asking for shards three times: exit %d, stderr %q; want one notice line", code, stderr)
	}
	if code, _, stderr := run("validate", a); code != 0 || !strings.Contains(stderr, "shards is ignored") {
		t.Errorf("validate of a manifest setting shards: exit %d, stderr %q; want 0 and a note", code, stderr)
	}
	negative := withShards("negative", -1)
	for _, args := range [][]string{
		{"run", "-shards", "0", a},
		{"run", "-o", filepath.Join(dir, "neg"), negative},
		{"validate", negative},
	} {
		if code, _, _ := run(args...); code != 2 {
			t.Errorf("%v: exit %d, want 2", args, code)
		}
	}
}
