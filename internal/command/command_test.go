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
	"repro/internal/sweep"
	"repro/internal/topology"
)

// run invokes the dispatcher and returns (exit code, stdout, stderr).
func run(args ...string) (int, string, string) {
	var out, errb bytes.Buffer
	code := Run(args, &out, &errb)
	return code, out.String(), errb.String()
}

// TestExitCodes is the table test over the unified flag-validation
// convention: exit 2 for anything rejected before the simulation starts.
// The manifest's own checks are table-tested in package manifest; the rows
// here pin that they surface as exit 2 through validate and run. The
// output-destination rows pin the writer: a device is written and never
// cut, and a directory fails when the report is written (exit 1).
func TestExitCodes(t *testing.T) {
	dir := t.TempDir()
	missing := filepath.Join(dir, "nope", "out.json")
	m := smallOSUManifest(t, dir, "m.json", "", "")
	base := filepath.Join(dir, "base.json") // never read: a bad -tol is rejected first
	stringSizes := writeManifest(t, dir, "string-sizes.json",
		`{"kind":"osu","grid":{"algorithms":["ring-allgather"],"nodes":[4],"sizes":"4096:65536"}}`)
	badAlgo := writeManifest(t, dir, "bad-algo.json",
		`{"kind":"osu","grid":{"algorithms":["nope-allgather"],"nodes":[4],"sizes":[4096]}}`)
	// One rank receives nothing in no time: bandwidth is 0, not NaN or +Inf.
	oneRank := func(algo string) string {
		return writeManifest(t, dir, algo+"-1.json",
			`{"kind":"osu","grid":{"algorithms":["`+algo+`"],"nodes":[1],"sizes":[4096]},"osu":{"iters":1}}`)
	}
	// Outputs a manifest declares are checked before the run, like the flags.
	declared := func(name, outputs string) string {
		return writeManifest(t, dir, name+".json", `{"kind":"sweep","sections":[{"title":"t","kernel":"psn-sizing"}],`+outputs+`}`)
	}
	missingJSON := declared("missing-json", `"output":{"json":"`+missing+`"}`)
	missingCSV := declared("missing-csv", `"output":{"csv":"`+missing+`"}`)
	missingMetrics := declared("missing-metrics", `"telemetry":{"metrics":"`+missing+`"}`)
	// Two manifests that write one file are rejected before either runs.
	sameA := declared("same-a", `"output":{"json":"same.json"}`)
	sameB := declared("same-b", `"output":{"json":"same.json"}`)
	// One file spelled relative to the working directory and absolute is
	// still one file.
	wd, err := os.Getwd()
	if err != nil {
		t.Fatal(err)
	}
	spelled := filepath.Join(dir, "spelled.json")
	rel, err := filepath.Rel(wd, spelled)
	if err != nil {
		t.Fatal(err)
	}
	spelledRel := declared("spelled-rel", `"output":{"json":"`+rel+`"}`)
	spelledAbs := declared("spelled-abs", `"output":{"json":"`+spelled+`"}`)
	missingPerfetto := writeManifest(t, dir, "missing-perfetto.json",
		`{"kind":"osu","grid":{"algorithms":["ring-allgather"],"nodes":[2],"sizes":[4096]},"telemetry":{"perfetto":"`+missing+`"}}`)
	cases := []struct {
		name string
		args []string
		want int
		err  string // substring expected on stderr ("" = don't check)
	}{
		{"no args", nil, 2, "usage"},
		{"unknown subcommand", []string{"frobnicate"}, 2, "unknown subcommand"},
		{"retired shim", []string{"osu", "-nodes", "8"}, 2, "unknown subcommand"},
		{"help", []string{"help"}, 0, ""},
		{"bad flag", []string{"run", "-no-such-flag", m}, 2, ""},

		{"run bad json dir", []string{"run", "-json", missing, m}, 2, "does not exist"},
		{"run json to a device", []string{"run", "-json", os.DevNull, m}, 0, ""},
		{"run json to a directory", []string{"run", "-json", dir, m}, 1, "is a directory"},
		{"run bad csv dir", []string{"run", "-csv", missing, m}, 2, "does not exist"},
		{"run bad workers", []string{"run", "-workers", "-2", m}, 2, "-workers must be >= 0"},
		{"run bad shards", []string{"run", "-shards", "0", m}, 2, "-shards must be positive"},
		{"run zero tol", []string{"run", "-compare", base, "-tol", "0", m}, 2, "expect.sha256"},
		{"run negative tol", []string{"run", "-compare", base, "-tol", "-0.5", m}, 2, "-tol must be > 0"},
		{"run tol without baseline", []string{"run", "-tol", "0.1", m}, 2, "no baseline"},
		{"run string sizes", []string{"run", stringSizes}, 2, "cannot unmarshal string"},
		{"validate string sizes", []string{"validate", stringSizes}, 2, "cannot unmarshal string"},
		{"validate bad algo", []string{"validate", badAlgo}, 2, "mcast-allgather"},
		{"run ring allgather on one rank", []string{"run", "-json", filepath.Join(dir, "ring-1.out.json"), oneRank("ring-allgather")}, 0, ""},
		{"run knomial broadcast on one rank", []string{"run", "-json", filepath.Join(dir, "knomial-1.out.json"), oneRank("knomial-broadcast")}, 0, ""},
		{"run declared json dir missing", []string{"run", missingJSON}, 2, "output.json: directory"},
		{"run declared csv dir missing", []string{"run", missingCSV}, 2, "output.csv: directory"},
		{"run declared metrics dir missing", []string{"run", missingMetrics}, 2, "telemetry.metrics: directory"},
		{"run declared perfetto dir missing", []string{"run", missingPerfetto}, 2, "telemetry.perfetto: directory"},
		{"run declared output under -o", []string{"run", "-o", dir, missingJSON}, 0, ""},
		{"run two manifests writing one file", []string{"run", "-o", filepath.Join(dir, "same"), sameA, sameB}, 2, sameB + `: duplicate output artifact "` + filepath.Join(dir, "same", "same.json") + `" (also declared by ` + sameA + ")"},
		{"run one file spelled two ways", []string{"run", spelledRel, spelledAbs}, 2, `duplicate output artifact "` + spelled + `"`},

		{"run no manifest", []string{"run"}, 2, "usage"},
		{"run bad memprofile dir", []string{"run", "-memprofile", missing, "absent.json"}, 2, "-memprofile: directory"},
		{"run missing file", []string{"run", filepath.Join(t.TempDir(), "absent.json")}, 2, ""},
		{"validate no args", []string{"validate"}, 2, "usage"},
		{"list extra args", []string{"list", "x"}, 2, "usage"},
		{"replay at overflows ns", []string{"replay", "-at", "9300000000000000", m}, 2, "-at must be <="},
		{"replay interval overflows ns", []string{"replay", "-interval", "9300000000000000", m}, 2, "-interval and -at must be <="},
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
	for _, algo := range []string{"ring", "knomial"} {
		rep, err := sweep.LoadFile(filepath.Join(dir, algo+"-1.out.json"))
		if err != nil {
			t.Fatal(err)
		}
		if got := rep.Records[0].Metric("gibps"); got != 0 {
			t.Errorf("%s on one rank: gibps %v, want 0", algo, got)
		}
	}
	if _, stdout, _ := run("run", missingJSON); stdout != "" {
		t.Errorf("a run with a missing output directory printed %q; want nothing run", stdout)
	}
	if _, stdout, _ := run("run", "-o", filepath.Join(dir, "same2"), sameA, sameB); stdout != "" {
		t.Errorf("a batch writing one file twice printed %q; want nothing run", stdout)
	}
	if _, err := os.Stat(spelled); !os.IsNotExist(err) {
		t.Errorf("a batch writing one file under two spellings wrote it: %v", err)
	}
}

// TestCompareTolerance pins -tol: the given tolerance is the one applied
// (a 1% move fails at 0.1% and passes at 5%) and the one printed. The
// baseline is read before the run writes anything, so -compare may name
// the run's own -json output and still diff against the previous bytes,
// and a missing baseline fails before anything is simulated.
func TestCompareTolerance(t *testing.T) {
	dir := t.TempDir()
	m := smallOSUManifest(t, dir, "m.json", "", "")
	base := filepath.Join(dir, "base.json")
	if code, stdout, stderr := run("run", "-compare", base, m); code != 1 || stdout != "" || !strings.Contains(stderr, base) {
		t.Fatalf("missing baseline: exit %d, stdout %q, stderr %q; want exit 1 naming it before any run", code, stdout, stderr)
	}
	if code, _, stderr := run("run", "-json", base, m); code != 0 {
		t.Fatalf("writing the baseline: exit %d: %s", code, stderr)
	}
	rep, err := sweep.LoadFile(base)
	if err != nil {
		t.Fatal(err)
	}
	moved := false
	for i := range rep.Records {
		for k, v := range rep.Records[i].Metrics {
			if v != 0 {
				rep.Records[i].Metrics[k] = v * 1.01
				moved = true
			}
		}
	}
	if !moved {
		t.Fatal("baseline has no nonzero metric to move")
	}
	var buf bytes.Buffer
	if err := sweep.WriteJSON(&buf, rep); err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		extra   []string
		tol     string
		printed string
		want    int
	}{
		{nil, "0.001", "(tol 0.1%)", 1},
		{nil, "0.05", "(tol 5%)", 0},
		{[]string{"-json", base}, "0.001", "(tol 0.1%)", 1},
	} {
		if err := os.WriteFile(base, buf.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		args := append(append([]string{"run"}, c.extra...), "-compare", base, "-tol", c.tol, m)
		code, stdout, stderr := run(args...)
		if code != c.want || !strings.Contains(stdout, c.printed) {
			t.Errorf("%v on a 1%% move: exit %d, want %d; stdout %q, stderr %q", args[1:len(args)-1], code, c.want, stdout, stderr)
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
	for _, want := range []string{"kinds:", "mcast-allgather", "quiet", "fsdp-ring", "kernels:", "rx-rate", "traffic-model", "pair", "psn-sizing", "economics"} {
		if !strings.Contains(out, want) {
			t.Errorf("list output missing %q:\n%s", want, out)
		}
	}
	if strings.Contains(out, "cost") {
		t.Errorf("list output still names the retired cost kind:\n%s", out)
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
	if err := os.WriteFile(bad, []byte(`{"kind":"sweep","sections":[{"title":"t","kernel":"economics"}],"seed":1}`), 0o644); err != nil {
		t.Fatal(err)
	}
	code, _, stderr := run("validate", good, bad)
	if code != 2 || !strings.Contains(stderr, "1 of 2 manifests invalid") {
		t.Fatalf("validate with one bad manifest: exit %d, stderr %q", code, stderr)
	}
}

// TestValidateDirectories covers the directory form of `repro validate`:
// a directory argument expands to the manifests inside it, an empty
// directory is an error, and the whole shipping tree validates clean.
func TestValidateDirectories(t *testing.T) {
	tree := filepath.Join("..", "..", "manifests")
	code, out, stderr := run("validate", tree)
	if code != 0 {
		t.Fatalf("validate %s: exit %d, stderr %q", tree, code, stderr)
	}
	for _, want := range []string{
		"ok " + filepath.Join(tree, "pr.json"),
		"ok " + filepath.Join(tree, "chaos.json"),
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
// exercise distinct stacks — pr (OSU collectives), chaos (scenario kernel
// and its quiet anchor), train (workload DAGs) — under the -shards values existing scripts pass. The flag is
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
			Sizes:      []int{4096},
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
			Sizes:      []int{4096},
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

// TestGoldenCostManifest pins manifests/cost.json end to end: the report
// must match the manifest's expect.sha256, and stdout — every section's
// title, table and note — must match testdata/stdout_cost.golden.txt byte
// for byte.
func TestGoldenCostManifest(t *testing.T) {
	src, err := filepath.Abs(filepath.Join("..", "..", "manifests", "cost.json"))
	if err != nil {
		t.Fatal(err)
	}
	code, stdout, stderr := run("run", "-o", t.TempDir(), src)
	if code != 0 {
		t.Fatalf("repro run: exit %d, stderr %s", code, stderr)
	}
	if !strings.Contains(stdout, "# output digest matches expect.sha256\n") {
		t.Fatalf("stdout does not confirm the digest:\n%s", stdout)
	}
	golden, err := os.ReadFile(filepath.Join("testdata", "stdout_cost.golden.txt"))
	if err != nil {
		t.Fatal(err)
	}
	if stdout != string(golden) {
		t.Errorf("stdout differs from testdata/stdout_cost.golden.txt:\n%s", stdout)
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
		args := append([]string{"run", "-json", records, "-metrics", metrics}, extra...)
		args = append(args, osu8)
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
			Grid:   manifest.Grid{Algorithms: []string{"mcast-allgather"}, Nodes: []int{4}, Sizes: []int{4096}},
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

// TestWarmStartIgnored pins the compatibility contract of warm_start: a
// manifest that sets it still parses and runs, writes the same bytes as
// the manifest without it, and validates with a note on stderr. The
// kind-consumption table is unchanged, so a kind that never consumed the
// field still rejects it.
func TestWarmStartIgnored(t *testing.T) {
	dir := t.TempDir()
	write := func(name string, m manifest.Manifest) string {
		t.Helper()
		path := filepath.Join(dir, name+".json")
		if err := os.WriteFile(path, m.Encode(), 0o644); err != nil {
			t.Fatal(err)
		}
		return path
	}
	chaos := func(name string, warm bool) string {
		return write(name, manifest.Manifest{
			Kind: "chaos",
			Grid: manifest.Grid{Algorithms: []string{"mcast-allgather"}, Nodes: []int{8},
				Sizes: []int{4096}, Scenarios: []string{"quiet", "flap-spine"}},
			WarmStart: warm,
			Output:    manifest.Output{JSON: "out.json"},
		})
	}
	outputs := func(path string) string {
		t.Helper()
		out := filepath.Join(dir, filepath.Base(path)+".out")
		code, stdout, stderr := run("run", "-o", out, path)
		if code != 0 {
			t.Fatalf("run %s: exit %d: %s", path, code, stderr)
		}
		data, err := os.ReadFile(filepath.Join(out, "out.json"))
		if err != nil {
			t.Fatal(err)
		}
		return string(data) + stdout
	}
	cold, warm := chaos("cold", false), chaos("warm", true)
	if outputs(cold) != outputs(warm) {
		t.Error("warm_start changed the records or stdout")
	}
	if code, _, stderr := run("validate", warm); code != 0 || !strings.Contains(stderr, "note: warm_start is ignored") {
		t.Errorf("validate of a manifest setting warm_start: exit %d, stderr %q; want 0 and a note", code, stderr)
	}
	if code, _, stderr := run("validate", cold); code != 0 || stderr != "" {
		t.Errorf("validate without warm_start: exit %d, stderr %q; want 0 and no note", code, stderr)
	}
	tables := write("tables", manifest.Manifest{Kind: "sweep", WarmStart: true,
		Sections: []manifest.SectionSpec{{Title: "t", Kernel: "economics"}}})
	if code, _, stderr := run("validate", tables); code != 2 || !strings.Contains(stderr, "does not consume warm_start") {
		t.Errorf("sweep manifest setting warm_start: exit %d, stderr %q; want 2", code, stderr)
	}
}
