package command

import (
	"bytes"
	"compress/gzip"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
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
	type exitCase struct {
		name string
		args []string
		want int
		err  string // substring expected on stderr ("" = don't check)
	}
	cases := []exitCase{
		{"no args", nil, 2, "usage"},
		{"unknown subcommand", []string{"frobnicate"}, 2, "unknown subcommand"},
		{"retired shim", []string{"osu", "-nodes", "8"}, 2, "unknown subcommand"},
		{"help", []string{"help"}, 0, ""},
		{"bad flag", []string{"run", "-no-such-flag", m}, 2, ""},

		{"run bad json dir", []string{"run", "-json", missing, m}, 2, "does not exist"},
		{"run json to a device", []string{"run", "-json", os.DevNull, m}, 0, ""},
		{"run json to a directory", []string{"run", "-json", dir, m}, 1, "is a directory"},
		{"run bad workers", []string{"run", "-workers", "-2", m}, 2, "-workers must be >= 0"},
		{"run removed shards flag", []string{"run", "-shards", "2", m}, 2, shardsHint},
		{"run string sizes", []string{"run", stringSizes}, 2, "cannot unmarshal string"},
		{"validate string sizes", []string{"validate", stringSizes}, 2, "cannot unmarshal string"},
		{"validate bad algo", []string{"validate", badAlgo}, 2, "mcast-allgather"},
		{"run ring allgather on one rank", []string{"run", "-json", filepath.Join(dir, "ring-1.out.json"), oneRank("ring-allgather")}, 0, ""},
		{"run knomial broadcast on one rank", []string{"run", "-json", filepath.Join(dir, "knomial-1.out.json"), oneRank("knomial-broadcast")}, 0, ""},
		{"run declared json dir missing", []string{"run", missingJSON}, 2, "output.json: directory"},
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
	// The retired tolerance compare and CSV output: their flags fail in
	// the flag package, and a manifest setting a retired field (or a
	// one-value knob that is now a constant) fails to parse, from run and
	// from validate alike, and a refused run creates no -o directory.
	var refusedDirs []string
	refuse := func(name, err string, args ...string) {
		out := filepath.Join(dir, "refused-"+name)
		refusedDirs = append(refusedDirs, out)
		cases = append(cases,
			exitCase{"run " + name, append([]string{"run", "-o", out}, args...), 2, err},
			exitCase{"validate " + name, append([]string{"validate"}, args...), 2, err})
	}
	for _, flag := range [][]string{{"-compare", filepath.Join(dir, "base.json")}, {"-tol", "0.05"}, {"-csv", filepath.Join(dir, "out.csv")}} {
		refuse("flag "+flag[0], "flag provided but not defined: "+flag[0], append(flag, m)...)
	}
	osuGrid := `"grid":{"algorithms":["ring-allgather"],"nodes":[2],"sizes":[4096]}`
	trainGrid := `"grid":{"workloads":["fsdp-inc"],"nodes":[2],"sizes":[4096]}`
	for _, f := range []struct{ name, doc, field string }{
		{"baseline.path", `{"kind":"osu",` + osuGrid + `,"baseline":{"path":"base.json"}}`, "baseline"},
		{"baseline.tolerance", `{"kind":"osu",` + osuGrid + `,"baseline":{"path":"base.json","tolerance":0.05}}`, "baseline"},
		{"output.csv", `{"kind":"osu",` + osuGrid + `,"output":{"csv":"out.csv"}}`, "csv"},
		{"osu.warmup", `{"kind":"osu",` + osuGrid + `,"osu":{"warmup":2}}`, "warmup"},
		{"osu.link_gbps", `{"kind":"osu",` + osuGrid + `,"osu":{"link_gbps":56}}`, "link_gbps"},
		{"train.compute_us", `{"kind":"train",` + trainGrid + `,"train":{"compute_us":150}}`, "compute_us"},
		{"train.jobs", `{"kind":"train",` + trainGrid + `,"train":{"jobs":2}}`, "jobs"},
		{"telemetry.filters", `{"kind":"osu",` + osuGrid + `,"telemetry":{"filters":["fabric/"]}}`, "filters"},
		{"telemetry.sample_period_us", `{"kind":"osu",` + osuGrid + `,"telemetry":{"sample_period_us":100}}`, "sample_period_us"},
	} {
		path := writeManifest(t, dir, "retired-"+f.name+".json", f.doc)
		refuse("field "+f.name, `unknown field "`+f.field+`"`, path)
	}
	// Values the run could never honour are refused before anything runs:
	// a jitter whose nanoseconds overflow an int64, and a digest pin that
	// is not the 64 lowercase hex characters the run writes.
	nonHex, upper := strings.Repeat("Z", 64), strings.Repeat("A", 64)
	jittered := `{"kind":"sweep","sections":[{"title":"t","kernel":"osu","jitter_us":9300000000000000,` +
		`"grids":[{"algorithms":["ring-allgather"],"nodes":[2],"msg_bytes":[4096]}]}]}`
	for _, f := range []struct{ name, doc, err string }{
		{"jitter_us overflows ns", jittered, "sections[0]: jitter_us must be in [0,9223372036854775]"},
		{"expect.sha256 not hex", `{"kind":"osu",` + osuGrid + `,"expect":{"sha256":"` + nonHex + `"}}`, "expect.sha256 must be 64 lowercase hex"},
		{"expect.sha256 uppercase", `{"kind":"osu",` + osuGrid + `,"expect":{"sha256":"` + upper + `"}}`, "expect.sha256 must be 64 lowercase hex"},
		{"telemetry.expect_sha256 not hex", `{"kind":"osu",` + osuGrid + `,"telemetry":{"metrics":"m.json","expect_sha256":"` + nonHex + `"}}`, "telemetry.expect_sha256 must be 64 lowercase hex"},
		{"telemetry.expect_sha256 uppercase", `{"kind":"osu",` + osuGrid + `,"telemetry":{"metrics":"m.json","expect_sha256":"` + upper + `"}}`, "telemetry.expect_sha256 must be 64 lowercase hex"},
	} {
		path := writeManifest(t, dir, "refused-"+strings.ReplaceAll(f.name, " ", "-")+".json", f.doc)
		refuse(f.name, f.err, path)
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
	for _, out := range refusedDirs {
		if _, err := os.Stat(out); !os.IsNotExist(err) {
			t.Errorf("a run refused with exit 2 left -o %s behind (stat: %v)", out, err)
		}
	}
	for _, algo := range []string{"ring", "knomial"} {
		b, err := os.ReadFile(filepath.Join(dir, algo+"-1.out.json"))
		if err != nil {
			t.Fatal(err)
		}
		var rep sweep.Report
		if err := json.Unmarshal(b, &rep); err != nil {
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
// and its quiet anchor), train (workload DAGs) — across the shard counts
// scripts used to pass. The engine is serial, so the one-shard leg is the
// plain run at -workers 1: it must match the manifest's expect.sha256 (a
// zero exit IS the byte-identity assertion; the digest-confirmation line
// is checked anyway so a manifest that silently loses its expect block
// fails loudly). A leg asking for more shards through the removed -shards
// flag exits 2 with the hint before it writes anything.
func TestManifestShardMatrix(t *testing.T) {
	if testing.Short() {
		t.Skip("three multi-second sweeps; skipped with -short")
	}
	for _, name := range []string{"pr.json", "chaos.json", "train.json"} {
		src, err := filepath.Abs(filepath.Join("..", "..", "manifests", name))
		if err != nil {
			t.Fatal(err)
		}
		for _, shards := range []string{"1", "2", "8"} {
			t.Run(name+"/shards="+shards, func(t *testing.T) {
				t.Parallel()
				out := filepath.Join(t.TempDir(), "out")
				if shards != "1" {
					code, stdout, stderr := run("run", "-shards", shards, "-o", out, src)
					if code != 2 || stdout != "" || !strings.HasSuffix(stderr, shardsHint+"\n") {
						t.Fatalf("exit %d, stdout %q, stderr %q; want 2 and the hint", code, stdout, stderr)
					}
					if _, err := os.Stat(out); !os.IsNotExist(err) {
						t.Fatalf("the refused run created its -o directory (stat: %v)", err)
					}
					return
				}
				code, stdout, stderr := run("run", "-workers", "1", "-o", out, src)
				if code != 0 || stderr != "" {
					t.Fatalf("exit %d, stderr %s", code, stderr)
				}
				if !strings.Contains(stdout, "digest matches expect.sha256") {
					t.Fatalf("stdout does not confirm the digest:\n%s", stdout)
				}
			})
		}
	}
}

// smallOSUManifest writes a fast single-point osu manifest to dir and
// returns its path. out names the declared output file (relative paths
// land in the process working directory unless redirected with -o);
// digest pins expect.sha256 when non-empty.
func smallOSUManifest(t *testing.T, dir, name, out, digest string) string {
	t.Helper()
	m := manifest.Manifest{
		Kind: "osu",
		Grid: manifest.Grid{
			Algorithms: []string{"mcast-allgather"},
			Nodes:      []int{4},
			Sizes:      []int{4096},
		},
		OSU:    &manifest.OSUSpec{Iters: 1},
		Output: manifest.Output{JSON: out},
	}
	if digest != "" {
		m.Expect = &manifest.Expect{SHA256: digest}
	}
	path := filepath.Join(dir, name)
	saveManifest(t, path, m)
	return path
}

// saveManifest writes m to path as JSON.
func saveManifest(t *testing.T, path string, m manifest.Manifest) {
	t.Helper()
	raw, err := json.Marshal(m)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, raw, 0o644); err != nil {
		t.Fatal(err)
	}
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
	saveManifest(t, path, m)
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
// testbed: every adjacency entry, every link and every entry of the flat
// routing table, its interned ECMP lists included.
func structureDigest() string {
	g := topology.Testbed188()
	h := sha256.New()
	for n := range g.Nodes {
		fmt.Fprintf(h, "node %+v adj %v\n", g.Nodes[n], g.Adj[n])
	}
	fmt.Fprintf(h, "links %v\nrouting %v", g.Links, *g.Routing())
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

// TestShardsRejected: the engine is serial, so the -shards flag and a
// manifest's "shards" are refused with exit 2 and a one-line hint, by run
// and by validate, before anything runs.
func TestShardsRejected(t *testing.T) {
	dir := t.TempDir()
	out := filepath.Join(dir, "out")
	for _, n := range []string{"1", "2"} {
		code, stdout, stderr := run("run", "-shards", n, "-o", out, osu8)
		if code != 2 || stdout != "" || !strings.HasSuffix(stderr, "\n"+shardsHint+"\n") {
			t.Errorf("-shards %s: exit %d, stdout %q, stderr %q; want 2 ending in the hint", n, code, stdout, stderr)
		}
	}

	const hint = "manifest: shards is not supported: the engine is serial; remove it and use workers"
	for _, shards := range []int{2, 1, -1} {
		m := manifest.Manifest{
			Kind:   "osu",
			Grid:   manifest.Grid{Algorithms: []string{"mcast-allgather"}, Nodes: []int{4}, Sizes: []int{4096}},
			OSU:    &manifest.OSUSpec{Iters: 1},
			Output: manifest.Output{JSON: "out.json"},
			Shards: shards,
		}
		path := filepath.Join(dir, fmt.Sprintf("shards%d.json", shards))
		saveManifest(t, path, m)
		if code, _, stderr := run("run", "-o", out, path); code != 2 || stderr != "run: "+path+": "+hint+"\n" {
			t.Errorf("run of a manifest with shards %d: exit %d, stderr %q; want 2 and one hint line", shards, code, stderr)
		}
		if code, _, stderr := run("validate", path); code != 2 || !strings.Contains(stderr, path+": "+hint+"\n") {
			t.Errorf("validate of a manifest with shards %d: exit %d, stderr %q; want 2 and the hint", shards, code, stderr)
		}
	}
}

// TestWarmStartRejected: every point builds its own stack, so a manifest
// setting warm_start is refused with exit 2 and a one-line hint, by run
// and by validate, whatever its kind. The same manifest without it
// validates cleanly.
func TestWarmStartRejected(t *testing.T) {
	dir := t.TempDir()
	write := func(name string, m manifest.Manifest) string {
		t.Helper()
		path := filepath.Join(dir, name+".json")
		saveManifest(t, path, m)
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
	cold, warm := chaos("cold", false), chaos("warm", true)
	if code, _, stderr := run("validate", cold); code != 0 || stderr != "" {
		t.Errorf("validate without warm_start: exit %d, stderr %q; want 0 and nothing on stderr", code, stderr)
	}
	tables := write("tables", manifest.Manifest{Kind: "sweep", WarmStart: true,
		Sections: []manifest.SectionSpec{{Title: "t", Kernel: "economics"}}})
	const hint = "manifest: warm_start is not supported: every point builds its own stack; remove it"
	out := filepath.Join(dir, "out")
	for _, path := range []string{warm, tables} {
		if code, _, stderr := run("run", "-o", out, path); code != 2 || stderr != "run: "+path+": "+hint+"\n" {
			t.Errorf("run %s: exit %d, stderr %q; want 2 and one hint line", path, code, stderr)
		}
		if code, _, stderr := run("validate", path); code != 2 || !strings.Contains(stderr, path+": "+hint+"\n") {
			t.Errorf("validate %s: exit %d, stderr %q; want 2 and the hint", path, code, stderr)
		}
	}
	// A refused batch leaves no -o directory behind, even when the refused
	// manifest follows a valid one.
	if code, _, _ := run("run", "-o", out, cold, warm); code != 2 {
		t.Errorf("run of a batch ending in warm_start: exit %d, want 2", code)
	}
	if _, err := os.Stat(out); !os.IsNotExist(err) {
		t.Errorf("a run refused with exit 2 left -o %s behind (stat: %v)", out, err)
	}
}

// TestPerfettoNeedsTraceablePoint: a manifest whose telemetry.perfetto asks
// for a trace its plan cannot produce (manifests/dpa.json, whose sections
// are all receive-datapath kernels) is invalid to validate and to run
// alike, and the refused run creates no -o directory. The -trace flag is a
// run-time request, checked when the run starts.
func TestPerfettoNeedsTraceablePoint(t *testing.T) {
	m, err := manifest.ParseFile(filepath.Join("..", "..", "manifests", "dpa.json"))
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	plain := filepath.Join(dir, "plain.json")
	saveManifest(t, plain, m)
	m.Telemetry = &manifest.TelemetrySpec{Perfetto: "T.json"}
	traced := filepath.Join(dir, "traced.json")
	saveManifest(t, traced, m)
	const msg = "manifest: telemetry.perfetto set, but no section of the manifest has a traceable point"
	if code, stdout, stderr := run("validate", traced); code != 2 || !strings.Contains(stderr, traced+": "+msg+"\n") || stdout != "" {
		t.Errorf("validate: exit %d, stdout %q, stderr %q; want 2 and %q", code, stdout, stderr, msg)
	}
	out := filepath.Join(dir, "out")
	if code, _, stderr := run("run", "-o", out, traced); code != 2 || stderr != "run: "+traced+": "+msg+"\n" {
		t.Errorf("run: exit %d, stderr %q; want 2 and %q", code, stderr, msg)
	}
	if code, _, stderr := run("run", "-perfetto", filepath.Join(dir, "p.json"), plain); code != 2 || stderr != "run: "+plain+": "+msg+"\n" {
		t.Errorf("run -perfetto: exit %d, stderr %q; want 2 and %q", code, stderr, msg)
	}
	if code, _, stderr := run("run", "-trace", filepath.Join(dir, "t.txt"), "-o", out, plain); code != 2 || stderr != "run: no section of "+plain+" has a traceable point\n" {
		t.Errorf("run -trace: exit %d, stderr %q; want 2 and the run-time refusal", code, stderr)
	}
	if _, err := os.Stat(out); !os.IsNotExist(err) {
		t.Errorf("a refused run left -o %s behind (stat: %v)", out, err)
	}
}

// TestRunEndsWithCollection pins the collection every `repro run` ends
// with: a caller timing runs in one process reads the runtime's CPU-class
// counters, which only a collection advances, and a small run may not
// allocate enough to start one by itself.
func TestRunEndsWithCollection(t *testing.T) {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	if code, _, errOut := run("run", "-json", filepath.Join(t.TempDir(), "osu8.json"), osu8); code != 0 {
		t.Fatalf("exit %d: %s", code, errOut)
	}
	runtime.ReadMemStats(&after)
	if after.NumGC == before.NumGC {
		t.Fatal("repro run returned without a collection")
	}
}

// TestCPUProfileCoversEveryManifest runs two manifests under one
// -cpuprofile: the profile must hold the first one's samples too, not only
// the last one's. Every sample the osu manifest takes runs inside
// harness.osuRun, which the chaos manifest after it never calls, so the
// profile's string table names osuRun only if the first run was profiled.
// The osu point (a 2 MiB ring Allgather over 32 hosts) takes a few tenths
// of a CPU second, a few dozen samples at the profiler's 100 Hz.
func TestCPUProfileCoversEveryManifest(t *testing.T) {
	dir := t.TempDir()
	first := writeManifest(t, dir, "ring.json",
		`{"kind":"osu","grid":{"algorithms":["ring-allgather"],"nodes":[32],"sizes":[2097152]},"osu":{"iters":4}}`)
	prof := filepath.Join(dir, "cpu.prof")
	if code, _, stderr := run("run", "-cpuprofile", prof, first, "testdata/chaos_all.json"); code != 0 {
		t.Fatalf("exit %d: %s", code, stderr)
	}
	f, err := os.Open(prof)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	zr, err := gzip.NewReader(f)
	if err != nil {
		t.Fatal(err)
	}
	var raw bytes.Buffer
	if _, err := raw.ReadFrom(zr); err != nil {
		t.Fatal(err)
	}
	if !bytes.Contains(raw.Bytes(), []byte("repro/internal/harness.osuRun")) {
		t.Fatal("the CPU profile names no function of the first manifest's run: it holds only the last manifest's samples")
	}
}
