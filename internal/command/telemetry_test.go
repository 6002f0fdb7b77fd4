package command

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// osu8 is the fixed small OSU manifest (mcast-allgather, 8 nodes, 64 KiB,
// 2 iterations) the telemetry determinism tests share.
var osu8 = filepath.Join("testdata", "osu8.json")

// osuMetricsArgs runs osu8 with any extra flags, writing metrics.json to
// path.
func osuMetricsArgs(path string, extra ...string) []string {
	args := append([]string{"run", "-metrics", path}, extra...)
	return append(args, osu8)
}

// TestMetricsByteIdentity is the telemetry half of the determinism
// contract: the canonical metrics.json must be byte-identical at every
// -workers value, and must match the checked-in golden — so
// any drift in an instrumented counter is a reviewed diff, not silent
// noise.
func TestMetricsByteIdentity(t *testing.T) {
	golden, err := os.ReadFile(filepath.Join("testdata", "metrics_osu8.golden.json"))
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	configs := map[string][]string{
		"default": nil,
		"w1":      {"-workers", "1"},
		"w4":      {"-workers", "4"},
	}
	for name, extra := range configs {
		path := filepath.Join(dir, name+".json")
		if code, _, errOut := run(osuMetricsArgs(path, extra...)...); code != 0 {
			t.Fatalf("%s: exit %d: %s", name, code, errOut)
		}
		got, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		if string(got) != string(golden) {
			t.Errorf("%s: metrics.json differs from testdata/metrics_osu8.golden.json", name)
		}
	}
}

// TestPerfettoDeterministic pins the trace export: the same invocation
// produces byte-identical Perfetto JSON, and the document is well-formed
// enough to carry both protocol slices and counter tracks.
func TestPerfettoDeterministic(t *testing.T) {
	dir := t.TempDir()
	var traces [2][]byte
	for i := range traces {
		path := filepath.Join(dir, "trace"+string(rune('0'+i))+".json")
		args := []string{"run", "-perfetto", path, osu8}
		if code, _, errOut := run(args...); code != 0 {
			t.Fatalf("run %d: exit %d: %s", i, code, errOut)
		}
		b, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		traces[i] = b
	}
	if string(traces[0]) != string(traces[1]) {
		t.Fatal("two identical runs produced different Perfetto traces")
	}
	s := string(traces[0])
	for _, want := range []string{`"traceEvents"`, `"displayTimeUnit": "ns"`, `"ph": "X"`, `"ph": "C"`} {
		if !strings.Contains(s, want) {
			t.Errorf("Perfetto trace missing %s", want)
		}
	}
}

// TestTracedRunGoldens pins the traced run of each simulated kind against
// checked-in goldens (generated when the trace runs had builders of their
// own): running testdata/traced_<kind>.json, the -trace text timeline, the
// -perfetto document and the `repro trace` summary of the sweep's
// metrics.json must reproduce those bytes — with and without the ignored
// -shards 4, which must change none of them. The chaos point is perturbed
// hard enough to show the slow path (recovery, fetch-serve); the train
// point is the quiet anchor of a scenario sweep, so it runs under the
// guarded drive loop.
func TestTracedRunGoldens(t *testing.T) {
	for _, kind := range []string{"osu", "chaos", "train"} {
		for _, shards := range []string{"1", "4"} {
			t.Run(kind+"/shards="+shards, func(t *testing.T) {
				t.Parallel()
				dir := t.TempDir()
				trace, perfetto, metrics := filepath.Join(dir, "t.txt"), filepath.Join(dir, "p.json"), filepath.Join(dir, "m.json")
				args := []string{"run", "-shards", shards, "-trace", trace, "-perfetto", perfetto, "-metrics", metrics,
					filepath.Join("testdata", "traced_"+kind+".json")}
				if code, _, errOut := run(args...); code != 0 {
					t.Fatalf("exit %d: %s", code, errOut)
				}
				code, summary, errOut := run("trace", metrics)
				if code != 0 {
					t.Fatalf("trace: exit %d: %s", code, errOut)
				}
				summaryPath := filepath.Join(dir, "s.txt")
				if err := os.WriteFile(summaryPath, []byte(summary), 0o644); err != nil {
					t.Fatal(err)
				}
				for golden, got := range map[string]string{
					"trace_" + kind + ".golden.txt":     trace,
					"perfetto_" + kind + ".golden.json": perfetto,
					"summary_" + kind + ".golden.txt":   summaryPath,
				} {
					want, err := os.ReadFile(filepath.Join("testdata", golden))
					if err != nil {
						t.Fatal(err)
					}
					have, err := os.ReadFile(got)
					if err != nil {
						t.Fatal(err)
					}
					if string(have) != string(want) {
						t.Errorf("output differs from testdata/%s", golden)
					}
				}
			})
		}
	}
}

// TestTraceSubcommand covers `repro trace`: summarizing a metrics.json
// written by a run, plus its flag validation.
func TestTraceSubcommand(t *testing.T) {
	path := filepath.Join(t.TempDir(), "metrics.json")
	if code, _, errOut := run(osuMetricsArgs(path)...); code != 0 {
		t.Fatalf("run: %s", errOut)
	}
	code, out, errOut := run("trace", "-top", "3", path)
	if code != 0 {
		t.Fatalf("trace: exit %d: %s", code, errOut)
	}
	for _, want := range []string{"osu-mcast-allgather", "fabric", "verbs", "busiest channels"} {
		if !strings.Contains(out, want) {
			t.Errorf("trace summary missing %q in:\n%s", want, out)
		}
	}

	if code, _, _ := run("trace"); code != 2 {
		t.Errorf("trace without a path: exit %d, want 2", code)
	}
	if code, _, _ := run("trace", "-top", "0", path); code != 2 {
		t.Errorf("trace -top 0: exit %d, want 2", code)
	}
	if code, _, _ := run("trace", filepath.Join(t.TempDir(), "missing.json")); code != 1 {
		t.Errorf("trace on a missing file: exit %d, want 1", code)
	}
}

// TestTelemetryDigestGate pins the exit-1 behaviour of a wrong
// telemetry.expect_sha256.
func TestTelemetryDigestGate(t *testing.T) {
	dir := t.TempDir()
	manifest := filepath.Join(dir, "m.json")
	doc := `{
  "kind": "osu",
  "grid": {
    "algorithms": ["mcast-allgather"],
    "ops": ["allgather"],
    "nodes": [8],
    "sizes": [65536]
  },
  "osu": {"iters": 2},
  "telemetry": {
    "metrics": "` + filepath.Join(dir, "metrics.json") + `",
    "expect_sha256": "0000000000000000000000000000000000000000000000000000000000000000"
  }
}`
	if err := os.WriteFile(manifest, []byte(doc), 0o644); err != nil {
		t.Fatal(err)
	}
	code, _, errOut := run("run", manifest)
	if code != 1 || !strings.Contains(errOut, "telemetry.expect_sha256") {
		t.Fatalf("wrong metrics digest: exit %d (%s), want 1 with a digest message", code, errOut)
	}
}
