package main

import (
	"bytes"
	"encoding/json"
	"io"
	"os"
	"path/filepath"
	"regexp"
	"slices"
	"strings"
	"testing"

	"repro/internal/manifest"
)

// childEnv makes the test binary act as the bench binary, so the
// end-to-end pass can re-execute "itself" from a test.
const childEnv = "BENCH_TEST_CHILD"

func TestMain(m *testing.M) {
	if os.Getenv(childEnv) != "" {
		os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
	}
	os.Exit(m.Run())
}

// benchmarkJSON is the contract file at the repository root.
type benchmarkJSON struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	} `json:"per_layer"`
}

func loadBenchmarkJSON(t *testing.T) benchmarkJSON {
	t.Helper()
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var doc benchmarkJSON
	dec := json.NewDecoder(bytes.NewReader(b))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&doc); err != nil {
		t.Fatalf("BENCHMARK.json: %v", err)
	}
	return doc
}

var nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)

// TestWorkloadManifests: every embedded manifest parses, validates and
// compiles, with and without a seed written in, and the report-order list
// names exactly the embedded files.
func TestWorkloadManifests(t *testing.T) {
	entries, err := workloadFS.ReadDir("workloads")
	if err != nil {
		t.Fatal(err)
	}
	var embedded []string
	for _, e := range entries {
		embedded = append(embedded, strings.TrimSuffix(e.Name(), ".json"))
	}
	listed := slices.Clone(workloadNames())
	slices.Sort(listed)
	if !slices.Equal(embedded, listed) {
		t.Fatalf("workloadNames() = %v, embedded manifests = %v", listed, embedded)
	}
	for _, name := range embedded {
		for _, seed := range []uint64{0, 42} {
			path, err := generateManifest(t.TempDir(), name, seed)
			if err != nil {
				t.Fatal(err)
			}
			m, err := manifest.ParseFile(path)
			if err != nil {
				t.Fatalf("%s seed %d: %v", name, seed, err)
			}
			if _, err := manifest.Compile(m); err != nil {
				t.Fatalf("%s seed %d: %v", name, seed, err)
			}
			if m.Workers != 1 || m.WarmStart || m.Shards != 0 || m.Telemetry != nil || m.Expect != nil {
				t.Errorf("%s: workload manifests use only the core fields at workers 1", name)
			}
			want := seed
			if seedPinned[name] {
				want = 0
			}
			if got := m.SeedOr(0); got != want {
				t.Errorf("%s: generated seed %d, want %d", name, got, want)
			}
			if want := name + ".json"; m.Output.JSON != want {
				t.Errorf("%s: output.json = %q, want %q", name, m.Output.JSON, want)
			}
		}
	}
}

// TestContractNames: the metric and workload tables in the code are the
// ones BENCHMARK.json declares, name by name, with units, directions and
// bounds, and every name fits the contract's character set.
func TestContractNames(t *testing.T) {
	doc := loadBenchmarkJSON(t)
	var names []string
	for _, w := range doc.Workloads {
		names = append(names, w.Name)
	}
	if !slices.Equal(names, workloadNames()) {
		t.Errorf("workloads: BENCHMARK.json %v, bench %v", names, workloadNames())
	}
	if len(doc.EndToEnd) != len(endToEndMetrics) {
		t.Fatalf("end_to_end: BENCHMARK.json has %d metrics, bench %d", len(doc.EndToEnd), len(endToEndMetrics))
	}
	for i, def := range endToEndMetrics {
		if got := doc.EndToEnd[i]; got.Name != def.Name || got.Unit != def.Unit || got.Better != def.Better || got.Bound != def.Bound {
			t.Errorf("end_to_end[%d]: BENCHMARK.json %+v, bench %+v", i, got, def)
		}
		names = append(names, def.Name)
	}
	var layer []layerDef
	for _, def := range perLayerMetrics {
		if !def.FullOnly {
			layer = append(layer, def)
		}
		names = append(names, def.Name)
	}
	if len(doc.PerLayer) != len(layer) {
		t.Fatalf("per_layer: BENCHMARK.json has %d metrics, bench %d", len(doc.PerLayer), len(layer))
	}
	for i, def := range layer {
		if got := doc.PerLayer[i]; got.Name != def.Name || got.Unit != def.Unit || got.Better != def.Better {
			t.Errorf("per_layer[%d]: BENCHMARK.json %+v, bench %+v", i, got, def)
		}
	}
	for _, name := range names {
		if !nameRE.MatchString(name) {
			t.Errorf("name %q does not fit [A-Za-z0-9_.-]{1,64}", name)
		}
	}
}

// TestQuartiles: the ledger's quartiles are the ones the PR driver computes
// with Python's statistics.quantiles(values, n=4).
func TestQuartiles(t *testing.T) {
	s := summarize(metricDef{}, []float64{10, 1, 9, 2, 8, 3, 7, 4, 6, 5})
	if s.Q1 != 2.75 || s.Median != 5.5 || s.Q3 != 8.25 || s.Min != 1 || s.N != 10 {
		t.Errorf("summary of 1..10 = %+v; statistics.quantiles gives 2.75, 5.5, 8.25", s)
	}
}

// TestChaos32Run: one single-rep end-to-end pass over chaos32 yields a
// result that carries every contract metric with unit and bound, prints
// the driver's verdict line with exactly the BENCHMARK.json names, agrees
// with itself under -compare, and disagrees with a perturbed copy.
func TestChaos32Run(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the chaos32 workload twice in a child process")
	}
	t.Setenv(childEnv, "1")
	doc := loadBenchmarkJSON(t)
	o := options{workload: "chaos32", seconds: 0.01, rounds: 1, trace: 0, outDir: t.TempDir()}
	r := runner{o: o, exe: os.Args[0], tmp: t.TempDir(), stderr: os.Stderr}
	wr := &workloadResult{EndToEnd: map[string]*scored{}, PerLayer: map[string]*value{}}
	r.endToEnd("chaos32", wr)
	if wr.Failed != 0 || wr.Attempted != 2 {
		t.Fatalf("attempted %d failed %d (%v), want warm-up + 1 rep, none failed", wr.Attempted, wr.Failed, wr.Failures)
	}
	if wr.Points != 32 || wr.SimEvents == 0 || wr.SimScheduled < wr.SimEvents || len(wr.OutSHA256) != 64 {
		t.Errorf("identity: points %d events %d scheduled %d sha %q", wr.Points, wr.SimEvents, wr.SimScheduled, wr.OutSHA256)
	}
	res := &result{Schema: 1, Inputs: resolveInputs(o, []string{"chaos32"}), Canary: canaryResult{OK: true},
		Workloads: map[string]*workloadResult{"chaos32": wr}}

	var line bytes.Buffer
	printVerdict(&line, res, o, true, wr.Attempted, wr.Failed)
	var verdict map[string]json.RawMessage
	if err := json.Unmarshal(line.Bytes(), &verdict); err != nil {
		t.Fatal(err)
	}
	if len(verdict) != 4 || verdict["correct"] == nil || verdict["attempted"] == nil || verdict["failed"] == nil {
		t.Errorf("verdict keys: %s", line.String())
	}
	var metrics map[string]struct {
		Value float64
		Unit  string
	}
	if err := json.Unmarshal(verdict["metrics"], &metrics); err != nil {
		t.Fatal(err)
	}
	if len(metrics) != len(doc.EndToEnd) {
		t.Errorf("verdict has %d metrics, BENCHMARK.json %d", len(metrics), len(doc.EndToEnd))
	}
	for _, want := range doc.EndToEnd {
		got, ok := metrics[want.Name]
		s := wr.EndToEnd[want.Name]
		if !ok || got.Unit != want.Unit || got.Value <= 0 {
			t.Errorf("verdict metric %s = %+v, want unit %s and a positive value", want.Name, got, want.Unit)
		}
		if s == nil || s.Unit != want.Unit || s.Bound != want.Bound || s.Better != want.Better || s.N != 1 {
			t.Errorf("result metric %s = %+v, want %+v over one sample", want.Name, s, want)
		}
	}

	// Round-trip through the result file, as -compare reads it.
	path := filepath.Join(o.outDir, "result.json")
	if err := writeJSON(path, res); err != nil {
		t.Fatal(err)
	}
	if code := runCompare(path, path, io.Discard, os.Stderr); code != 0 {
		t.Errorf("-compare of a result with itself exited %d", code)
	}
	for name, perturb := range map[string]func(*workloadResult){
		"slower":      func(w *workloadResult) { w.EndToEnd["wall_s"].Median *= 1.5 },
		"more-allocs": func(w *workloadResult) { w.EndToEnd["allocs_per_event"].Median *= 1.03 },
		"events":      func(w *workloadResult) { w.SimEvents++ },
		"digest":      func(w *workloadResult) { w.OutSHA256 = strings.Repeat("0", 64) },
		"failed-rep":  func(w *workloadResult) { w.Failed = 1 },
	} {
		other, err := loadResult(path)
		if err != nil {
			t.Fatal(err)
		}
		perturb(other.Workloads["chaos32"])
		if compareResults(res, other, io.Discard) {
			t.Errorf("-compare accepts the %s copy", name)
		}
	}
	faster, err := loadResult(path)
	if err != nil {
		t.Fatal(err)
	}
	faster.Workloads["chaos32"].EndToEnd["wall_s"].Median *= 0.5
	if !compareResults(res, faster, io.Discard) {
		t.Error("-compare rejects a copy that only got faster")
	}
}
