package manifest

import (
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
)

// TestLoadOverrides pins what each override does to the plan Load
// returns: the written value stays unless an override replaces it, and an
// overridden path is the plan's path.
func TestLoadOverrides(t *testing.T) {
	digest := strings.Repeat("a", 64)
	grids := `"sections":[{"title":"t","kernel":"op","grids":[` + opGrid + `]}]`
	full := `{"kind":"sweep","workers":3,` + grids + `,"output":{"json":"out/r.json"},` +
		`"telemetry":{"metrics":"tel/m.json","perfetto":"tel/p.json","expect_sha256":"` + digest + `"}}`
	bare := `{"kind":"sweep",` + grids + `}`
	cases := []struct {
		name      string
		doc       string
		o         Overrides
		workers   int
		json      string
		telemetry *TelemetrySpec
		outputs   []OutputFile
	}{
		{"none", full, Overrides{Workers: -1}, 3, "out/r.json",
			&TelemetrySpec{Metrics: "tel/m.json", Perfetto: "tel/p.json", Expect: digest},
			[]OutputFile{{"output.json", "out/r.json"}, {"telemetry.metrics", "tel/m.json"}, {"telemetry.perfetto", "tel/p.json"}}},
		{"dir rebases by basename", full, Overrides{Dir: "d", Workers: -1}, 3, filepath.Join("d", "r.json"),
			&TelemetrySpec{Metrics: filepath.Join("d", "m.json"), Perfetto: filepath.Join("d", "p.json"), Expect: digest},
			[]OutputFile{{"output.json", filepath.Join("d", "r.json")}, {"telemetry.metrics", filepath.Join("d", "m.json")},
				{"telemetry.perfetto", filepath.Join("d", "p.json")}}},
		{"json replaces the written path", full, Overrides{JSON: "j/new.json", Workers: -1}, 3, "j/new.json",
			&TelemetrySpec{Metrics: "tel/m.json", Perfetto: "tel/p.json", Expect: digest},
			[]OutputFile{{"output.json", "j/new.json"}, {"telemetry.metrics", "tel/m.json"}, {"telemetry.perfetto", "tel/p.json"}}},
		{"json then dir", bare, Overrides{JSON: "j/new.json", Dir: "d", Workers: -1}, 0, filepath.Join("d", "new.json"), nil,
			[]OutputFile{{"output.json", filepath.Join("d", "new.json")}}},
		{"metrics turns telemetry on", bare, Overrides{Metrics: "m.json", Workers: -1}, 0, "",
			&TelemetrySpec{Metrics: "m.json"}, []OutputFile{{"telemetry.metrics", "m.json"}}},
		{"metrics keeps the written digest", full, Overrides{Metrics: "m2.json", Workers: -1}, 3, "out/r.json",
			&TelemetrySpec{Metrics: "m2.json", Perfetto: "tel/p.json", Expect: digest},
			[]OutputFile{{"output.json", "out/r.json"}, {"telemetry.metrics", "m2.json"}, {"telemetry.perfetto", "tel/p.json"}}},
		{"telemetry alone writes nothing", bare, Overrides{Telemetry: true, Workers: -1}, 0, "", &TelemetrySpec{}, []OutputFile{}},
		{"workers 0 replaces the written value", full, Overrides{Workers: 0}, 0, "out/r.json",
			&TelemetrySpec{Metrics: "tel/m.json", Perfetto: "tel/p.json", Expect: digest},
			[]OutputFile{{"output.json", "out/r.json"}, {"telemetry.metrics", "tel/m.json"}, {"telemetry.perfetto", "tel/p.json"}}},
	}
	dir := t.TempDir()
	for _, c := range cases {
		path := filepath.Join(dir, "m.json")
		if err := os.WriteFile(path, []byte(c.doc), 0o644); err != nil {
			t.Fatal(err)
		}
		p, err := Load(path, c.o)
		if err != nil {
			t.Errorf("%s: %v", c.name, err)
			continue
		}
		if p.Workers != c.workers || p.Output.JSON != c.json || !reflect.DeepEqual(p.Telemetry, c.telemetry) {
			t.Errorf("%s: workers %d, output.json %q, telemetry %+v; want %d, %q, %+v",
				c.name, p.Workers, p.Output.JSON, p.Telemetry, c.workers, c.json, c.telemetry)
		}
		if got := p.Outputs(); !reflect.DeepEqual(got, c.outputs) {
			t.Errorf("%s: Outputs() = %v, want %v", c.name, got, c.outputs)
		}
	}
}

// TestLoadErrorsNameTheFile pins that every error Load returns starts with
// the manifest's path: a decode error, a validation error, and one an
// override causes.
func TestLoadErrorsNameTheFile(t *testing.T) {
	dir := t.TempDir()
	for _, c := range []struct {
		doc  string
		o    Overrides
		want string
	}{
		{`{"kind":"sweep","bogus":1}`, Overrides{Workers: -1}, "bogus"},
		{`{"kind":"sweep"}`, Overrides{Workers: -1}, "sweep needs sections"},
		{sweepDoc("rx", rxGrid), Overrides{Perfetto: "p.json", Workers: -1}, "no section of the manifest has a traceable point"},
	} {
		path := filepath.Join(dir, "m.json")
		if err := os.WriteFile(path, []byte(c.doc), 0o644); err != nil {
			t.Fatal(err)
		}
		_, err := Load(path, c.o)
		if err == nil || !strings.HasPrefix(err.Error(), path+": ") || !strings.Contains(err.Error(), c.want) {
			t.Errorf("Load(%s) = %v, want %q prefixed with the path", c.doc, err, c.want)
		}
	}
}

// FuzzLoad feeds arbitrary bytes through Load's pipeline, Parse then
// Compile: every input must come back as a plan or an error, never a
// panic. The corpus seeds from every checked-in manifest and ledger
// workload.
func FuzzLoad(f *testing.F) {
	for _, dir := range []string{"manifests", filepath.Join("bench", "workloads")} {
		paths, err := filepath.Glob(filepath.Join("..", "..", dir, "*.json"))
		if err != nil || len(paths) == 0 {
			f.Fatalf("no seed manifests in %s (%v)", dir, err)
		}
		for _, path := range paths {
			b, err := os.ReadFile(path)
			if err != nil {
				f.Fatal(err)
			}
			f.Add(b)
		}
	}
	f.Fuzz(func(t *testing.T, b []byte) {
		m, err := Parse(b)
		if err != nil {
			return
		}
		p, err := Compile(m)
		if err != nil {
			return
		}
		if len(p.Sections) == 0 {
			t.Fatalf("a plan without sections compiled from %q", b)
		}
	})
}
