package manifest

import (
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"repro/internal/sweep"
)

func parseOK(t *testing.T, src string) Manifest {
	t.Helper()
	m, err := Parse([]byte(src))
	if err != nil {
		t.Fatalf("Parse(%s): %v", src, err)
	}
	return m
}

func parseErr(t *testing.T, src, want string) {
	t.Helper()
	_, err := Parse([]byte(src))
	if err == nil {
		t.Fatalf("Parse(%s): expected error containing %q, got nil", src, want)
	}
	if !strings.Contains(err.Error(), want) {
		t.Fatalf("Parse(%s): error %q does not contain %q", src, err, want)
	}
}

func TestParseRejectsUnknownFields(t *testing.T) {
	// Top level, nested object, and the grid all reject unknown keys.
	parseErr(t, `{"kind":"osu","bogus":1}`, "bogus")
	parseErr(t, `{"kind":"osu","grid":{"algorithms":["mcast-allgather"],"nodes":[8],"sizes":[4096],"sizzes":[1]}}`, "sizzes")
	parseErr(t, `{"kind":"osu","grid":{"algorithms":["mcast-allgather"],"nodes":[8],"sizes":[4096]},"osu":{"itters":5}}`, "itters")
	parseErr(t, `{"kind":"osu","grid":{"algorithms":["mcast-allgather"],"nodes":[8],"sizes":[4096]}} {"kind":"osu"}`, "trailing data")
	// sizes is an array of ints; a string is a type error, not a grammar.
	parseErr(t, `{"kind":"osu","grid":{"algorithms":["mcast-allgather"],"nodes":[8],"sizes":"4096:65536"}}`, "cannot unmarshal string")
}

func TestValidateKindConsumption(t *testing.T) {
	// A field a kind does not consume is an error, not silence.
	parseErr(t, `{"kind":"dpa","all":true,"grid":{"nodes":[8]}}`, "does not consume grid.nodes")
	parseErr(t, `{"kind":"traffic","grid":{"nodes":[8],"sizes":[4096]},"seed":3}`, "does not consume seed")
	parseErr(t, `{"kind":"osu","grid":{"algorithms":["mcast-allgather"],"nodes":[8],"sizes":[4096]},"train":{"layers":2}}`, "does not consume train")
	parseErr(t, `{"kind":"cost","all":true,"tables":[1]}`, "does not consume tables")
}

func TestValidateCrossChecks(t *testing.T) {
	parseErr(t, `{"kind":"osu","grid":{"algorithms":["nope-allgather"],"nodes":[8],"sizes":[4096]}}`, "unknown algorithm")
	parseErr(t, `{"kind":"osu","grid":{"algorithms":["mcast-allgather"],"ops":["broadcast"],"nodes":[8],"sizes":[4096]}}`, "does not match algorithm")
	parseErr(t, `{"kind":"osu","grid":{"algorithms":["mcast-allgather"],"nodes":[500],"sizes":[4096]}}`, "[1,188]")
	parseErr(t, `{"kind":"osu","grid":{"algorithms":["mcast-allgather"],"nodes":[8],"sizes":[9223372036854775807]}}`, "grid.sizes must be in")
	parseErr(t, `{"kind":"osu","grid":{"algorithms":["mcast-allgather"],"nodes":[8],"sizes":[0]}}`, "grid.sizes must be in")
	parseErr(t, `{"kind":"traffic","grid":{"nodes":[1],"sizes":[4096]}}`, "[2,188]")
	parseErr(t, `{"kind":"chaos","grid":{"algorithms":["mcast-allgather"],"scenarios":["hurricane"],"nodes":[8],"sizes":[4096]}}`, "hurricane")
	parseErr(t, `{"kind":"train","grid":{"workloads":["nope"],"nodes":[8],"sizes":[4096]}}`, "unknown workload")
	parseErr(t, `{"kind":"ag","figures":[12]}`, "exactly one figure")
	parseErr(t, `{"kind":"dpa","figures":[6]}`, "no figure 6")
	parseErr(t, `{"kind":"dpa"}`, "figures, tables or all")
	parseErr(t, `{"kind":"cost","figures":[3]}`, "no figure 3")
	parseErr(t, `{"kind":"cost"}`, "figures, speedup, economics or all")
	parseErr(t, `{"kind":"zebra"}`, "unknown kind")
}

// TestCheckedInManifestsCanonical pins the canonical form of everything
// under manifests/: each JSON document must re-encode to its own bytes
// (Parse∘Encode is the identity), and every manifest must compile.
func TestCheckedInManifestsCanonical(t *testing.T) {
	dir := filepath.Join("..", "..", "manifests")
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatalf("reading %s: %v", dir, err)
	}
	seen := 0
	for _, e := range entries {
		path := filepath.Join(dir, e.Name())
		m, err := ParseFile(path)
		if err != nil {
			t.Errorf("%s: %v", path, err)
			continue
		}
		if _, err := Compile(m); err != nil {
			t.Errorf("%s: compile: %v", path, err)
		}
		seen++
		raw, err := os.ReadFile(path)
		if err != nil {
			t.Fatalf("%s: %v", path, err)
		}
		if got := m.Encode(); string(got) != string(raw) {
			t.Errorf("%s is not in canonical form; run it through manifest.Encode:\n%s", path, got)
		}
	}
	if seen == 0 {
		t.Fatalf("no JSON manifests found in %s", dir)
	}
}

// TestRoundTripThroughGrid walks a manifest to its compiled sweep.Grid and
// back: the grid the PR manifest compiles to must be exactly the legacy
// osu CI grid, and re-encoding the parsed manifest must be stable.
func TestRoundTripThroughGrid(t *testing.T) {
	m, err := ParseFile(filepath.Join("..", "..", "manifests", "pr.json"))
	if err != nil {
		t.Fatal(err)
	}
	p, err := Compile(m)
	if err != nil {
		t.Fatal(err)
	}
	if p.Name != "osu-mcast-allgather" {
		t.Fatalf("report name = %q, want osu-mcast-allgather", p.Name)
	}
	if len(p.Sections) != 1 || p.Sections[0].Grid == nil {
		t.Fatalf("expected one grid section, got %+v", p.Sections)
	}
	want := sweep.Grid{
		Algorithms: []string{"mcast-allgather"},
		Ops:        []string{"allgather"},
		Nodes:      []int{32},
		MsgBytes:   []int{4096, 8192, 16384, 32768, 65536, 131072, 262144, 524288, 1048576},
		Seed:       1,
	}
	if !reflect.DeepEqual(*p.Sections[0].Grid, want) {
		t.Fatalf("compiled grid = %+v, want %+v", *p.Sections[0].Grid, want)
	}
	// Encode twice through a parse: canonical form is a fixed point.
	once := m.Encode()
	again, err := Parse(once)
	if err != nil {
		t.Fatal(err)
	}
	if string(again.Encode()) != string(once) {
		t.Fatalf("Encode is not a fixed point:\n%s\nvs\n%s", once, again.Encode())
	}
}

func TestSeedDefaults(t *testing.T) {
	m := parseOK(t, `{"kind":"chaos","grid":{"algorithms":["mcast-allgather"],"scenarios":["quiet"],"nodes":[8],"sizes":[4096]}}`)
	if got := m.SeedOr(7); got != 7 {
		t.Fatalf("SeedOr(7) with absent seed = %d", got)
	}
	m = parseOK(t, `{"kind":"chaos","grid":{"algorithms":["mcast-allgather"],"scenarios":["quiet"],"nodes":[8],"sizes":[4096]},"seed":99}`)
	if got := m.SeedOr(7); got != 99 {
		t.Fatalf("SeedOr(7) with explicit seed = %d", got)
	}
}
