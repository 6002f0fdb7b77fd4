package manifest

import (
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"repro/internal/model"
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

// sweepDoc is a one-section sweep manifest running kernel over grids (a
// comma-separated list of sweep.Grid objects).
func sweepDoc(kernel, grids string) string {
	return `{"kind":"sweep","sections":[{"title":"t","kernel":"` + kernel + `","grids":[` + grids + `]}]}`
}

const (
	opGrid = `{"algorithms":["mcast-allgather"],"nodes":[8],"msg_bytes":[4096]}`
	rxGrid = `{"transports":["uc"],"threads":[1],"chunk_sizes":[4096],"msg_bytes":[8192]}`
)

func TestValidateKindConsumption(t *testing.T) {
	// A field a kind does not consume is an error, not silence.
	sweepWith := func(top string) string {
		return `{"kind":"sweep",` + top + `,"sections":[{"title":"t","kernel":"op","grids":[` + opGrid + `]}]}`
	}
	parseErr(t, sweepWith(`"grid":{"nodes":[8]}`), "does not consume grid.nodes")
	parseErr(t, sweepWith(`"seed":3`), "does not consume seed")
	parseErr(t, `{"kind":"osu","grid":{"algorithms":["mcast-allgather"],"nodes":[8],"sizes":[4096]},"train":{"layers":2}}`, "does not consume train")
	parseErr(t, `{"kind":"osu","grid":{"algorithms":["mcast-allgather"],"nodes":[8],"sizes":[4096]},"sections":[{"title":"t","kernel":"op","grids":[`+opGrid+`]}]}`, "does not consume sections")
	parseErr(t, sweepWith(`"tables":[1]`), `unknown field "tables"`)
	// The retired experiment selectors are no manifest fields at all.
	for _, retired := range []string{`"figures":[2]`, `"speedup":true`, `"economics":true`, `"all":true`} {
		parseErr(t, sweepWith(retired), "unknown field")
	}
	parseErr(t, sweepWith(`"traffic":{"iters":2}`), `unknown field "traffic"`)

	// Each sweep kernel reads its own grid axes; any other is rejected.
	parseErr(t, sweepDoc("op", `{"algorithms":["mcast-allgather"],"nodes":[8],"msg_bytes":[4096],"transports":["ud"]}`), "kernel op does not consume transports")
	parseErr(t, sweepDoc("op", `{"algorithms":["mcast-allgather"],"ops":["allgather"],"nodes":[8],"msg_bytes":[4096]}`), "kernel op does not consume ops")
	parseErr(t, sweepDoc("traffic", `{"algorithms":["mcast-allgather"],"nodes":[8],"msg_bytes":[4096],"threads":[1]}`), "kernel traffic does not consume threads")
	parseErr(t, sweepDoc("traffic", `{"algorithms":["mcast-allgather"],"nodes":[8],"msg_bytes":[4096],"scenarios":["quiet"]}`), "kernel traffic does not consume scenarios")
	parseErr(t, sweepDoc("rx", `{"algorithms":["mcast-allgather"],"transports":["uc"],"threads":[1],"chunk_sizes":[4096],"msg_bytes":[8192]}`), "kernel rx does not consume algorithms")
	parseErr(t, sweepDoc("rx", `{"workloads":["fsdp-inc"],"transports":["uc"],"threads":[1],"chunk_sizes":[4096],"msg_bytes":[8192]}`), "kernel rx does not consume workloads")
	parseErr(t, sweepDoc("rx-rate", rxGrid), "kernel rx-rate does not consume msg_bytes")
	parseErr(t, sweepDoc("rx-rate", `{"transports":["uc"],"threads":[1],"chunk_sizes":[64],"nodes":[2]}`), "kernel rx-rate does not consume nodes")
	parseErr(t, sweepDoc("traffic-model", `{"msg_bytes":[65536],"nodes":[8]}`), "kernel traffic-model does not consume nodes")
	parseErr(t, sweepDoc("pair", `{"algorithms":["ring-pair"],"nodes":[4],"msg_bytes":[4096],"chunk_sizes":[4096]}`), "kernel pair does not consume chunk_sizes")
	// ...and the axes it needs must be there.
	parseErr(t, sweepDoc("op", `{"algorithms":["mcast-allgather"],"nodes":[8]}`), "kernel op needs msg_bytes")
	parseErr(t, sweepDoc("rx", `{"transports":["uc"],"threads":[1],"msg_bytes":[8192]}`), "kernel rx needs chunk_sizes")
	parseOK(t, sweepDoc("op", `{"algorithms":["chain-broadcast"],"nodes":[8],"msg_bytes":[4096],"chunk_sizes":[16384]}`))
	parseOK(t, sweepDoc("rx-rate", `{"transports":["ud"],"threads":[1],"chunk_sizes":[64]}`))
	parseOK(t, sweepDoc("traffic-model", `{"msg_bytes":[65536]}`))
	parseOK(t, `{"kind":"sweep","sections":[{"title":"t","kernel":"psn-sizing"},{"title":"u","kernel":"economics"}]}`)
}

func TestValidateCrossChecks(t *testing.T) {
	parseErr(t, `{"kind":"osu","grid":{"algorithms":["nope-allgather"],"nodes":[8],"sizes":[4096]}}`, "unknown algorithm")
	parseErr(t, `{"kind":"osu","grid":{"algorithms":["mcast-allgather"],"ops":["broadcast"],"nodes":[8],"sizes":[4096]}}`, "does not match algorithm")
	parseErr(t, `{"kind":"osu","grid":{"algorithms":["mcast-allgather"],"nodes":[500],"sizes":[4096]}}`, "[1,188]")
	parseErr(t, `{"kind":"osu","grid":{"algorithms":["mcast-allgather"],"nodes":[8],"sizes":[9223372036854775807]}}`, "grid.sizes must be in")
	parseErr(t, `{"kind":"osu","grid":{"algorithms":["mcast-allgather"],"nodes":[8],"sizes":[0]}}`, "grid.sizes must be in")
	parseErr(t, `{"kind":"train","grid":{"workloads":["fsdp-inc"],"nodes":[100000],"sizes":[4096]},"train":{"layers":1}}`, "grid.nodes must be in [2,188]")
	parseErr(t, `{"kind":"chaos","grid":{"algorithms":["mcast-allgather"],"scenarios":["hurricane"],"nodes":[8],"sizes":[4096]}}`, "hurricane")
	parseErr(t, `{"kind":"train","grid":{"workloads":["nope"],"nodes":[8],"sizes":[4096]}}`, "unknown workload")
	for _, retired := range []string{"ag", "traffic", "dpa", "cost"} {
		parseErr(t, `{"kind":"`+retired+`"}`, "unknown kind")
	}
	parseErr(t, `{"kind":"sweep","figures":[3],"sections":[{"title":"t","kernel":"psn-sizing"}]}`, `unknown field "figures"`)
	parseErr(t, `{"kind":"zebra"}`, "unknown kind")

	// The sweep kind: sections, grids, kernel names, registry and
	// transport names, and axis ranges.
	parseErr(t, `{"kind":"sweep"}`, "sweep needs sections")
	parseErr(t, `{"kind":"sweep","sections":[]}`, "sweep needs sections")
	parseErr(t, `{"kind":"sweep","sections":[{"title":"t","kernel":"op","grids":[]}]}`, "sections[0] needs grids")
	parseErr(t, `{"kind":"sweep","sections":[{"title":"t","kernel":"op"}]}`, "sections[0] needs grids")
	parseErr(t, sweepDoc("fig11", opGrid), `unknown kernel "fig11"`)
	parseErr(t, sweepDoc("op", opGrid+`,{"algorithms":["nope-allgather"],"nodes":[8],"msg_bytes":[4096]}`), "sections[0].grids[1]: unknown algorithm")
	parseErr(t, sweepDoc("rx", `{"transports":["rc"],"threads":[1],"chunk_sizes":[4096],"msg_bytes":[8192]}`), `unknown transport "rc"`)
	parseErr(t, sweepDoc("op", `{"algorithms":["mcast-allgather"],"nodes":[0],"msg_bytes":[4096]}`), "nodes must be in [1,188]")
	parseErr(t, sweepDoc("op", `{"algorithms":["mcast-allgather"],"nodes":[189],"msg_bytes":[4096]}`), "nodes must be in [1,188]")
	parseErr(t, sweepDoc("traffic", `{"algorithms":["mcast-allgather"],"nodes":[1],"msg_bytes":[4096]}`), "nodes must be in [2,188]")
	parseErr(t, sweepDoc("op", `{"algorithms":["mcast-allgather"],"nodes":[8],"msg_bytes":[0]}`), "msg_bytes must be in")
	parseErr(t, sweepDoc("op", `{"algorithms":["mcast-allgather"],"nodes":[8],"msg_bytes":[9223372036854775807]}`), "msg_bytes must be in")
	parseErr(t, sweepDoc("op", `{"algorithms":["chain-broadcast"],"nodes":[8],"msg_bytes":[4096],"chunk_sizes":[-1]}`), "chunk_sizes must be in")
	parseErr(t, sweepDoc("rx", `{"transports":["uc"],"threads":[0],"chunk_sizes":[4096],"msg_bytes":[8192]}`), "threads must be in [1,256]")
	parseErr(t, sweepDoc("rx-rate", `{"transports":["uc"],"threads":[512],"chunk_sizes":[64]}`), "threads must be in [1,256]")
	parseErr(t, sweepDoc("rx", `{"transports":["uc","ud"],"threads":[1],"chunk_sizes":[8192],"msg_bytes":[8192]}`), "chunk_sizes must be in [1,4096]")
	parseErr(t, sweepDoc("rx", `{"transports":["cpu-ud"],"threads":[1],"chunk_sizes":[8192],"msg_bytes":[8192]}`), "chunk_sizes must be in [1,4096]")
	parseOK(t, sweepDoc("rx", `{"transports":["uc","cpu-rc"],"threads":[256],"chunk_sizes":[65536],"msg_bytes":[8388608]}`))

	// A pair names its configuration, not a registry algorithm, and needs
	// two ranks; a gridless kernel takes no grids.
	parseErr(t, sweepDoc("pair", `{"algorithms":["ring-allgather"],"nodes":[4],"msg_bytes":[4096]}`), `unknown pair "ring-allgather"`)
	parseErr(t, sweepDoc("pair", `{"algorithms":["inc-pair"],"nodes":[1],"msg_bytes":[4096]}`), "nodes must be in [2,188]")
	parseOK(t, sweepDoc("pair", `{"algorithms":["ring-pair","inc-pair"],"nodes":[2,16],"msg_bytes":[4096]}`))
	parseErr(t, sweepDoc("psn-sizing", `{"msg_bytes":[4096]}`), "sections[0]: kernel psn-sizing takes no grids")
	parseErr(t, sweepDoc("economics", `{"algorithms":["superpod-node"]}`), "sections[0]: kernel economics takes no grids")
	parseErr(t, sweepDoc("traffic-model", `{"msg_bytes":[0]}`), "msg_bytes must be in")
}

// TestFig11Sections pins how manifests/fig11.json lowers: one section of
// 24 points indexed 0..23 across its two grids, the 20 multicast and P2P
// points seeded from base 11 and the 4 chain-broadcast points carrying
// 16 KiB chunks and seeds from base 112.
func TestFig11Sections(t *testing.T) {
	m, err := ParseFile(filepath.Join("..", "..", "manifests", "fig11.json"))
	if err != nil {
		t.Fatal(err)
	}
	p, err := Compile(m)
	if err != nil {
		t.Fatal(err)
	}
	if p.Name != "agbench-fig11" || len(p.Sections) != 1 {
		t.Fatalf("name %q with %d sections, want agbench-fig11 with 1", p.Name, len(p.Sections))
	}
	specs := p.Sections[0].Specs
	if len(specs) != 24 {
		t.Fatalf("%d specs, want 24", len(specs))
	}
	for i, s := range specs {
		if s.Index != i {
			t.Errorf("specs[%d].Index = %d", i, s.Index)
		}
		base, chunk, idx := uint64(11), 0, i
		if i >= 20 {
			base, chunk, idx = 112, 16384, i-20
			if s.Algorithm != "chain-broadcast" {
				t.Errorf("specs[%d] is %s, want chain-broadcast", i, s.Algorithm)
			}
		}
		if s.ChunkSize != chunk || s.Seed != sweep.PointSeed(base, idx) || s.Nodes != 188 {
			t.Errorf("specs[%d] = %+v, want chunk %d, seed PointSeed(%d, %d), 188 nodes", i, s, chunk, base, idx)
		}
	}
	if p.ReplaySpec == nil || *p.ReplaySpec != specs[0] || p.Trace == nil {
		t.Errorf("replayed point %v, want the first point %v", p.ReplaySpec, specs[0])
	}
}

// TestCostSections pins what the report digest of manifests/cost.json
// cannot: the PSN-sizing note is literal text in the file, so its numbers
// are checked here against the model that computes them, and the manifest
// has no traced or replayed point (it has no op or traffic section).
func TestCostSections(t *testing.T) {
	m, err := ParseFile(filepath.Join("..", "..", "manifests", "cost.json"))
	if err != nil {
		t.Fatal(err)
	}
	p, err := Compile(m)
	if err != nil {
		t.Fatal(err)
	}
	note := fmt.Sprintf("LLC-limited receive buffer: %.1f GB (paper: ~50 GB); communicators fitting the LLC: %d (paper: >16).",
		model.MaxBufferFittingLLC(4096)/1e9, model.CommunicatorsFittingLLC(64<<10, 16<<10))
	if len(m.Sections) != 4 || m.Sections[1].Kernel != "psn-sizing" || m.Sections[1].Note != note {
		t.Errorf("sections %+v; want four, the second a psn-sizing section noting %q", m.Sections, note)
	}
	if p.ReplaySpec != nil || p.Trace != nil {
		t.Error("cost.json has a traced or replayed point")
	}
}

// TestCheckedInManifestsCanonical pins the canonical form of everything
// under manifests/: each JSON document must re-encode to its own bytes
// (Parse∘Encode is the identity), and every manifest must compile. The
// sweep manifests that carry the paper's figures must be among them.
func TestCheckedInManifestsCanonical(t *testing.T) {
	dir := filepath.Join("..", "..", "manifests")
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatalf("reading %s: %v", dir, err)
	}
	seen := 0
	names := map[string]bool{}
	for _, e := range entries {
		names[e.Name()] = true
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
	for _, want := range []string{"ag.json", "fig10.json", "fig11.json", "fig12.json", "dpa.json", "dpa-figures.json", "cost.json"} {
		if !names[want] {
			t.Errorf("%s is missing from %s", want, dir)
		}
	}
}

// TestRoundTripThroughGrid walks a manifest to its compiled points and
// back: the PR manifest must compile to exactly the points of the legacy
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
	if len(p.Sections) != 1 {
		t.Fatalf("expected one section, got %+v", p.Sections)
	}
	want := sweep.Grid{
		Algorithms: []string{"mcast-allgather"},
		Ops:        []string{"allgather"},
		Nodes:      []int{32},
		MsgBytes:   []int{4096, 8192, 16384, 32768, 65536, 131072, 262144, 524288, 1048576},
		Seed:       1,
	}
	if !reflect.DeepEqual(p.Sections[0].Specs, want.Expand()) {
		t.Fatalf("compiled specs = %+v, want the expansion of %+v", p.Sections[0].Specs, want)
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
