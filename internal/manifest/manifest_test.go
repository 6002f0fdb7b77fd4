package manifest

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"repro/internal/model"
	"repro/internal/sweep"
)

// compileOK parses src and checks that it compiles.
func compileOK(t *testing.T, src string) Manifest {
	t.Helper()
	m, err := Parse([]byte(src))
	if err == nil {
		_, err = Compile(m)
	}
	if err != nil {
		t.Fatalf("Compile(%s): %v", src, err)
	}
	return m
}

// compileErr checks that src fails to parse or to compile with an error
// containing want.
func compileErr(t *testing.T, src, want string) {
	t.Helper()
	m, err := Parse([]byte(src))
	if err == nil {
		_, err = Compile(m)
	}
	if err == nil {
		t.Fatalf("Compile(%s): expected error containing %q, got nil", src, want)
	}
	if !strings.Contains(err.Error(), want) {
		t.Fatalf("Compile(%s): error %q does not contain %q", src, err, want)
	}
}

func TestParseRejectsUnknownFields(t *testing.T) {
	// Top level, nested object, and the grid all reject unknown keys.
	compileErr(t, `{"kind":"osu","bogus":1}`, "bogus")
	compileErr(t, `{"kind":"osu","grid":{"algorithms":["mcast-allgather"],"nodes":[8],"sizes":[4096],"sizzes":[1]}}`, "sizzes")
	compileErr(t, `{"kind":"osu","grid":{"algorithms":["mcast-allgather"],"nodes":[8],"sizes":[4096]},"osu":{"itters":5}}`, "itters")
	compileErr(t, `{"kind":"osu","grid":{"algorithms":["mcast-allgather"],"nodes":[8],"sizes":[4096]}} {"kind":"osu"}`, "trailing data")
	// sizes is an array of ints; a string is a type error, not a grammar.
	compileErr(t, `{"kind":"osu","grid":{"algorithms":["mcast-allgather"],"nodes":[8],"sizes":"4096:65536"}}`, "cannot unmarshal string")
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
	compileErr(t, sweepWith(`"grid":{"nodes":[8]}`), "kind sweep does not take grid, seed, osu or train")
	compileErr(t, sweepWith(`"seed":3`), "kind sweep does not take grid, seed, osu or train")
	compileErr(t, sweepWith(`"osu":{"iters":3}`), "kind sweep does not take grid, seed, osu or train")
	compileErr(t, `{"kind":"osu","grid":{"algorithms":["mcast-allgather"],"nodes":[8],"sizes":[4096]},"train":{"layers":2}}`, "sections[0]: kernel osu does not take layers")
	compileErr(t, `{"kind":"osu","grid":{"algorithms":["mcast-allgather"],"nodes":[8],"sizes":[4096]},"sections":[{"title":"t","kernel":"op","grids":[`+opGrid+`]}]}`, "kind osu does not take sections")
	compileErr(t, `{"kind":"chaos","grid":{"workloads":["fsdp-inc"],"algorithms":["mcast-allgather"],"scenarios":["quiet"],"nodes":[8],"sizes":[4096]}}`, "kernel resilience does not consume workloads")
	compileErr(t, sweepWith(`"tables":[1]`), `unknown field "tables"`)
	// The retired experiment selectors are no manifest fields at all.
	for _, retired := range []string{`"figures":[2]`, `"speedup":true`, `"economics":true`, `"all":true`} {
		compileErr(t, sweepWith(retired), "unknown field")
	}
	compileErr(t, sweepWith(`"traffic":{"iters":2}`), `unknown field "traffic"`)
	// shards and warm_start parse only to be refused, on every kind.
	osuDoc := `{"kind":"osu","grid":{"algorithms":["mcast-allgather"],"nodes":[8],"sizes":[4096]}`
	compileErr(t, osuDoc+`,"shards":2}`, "shards is not supported: the engine is serial; remove it and use workers")
	compileErr(t, osuDoc+`,"shards":-1}`, "shards is not supported")
	compileErr(t, osuDoc+`,"warm_start":true}`, "warm_start is not supported: every point builds its own stack; remove it")
	compileErr(t, sweepWith(`"warm_start":true`), "warm_start is not supported")
	compileErr(t, sweepWith(`"shards":4`), "shards is not supported")

	// Each sweep kernel reads its own grid axes; any other is rejected.
	compileErr(t, sweepDoc("op", `{"algorithms":["mcast-allgather"],"nodes":[8],"msg_bytes":[4096],"transports":["ud"]}`), "kernel op does not consume transports")
	compileErr(t, sweepDoc("op", `{"algorithms":["mcast-allgather"],"ops":["allgather"],"nodes":[8],"msg_bytes":[4096]}`), `unknown field "ops"`)
	compileErr(t, sweepDoc("osu", `{"algorithms":["mcast-allgather"],"nodes":[8],"msg_bytes":[4096],"scenarios":["quiet"]}`), "kernel osu does not consume scenarios")
	compileErr(t, sweepDoc("train", `{"algorithms":["mcast-allgather"],"workloads":["fsdp-inc"],"nodes":[8],"msg_bytes":[4096]}`), "kernel train does not consume algorithms")
	compileErr(t, sweepDoc("resilience", `{"algorithms":["mcast-allgather"],"nodes":[8],"msg_bytes":[4096]}`), "kernel resilience needs scenarios")
	compileErr(t, sweepDoc("traffic", `{"algorithms":["mcast-allgather"],"nodes":[8],"msg_bytes":[4096],"threads":[1]}`), "kernel traffic does not consume threads")
	compileErr(t, sweepDoc("traffic", `{"algorithms":["mcast-allgather"],"nodes":[8],"msg_bytes":[4096],"scenarios":["quiet"]}`), "kernel traffic does not consume scenarios")
	compileErr(t, sweepDoc("rx", `{"algorithms":["mcast-allgather"],"transports":["uc"],"threads":[1],"chunk_sizes":[4096],"msg_bytes":[8192]}`), "kernel rx does not consume algorithms")
	compileErr(t, sweepDoc("rx", `{"workloads":["fsdp-inc"],"transports":["uc"],"threads":[1],"chunk_sizes":[4096],"msg_bytes":[8192]}`), "kernel rx does not consume workloads")
	compileErr(t, sweepDoc("rx-rate", rxGrid), "kernel rx-rate does not consume msg_bytes")
	compileErr(t, sweepDoc("rx-rate", `{"transports":["uc"],"threads":[1],"chunk_sizes":[64],"nodes":[2]}`), "kernel rx-rate does not consume nodes")
	compileErr(t, sweepDoc("traffic-model", `{"msg_bytes":[65536],"nodes":[8]}`), "kernel traffic-model does not consume nodes")
	compileErr(t, sweepDoc("pair", `{"algorithms":["ring-pair"],"nodes":[4],"msg_bytes":[4096],"chunk_sizes":[4096]}`), "kernel pair does not consume chunk_sizes")
	// ...and the axes it needs must be there.
	compileErr(t, sweepDoc("op", `{"algorithms":["mcast-allgather"],"nodes":[8]}`), "kernel op needs msg_bytes")
	compileErr(t, sweepDoc("rx", `{"transports":["uc"],"threads":[1],"msg_bytes":[8192]}`), "kernel rx needs chunk_sizes")
	compileOK(t, sweepDoc("op", `{"algorithms":["chain-broadcast"],"nodes":[8],"msg_bytes":[4096],"chunk_sizes":[16384]}`))
	compileOK(t, sweepDoc("rx-rate", `{"transports":["ud"],"threads":[1],"chunk_sizes":[64]}`))
	compileOK(t, sweepDoc("traffic-model", `{"msg_bytes":[65536]}`))
	compileOK(t, `{"kind":"sweep","sections":[{"title":"t","kernel":"psn-sizing"},{"title":"u","kernel":"economics"}]}`)
}

func TestValidateCrossChecks(t *testing.T) {
	compileErr(t, `{"kind":"osu","grid":{"algorithms":["nope-allgather"],"nodes":[8],"sizes":[4096]}}`, "unknown algorithm")
	compileErr(t, `{"kind":"osu","grid":{"algorithms":["mcast-allgather"],"ops":["broadcast"],"nodes":[8],"sizes":[4096]}}`, `unknown field "ops"`)
	compileErr(t, `{"kind":"osu","grid":{"algorithms":["mcast-allgather"],"nodes":[500],"sizes":[4096]}}`, "[1,188]")
	compileErr(t, `{"kind":"osu","grid":{"algorithms":["mcast-allgather"],"nodes":[8],"sizes":[9223372036854775807]}}`, "msg_bytes must be in")
	compileErr(t, `{"kind":"osu","grid":{"algorithms":["mcast-allgather"],"nodes":[8],"sizes":[0]}}`, "msg_bytes must be in")
	compileErr(t, `{"kind":"train","grid":{"workloads":["fsdp-inc"],"nodes":[100000],"sizes":[4096]},"train":{"layers":1}}`, "nodes must be in [2,188]")
	compileErr(t, `{"kind":"chaos","grid":{"algorithms":["mcast-allgather"],"scenarios":["hurricane"],"nodes":[8],"sizes":[4096]}}`, "hurricane")
	compileErr(t, `{"kind":"train","grid":{"workloads":["nope"],"nodes":[8],"sizes":[4096]}}`, "unknown workload")
	for _, retired := range []string{"ag", "traffic", "dpa", "cost"} {
		compileErr(t, `{"kind":"`+retired+`"}`, "unknown kind")
	}
	compileErr(t, `{"kind":"sweep","figures":[3],"sections":[{"title":"t","kernel":"psn-sizing"}]}`, `unknown field "figures"`)
	compileErr(t, `{"kind":"zebra"}`, "unknown kind")

	// The sweep kind: sections, grids, kernel names, registry and
	// transport names, and axis ranges.
	compileErr(t, `{"kind":"sweep"}`, "sweep needs sections")
	compileErr(t, `{"kind":"sweep","sections":[]}`, "sweep needs sections")
	compileErr(t, `{"kind":"sweep","sections":[{"title":"t","kernel":"op","grids":[]}]}`, "sections[0] needs grids")
	compileErr(t, `{"kind":"sweep","sections":[{"title":"t","kernel":"op"}]}`, "sections[0] needs grids")
	compileErr(t, sweepDoc("fig11", opGrid), `unknown kernel "fig11"`)
	compileErr(t, sweepDoc("op", opGrid+`,{"algorithms":["nope-allgather"],"nodes":[8],"msg_bytes":[4096]}`), "sections[0].grids[1]: unknown algorithm")
	compileErr(t, sweepDoc("rx", `{"transports":["rc"],"threads":[1],"chunk_sizes":[4096],"msg_bytes":[8192]}`), `unknown transport "rc"`)
	compileErr(t, sweepDoc("op", `{"algorithms":["mcast-allgather"],"nodes":[0],"msg_bytes":[4096]}`), "nodes must be in [1,188]")
	compileErr(t, sweepDoc("op", `{"algorithms":["mcast-allgather"],"nodes":[189],"msg_bytes":[4096]}`), "nodes must be in [1,188]")
	compileErr(t, sweepDoc("traffic", `{"algorithms":["mcast-allgather"],"nodes":[1],"msg_bytes":[4096]}`), "nodes must be in [2,188]")
	compileErr(t, sweepDoc("op", `{"algorithms":["mcast-allgather"],"nodes":[8],"msg_bytes":[0]}`), "msg_bytes must be in")
	compileErr(t, sweepDoc("op", `{"algorithms":["mcast-allgather"],"nodes":[8],"msg_bytes":[9223372036854775807]}`), "msg_bytes must be in")
	compileErr(t, sweepDoc("op", `{"algorithms":["chain-broadcast"],"nodes":[8],"msg_bytes":[4096],"chunk_sizes":[-1]}`), "chunk_sizes must be in")
	compileErr(t, sweepDoc("rx", `{"transports":["uc"],"threads":[0],"chunk_sizes":[4096],"msg_bytes":[8192]}`), "threads must be in [1,256]")
	compileErr(t, sweepDoc("rx-rate", `{"transports":["uc"],"threads":[512],"chunk_sizes":[64]}`), "threads must be in [1,256]")
	compileErr(t, sweepDoc("rx", `{"transports":["uc","ud"],"threads":[1],"chunk_sizes":[8192],"msg_bytes":[8192]}`), "chunk_sizes must be in [1,4096]")
	compileErr(t, sweepDoc("rx", `{"transports":["cpu-ud"],"threads":[1],"chunk_sizes":[8192],"msg_bytes":[8192]}`), "chunk_sizes must be in [1,4096]")
	compileOK(t, sweepDoc("rx", `{"transports":["uc","cpu-rc"],"threads":[256],"chunk_sizes":[65536],"msg_bytes":[8388608]}`))

	// A pair names its configuration, not a registry algorithm, and needs
	// two ranks; a gridless kernel takes no grids.
	compileErr(t, sweepDoc("pair", `{"algorithms":["ring-allgather"],"nodes":[4],"msg_bytes":[4096]}`), `unknown pair "ring-allgather"`)
	compileErr(t, sweepDoc("pair", `{"algorithms":["inc-pair"],"nodes":[1],"msg_bytes":[4096]}`), "nodes must be in [2,188]")
	compileOK(t, sweepDoc("pair", `{"algorithms":["ring-pair","inc-pair"],"nodes":[2,16],"msg_bytes":[4096]}`))
	compileErr(t, sweepDoc("psn-sizing", `{"msg_bytes":[4096]}`), "sections[0]: kernel psn-sizing takes no grids")
	compileErr(t, sweepDoc("economics", `{"algorithms":["superpod-node"]}`), "sections[0]: kernel economics takes no grids")
	compileErr(t, sweepDoc("traffic-model", `{"msg_bytes":[0]}`), "msg_bytes must be in")
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
	if p.ReplaySpec == nil || *p.ReplaySpec != specs[0] || p.TraceSpec == nil {
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
	if p.ReplaySpec != nil || p.TraceSpec != nil {
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
			t.Errorf("%s is not in canonical form (Encode):\n%s", path, got)
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

// Encode renders the manifest in its canonical form: 2-space-indented JSON
// with struct field order, no HTML escaping (a note may say "> 16") and a
// trailing newline. Checked-in manifests are kept in this form (enforced
// by test), so Parse∘Encode is the identity on them byte for byte.
func (m Manifest) Encode() []byte {
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	enc.SetIndent("", "  ")
	enc.SetEscapeHTML(false)
	if err := enc.Encode(m); err != nil {
		// Manifest has no unmarshalable fields; a failure here is a
		// programming error.
		panic(err)
	}
	return buf.Bytes()
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
	m := compileOK(t, `{"kind":"chaos","grid":{"algorithms":["mcast-allgather"],"scenarios":["quiet"],"nodes":[8],"sizes":[4096]}}`)
	if got := m.SeedOr(7); got != 7 {
		t.Fatalf("SeedOr(7) with absent seed = %d", got)
	}
	m = compileOK(t, `{"kind":"chaos","grid":{"algorithms":["mcast-allgather"],"scenarios":["quiet"],"nodes":[8],"sizes":[4096]},"seed":99}`)
	if got := m.SeedOr(7); got != 99 {
		t.Fatalf("SeedOr(7) with explicit seed = %d", got)
	}
}

// TestSectionKnobs pins the section fields a kernel reads: osu takes iters
// and jitter_us, train takes layers, each bounded, and no other kernel
// takes any. A slowdown kernel's scenario list must hold its quiet anchor,
// and a section spells its scenarios out ("all" is shorthand only).
func TestSectionKnobs(t *testing.T) {
	const (
		osuGrid   = `{"algorithms":["mcast-allgather"],"nodes":[8],"msg_bytes":[4096]}`
		chaosGrid = `{"algorithms":["mcast-allgather"],"nodes":[8],"msg_bytes":[4096],"scenarios":["flap-spine"]}`
		trainGrid = `{"workloads":["fsdp-inc"],"nodes":[8],"msg_bytes":[4096]}`
	)
	knob := func(kernel, knobs, grid string) string {
		return `{"kind":"sweep","sections":[{"title":"t","kernel":"` + kernel + `",` + knobs + `,"grids":[` + grid + `]}]}`
	}
	compileOK(t, knob("osu", `"iters":3,"jitter_us":2`, osuGrid))
	compileOK(t, knob("train", `"layers":2`, trainGrid))
	compileErr(t, knob("op", `"iters":3`, opGrid), "sections[0]: kernel op does not take iters")
	compileErr(t, knob("train", `"jitter_us":1`, trainGrid), "sections[0]: kernel train does not take jitter_us")
	compileErr(t, knob("osu", `"layers":2`, osuGrid), "sections[0]: kernel osu does not take layers")
	compileErr(t, `{"kind":"sweep","sections":[{"title":"t","kernel":"economics","iters":2}]}`, "kernel economics does not take iters")
	compileErr(t, knob("osu", `"iters":-1`, osuGrid), "iters must be in [0,1048576], got -1")
	compileErr(t, knob("osu", `"iters":1048577`, osuGrid), "iters must be in [0,1048576]")
	compileErr(t, knob("osu", `"jitter_us":-1`, osuGrid), "jitter_us must be in [0,")
	compileErr(t, knob("train", `"layers":-1`, trainGrid), "layers must be in [0,1024], got -1")

	compileErr(t, sweepDoc("resilience", chaosGrid), "sections[0].grids[0]: kernel resilience needs the quiet scenario")
	compileErr(t, sweepDoc("train", `{"workloads":["fsdp-inc"],"nodes":[8],"msg_bytes":[4096],"scenarios":["flap-spine"]}`), "kernel train needs the quiet scenario")
	compileOK(t, sweepDoc("resilience", `{"algorithms":["mcast-allgather"],"nodes":[8],"msg_bytes":[4096],"scenarios":["flap-spine","quiet"]}`))
	compileErr(t, sweepDoc("resilience", `{"algorithms":["mcast-allgather"],"nodes":[8],"msg_bytes":[4096],"scenarios":["quiet","all"]}`), `unknown scenario "all"`)
	compileErr(t, sweepDoc("train", `{"workloads":["all"],"nodes":[8],"msg_bytes":[4096]}`), `unknown workload "all"`)
	compileErr(t, sweepDoc("resilience", `{"algorithms":["mcast-allgather"],"nodes":[1],"msg_bytes":[4096],"scenarios":["quiet"]}`), "nodes must be in [2,188]")
	compileErr(t, sweepDoc("train", `{"workloads":["fsdp-inc"],"nodes":[1],"msg_bytes":[4096]}`), "nodes must be in [2,188]")
	// The shorthand prepends the anchor its kind's header counts.
	p, err := Compile(compileOK(t, `{"kind":"chaos","grid":{"algorithms":["mcast-allgather"],"nodes":[8],"sizes":[4096],"scenarios":["flap-spine"]}}`))
	if err != nil {
		t.Fatal(err)
	}
	if h := p.Sections[0].Header; !strings.Contains(h, "1 algorithms x 2 scenarios") {
		t.Errorf("chaos header %q, want 2 scenarios (quiet prepended)", h)
	}
}

// TestRepresentativePoints pins each kernel's traced and replayed points
// and the one rule that picks them: the first section whose kernel has
// one. The train kernel annotates slowdowns only when it sweeps
// scenarios.
func TestRepresentativePoints(t *testing.T) {
	compile := func(sections string) *Plan {
		t.Helper()
		p, err := Compile(compileOK(t, `{"kind":"sweep","sections":[`+sections+`]}`))
		if err != nil {
			t.Fatal(err)
		}
		return p
	}
	section := func(kernel, grid string) string {
		return `{"title":"t","kernel":"` + kernel + `","grids":[` + grid + `]}`
	}
	const (
		collGrid  = `{"algorithms":["mcast-allgather","ring-allgather"],"nodes":[8],"msg_bytes":[4096,8192]}`
		chaosGrid = `{"algorithms":["mcast-allgather","ring-allgather"],"nodes":[8],"msg_bytes":[4096],"scenarios":["flap-spine","quiet"]}`
		trainGrid = `{"workloads":["fsdp-inc","fsdp-ring"],"nodes":[8],"msg_bytes":[4096]}`
	)
	for _, c := range []struct {
		sections      string
		trace, replay int // indices into the first section's specs; -1 for none
		post          bool
	}{
		{sections: section("op", collGrid), trace: 0, replay: 0},
		{sections: section("traffic", collGrid), trace: 0, replay: 0, post: true},
		{sections: section("osu", collGrid), trace: 3, replay: 3},
		{sections: section("resilience", chaosGrid), trace: 3, replay: 1, post: true},
		{sections: section("train", trainGrid), trace: 0, replay: -1},
		{sections: section("rx", rxGrid), trace: -1, replay: -1},
	} {
		p := compile(c.sections)
		specs := p.Sections[0].Specs
		if c.trace < 0 && p.TraceSpec != nil || c.trace >= 0 && (p.TraceSpec == nil || *p.TraceSpec != specs[c.trace]) {
			t.Errorf("%s: traced %v, want point %d", c.sections, p.TraceSpec, c.trace)
		}
		if c.replay < 0 && p.ReplaySpec != nil || c.replay >= 0 && (p.ReplaySpec == nil || *p.ReplaySpec != specs[c.replay]) {
			t.Errorf("%s: replayed %v, want point %d", c.sections, p.ReplaySpec, c.replay)
		}
		if got := p.Sections[0].Post != nil; got != c.post {
			t.Errorf("%s: post %v, want %v", c.sections, got, c.post)
		}
	}
	if p := compile(section("train", `{"workloads":["fsdp-inc"],"nodes":[8],"msg_bytes":[4096],"scenarios":["quiet","flap-spine"]}`)); p.Sections[0].Post == nil {
		t.Error("a train section sweeping scenarios has no slowdown annotation")
	}
	// Trace and replay each come from the first section that has one.
	p := compile(section("rx", rxGrid) + "," + section("train", trainGrid) + "," + section("op", collGrid))
	if p.TraceSpec == nil || *p.TraceSpec != p.Sections[1].Specs[0] {
		t.Errorf("traced %v, want the train section's first point", p.TraceSpec)
	}
	if p.ReplaySpec == nil || *p.ReplaySpec != p.Sections[2].Specs[0] {
		t.Errorf("replayed %v, want the op section's first point", p.ReplaySpec)
	}
}

// shorthandManifests holds the osu, chaos and train manifests of
// manifests/ as they were before they were rewritten as sweep sections,
// less the two fields the shorthand no longer has: the osu grids' "ops"
// axis (["allgather"] in example, pr, ring and telemetry), which restated
// each algorithm's operation kind, and osu.jitter_us (3 in example, 2 in
// p2p), which the rewritten sections carry.
var shorthandManifests = map[string]string{
	"example":   `{"kind":"osu","name":"osu-jitter-demo","grid":{"algorithms":["mcast-allgather"],"nodes":[16],"sizes":[4096,8192,16384,32768,65536]},"seed":3,"osu":{"iters":5},"telemetry":{"metrics":"METRICS_jitter_demo.json","perfetto":"TRACE_jitter_demo.json"},"output":{}}`,
	"p2p":       `{"kind":"osu","grid":{"algorithms":["ring-allgather","linear-allgather","rd-allgather","bruck-allgather","knomial-broadcast","binary-broadcast","chain-broadcast"],"nodes":[8,16],"sizes":[4096,65536,262144]},"osu":{"iters":3},"output":{"json":"BENCH_p2p.json"},"expect":{"sha256":"7ee4e05984a4738420e7c945e7857ff9ba0bba229c9db105894a13bb8fabc2fa"}}`,
	"pr":        `{"kind":"osu","grid":{"algorithms":["mcast-allgather"],"nodes":[32],"sizes":[4096,8192,16384,32768,65536,131072,262144,524288,1048576]},"osu":{"iters":5},"output":{"json":"BENCH_pr.json"},"expect":{"sha256":"4fd7c96ca59683ba7b627e731bdbdff04e1e15a683dbc52f1ad1b396d916ba45"}}`,
	"ring":      `{"kind":"osu","grid":{"algorithms":["ring-allgather"],"nodes":[32],"sizes":[4096,8192,16384,32768,65536,131072,262144,524288,1048576]},"osu":{"iters":5},"output":{"json":"BENCH_ring.json"},"expect":{"sha256":"b6000d60c5d0131cfb04e4ed15dcbb8b5c1d0dc5dd113c2141438f20dbc343aa"}}`,
	"telemetry": `{"kind":"osu","grid":{"algorithms":["mcast-allgather"],"nodes":[16],"sizes":[65536,262144]},"osu":{"iters":3},"telemetry":{"metrics":"METRICS_telemetry.json","perfetto":"TRACE_telemetry.json","expect_sha256":"51f4173989c3748bd11efa7e827b625a8c5aec1d121a60ae964208c2c781f2c9"},"output":{"json":"BENCH_telemetry.json"},"expect":{"sha256":"90c0d0ca79e60f14ed24e13d769d1ba26819c25411790624f1df49af2d410fe4"}}`,
	"chaos":     `{"kind":"chaos","grid":{"algorithms":["mcast-allgather","ring-allgather"],"nodes":[32],"sizes":[65536],"scenarios":["quiet","flap-spine","straggler-1pct","tenant-50load"]},"output":{"json":"BENCH_chaos.json"},"expect":{"sha256":"ed0ac20cf31c7e4f0227c2f0e9336145d4471710ee3e96fe8857263fec20cd21"}}`,
	"train":     `{"kind":"train","grid":{"workloads":["all"],"nodes":[8],"sizes":[131072]},"workers":4,"train":{"layers":3},"output":{"json":"BENCH_train.json"},"expect":{"sha256":"4ecc0cdda19dc4c983f022d6911309e15ca1a067b6011ecf948a7650021264bf"}}`,
}

// TestShorthandMatchesRewrite pins the lowering against the sweep form CI
// runs: each shorthand manifest and its rewrite under manifests/ compile
// to the same report name, section headers and notes, expanded points
// (seeds and indices included), traced point and replayed point.
func TestShorthandMatchesRewrite(t *testing.T) {
	for name, doc := range shorthandManifests {
		short, err := Compile(compileOK(t, doc))
		if err != nil {
			t.Fatalf("%s shorthand: %v", name, err)
		}
		m, err := ParseFile(filepath.Join("..", "..", "manifests", name+".json"))
		if err != nil {
			t.Fatal(err)
		}
		if m.Kind != "sweep" {
			t.Errorf("manifests/%s.json is kind %s, want sweep", name, m.Kind)
		}
		long, err := Compile(m)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if short.Name != long.Name || len(short.Sections) != 1 || len(long.Sections) != 1 {
			t.Fatalf("%s: name %q with %d sections, rewrite %q with %d", name, short.Name, len(short.Sections), long.Name, len(long.Sections))
		}
		s, l := short.Sections[0], long.Sections[0]
		if s.Header != l.Header || s.Note != l.Note || !reflect.DeepEqual(s.Specs, l.Specs) {
			t.Errorf("%s: section %q/%q/%v, rewrite %q/%q/%v", name, s.Header, s.Note, s.Specs, l.Header, l.Note, l.Specs)
		}
		if !reflect.DeepEqual(short.TraceSpec, long.TraceSpec) || !reflect.DeepEqual(short.ReplaySpec, long.ReplaySpec) {
			t.Errorf("%s: traced %v and replayed %v, rewrite %v and %v", name, short.TraceSpec, short.ReplaySpec, long.TraceSpec, long.ReplaySpec)
		}
	}
}
