// Package manifest turns experiments into data: a manifest is a small JSON
// document listing titled sections, each a harness kernel run over
// sweep.Grid values that carry their own seeds (or, for a gridless
// analytic kernel, no grids), plus the run's bookkeeping (workers, output
// paths, an expected output digest). A manifest is the only way to
// describe an experiment to `repro run`; CI is a matrix over the
// checked-in specs in manifests/.
//
// The kinds osu, chaos and train are a shorthand for a manifest of one
// section, kept because the host-time ledger's workloads (bench/workloads)
// are written in it: Compile lowers one onto its section first, so every
// manifest compiles the same way.
//
// The contract mirrors the sweep engine's: the same manifest always
// produces byte-identical JSON output at any worker count.
package manifest

import (
	"bytes"
	"cmp"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"strings"

	"repro/internal/harness"
	"repro/internal/registry"
	"repro/internal/scenario"
	"repro/internal/sim"
	"repro/internal/sweep"
	"repro/internal/telemetry"
	"repro/internal/workload"
)

// Kinds enumerates the kinds a manifest can declare: the three shorthand
// kinds and sweep.
var Kinds = []string{"osu", "chaos", "train", "sweep"}

// Manifest is one declarative experiment spec. Compile rejects a field
// the manifest's kernels do not read, so a drifting manifest fails fast
// instead of being silently ignored.
type Manifest struct {
	// Kind is "sweep", or one of the shorthand kinds "osu", "chaos" and
	// "train".
	Kind string `json:"kind"`
	// Name is the report name embedded in the JSON output. Empty selects
	// "sweep", or the shorthand kind's name rule ("osu-<algorithm>",
	// "chaosbench", "trainbench").
	Name string `json:"name,omitempty"`
	// Grid is the shorthand's one grid; Sizes is the section grid's
	// msg_bytes.
	Grid Grid `json:"grid,omitempty"`
	// Seed is the shorthand grid's base seed. Nil selects the kind's
	// default (1, 7, 21).
	Seed *uint64 `json:"seed,omitempty"`
	// Workers is the sweep worker pool size; 0 means GOMAXPROCS. Results
	// are byte-identical at any value.
	Workers int `json:"workers,omitempty"`
	// Shards and WarmStart are parsed only so Compile can reject them
	// with a hint: the engine is serial (Workers is the parallelism), and
	// every grid point builds its own model stack.
	Shards    int  `json:"shards,omitempty"`
	WarmStart bool `json:"warm_start,omitempty"`
	// OSU and Train carry the shorthand section's knobs.
	OSU   *OSUSpec   `json:"osu,omitempty"`
	Train *TrainSpec `json:"train,omitempty"`
	// Sections lists the experiments of a sweep manifest, run in order.
	Sections []SectionSpec `json:"sections,omitempty"`
	// Telemetry enables the deterministic metrics registry for the run and
	// names its outputs. Absent means disabled, and the disabled run's
	// report bytes are identical to a build without the telemetry layer.
	Telemetry *TelemetrySpec `json:"telemetry,omitempty"`
	// Output names where to persist the report.
	Output Output `json:"output,omitempty"`
	// Expect pins the expected output: a hex SHA-256 over the report's
	// canonical JSON bytes. The run fails (exit 1) on mismatch.
	Expect *Expect `json:"expect,omitempty"`
}

// Grid is the shorthand's grid. "all" as the only scenario or workload
// expands to every preset.
type Grid struct {
	Algorithms []string `json:"algorithms,omitempty"`
	Workloads  []string `json:"workloads,omitempty"`
	Nodes      []int    `json:"nodes,omitempty"`
	Sizes      []int    `json:"sizes,omitempty"`
	Scenarios  []string `json:"scenarios,omitempty"`
}

// OSUSpec is the osu shorthand's section knob.
type OSUSpec struct {
	Iters int `json:"iters,omitempty"`
}

// TrainSpec is the train shorthand's section knob.
type TrainSpec struct {
	Layers int `json:"layers,omitempty"`
}

// SectionSpec is one experiment of a sweep manifest: a kernel run over
// the points of its grids. The grids expand in order and join through
// sweep.Concat, so point indices count across the section's grids while
// each grid derives its points' seeds from its own base seed. A gridless
// kernel computes its table outright and takes no grids. The section
// prints Title, its table, then Note.
type SectionSpec struct {
	Title string `json:"title"`
	Note  string `json:"note,omitempty"`
	// Kernel names the harness kernel, one of Kernels (see sweepKernels).
	Kernel string `json:"kernel"`
	// Iters is the osu kernel's measured iteration count per point
	// (default 10); JitterUS its seeded per-delivery network noise in
	// microseconds. Layers is the train kernel's FSDP model depth
	// (default 6).
	Iters    int          `json:"iters,omitempty"`
	JitterUS int          `json:"jitter_us,omitempty"`
	Layers   int          `json:"layers,omitempty"`
	Grids    []sweep.Grid `json:"grids,omitempty"`
}

// TelemetrySpec configures the telemetry layer of a run: where the
// canonical metrics document and the Perfetto trace of the representative
// run land. Gauges sample every 100 µs of virtual time.
type TelemetrySpec struct {
	// Metrics is where the canonical metrics.json document is written.
	// Like the report itself it is byte-identical at any -workers value.
	Metrics string `json:"metrics,omitempty"`
	// Perfetto is where the representative run's Chrome-trace-event JSON is
	// written (open at ui.perfetto.dev). Only a plan with a traceable point
	// supports it; Compile rejects it on any other.
	Perfetto string `json:"perfetto,omitempty"`
	// Expect pins the expected metrics document: a hex SHA-256 over its
	// canonical bytes. The run fails (exit 1) on mismatch.
	Expect string `json:"expect_sha256,omitempty"`
}

// Output names the report's persistence target.
type Output struct {
	JSON string `json:"json,omitempty"`
}

// Expect pins expected run output.
type Expect struct {
	// SHA256 is the hex digest of the report's canonical JSON bytes.
	SHA256 string `json:"sha256"`
}

// maxSize bounds one entry of a size axis at 1 TiB: far beyond any buffer
// the simulator can allocate.
const maxSize int64 = 1 << 40

// Parse decodes a manifest from JSON bytes, rejecting unknown fields at
// every nesting level so a typo'd or drifting axis fails instead of being
// ignored. It returns the manifest as written; Compile validates it.
func Parse(b []byte) (Manifest, error) {
	dec := json.NewDecoder(bytes.NewReader(b))
	dec.DisallowUnknownFields()
	var m Manifest
	if err := dec.Decode(&m); err != nil {
		return Manifest{}, fmt.Errorf("manifest: %w", err)
	}
	// A second document (or trailing garbage) is a malformed manifest.
	if dec.More() {
		return Manifest{}, fmt.Errorf("manifest: trailing data after document")
	}
	return m, nil
}

// ParseFile loads a manifest from disk. JSON is the one format: any other
// extension is rejected by name, before the file is read, so a stray
// .yaml fails with a message that says what is supported.
func ParseFile(path string) (Manifest, error) {
	if ext := strings.ToLower(filepath.Ext(path)); ext != ".json" {
		return Manifest{}, fmt.Errorf("manifest: %s: unsupported extension %q (manifests are .json)", path, ext)
	}
	b, err := os.ReadFile(path)
	if err != nil {
		return Manifest{}, fmt.Errorf("manifest: %w", err)
	}
	m, err := Parse(b)
	if err != nil {
		return Manifest{}, fmt.Errorf("%s: %w", path, err)
	}
	return m, nil
}

// SeedOr returns the manifest seed, or def when the field is absent.
func (m Manifest) SeedOr(def uint64) uint64 {
	if m.Seed != nil {
		return *m.Seed
	}
	return def
}

// --- the shorthand ---------------------------------------------------------------

// shorthand maps each shorthand kind onto its section's kernel and note,
// its default seed and its report name.
var shorthand = map[string]struct {
	kernel, note, name string
	seed               uint64
}{
	"osu":   {kernel: "osu", name: "osu", seed: 1},
	"chaos": {kernel: "resilience", name: "chaosbench", seed: 7, note: "slowdown_vs_quiet is each point's duration over its quiet sibling's."},
	"train": {kernel: "train", name: "trainbench", seed: 21, note: "overlap_frac is the share of communication hidden behind compute or other communication."},
}

// lower returns the sweep manifest a shorthand manifest stands for: one
// section whose grid is the shorthand's with the kind's default seed, "all"
// expanded and quiet prepended to a scenario list (slowdown_vs_quiet's
// anchor), titled by the kind's header and named by its rule. A sweep
// manifest comes back as is, and may not set the shorthand's fields.
func (m Manifest) lower() (Manifest, error) {
	g := m.Grid
	sh, ok := shorthand[m.Kind]
	if !ok {
		if m.Seed != nil || m.OSU != nil || m.Train != nil ||
			len(g.Algorithms)+len(g.Workloads)+len(g.Nodes)+len(g.Sizes)+len(g.Scenarios) > 0 {
			return m, fmt.Errorf("manifest: kind sweep does not take grid, seed, osu or train; its sections carry them")
		}
		return m, nil
	}
	if len(m.Sections) > 0 {
		return m, fmt.Errorf("manifest: kind %s does not take sections", m.Kind)
	}
	scenarios := expandAll(g.Scenarios, scenario.Names())
	if len(scenarios) > 0 && !slices.Contains(scenarios, scenario.Quiet) {
		scenarios = append([]string{scenario.Quiet}, scenarios...)
	}
	ss := SectionSpec{Kernel: sh.kernel, Note: sh.note, Grids: []sweep.Grid{{
		Algorithms: g.Algorithms, Workloads: expandAll(g.Workloads, workload.Names()),
		Nodes: g.Nodes, MsgBytes: g.Sizes, Scenarios: scenarios, Seed: m.SeedOr(sh.seed),
	}}}
	if m.OSU != nil {
		ss.Iters = m.OSU.Iters
	}
	if m.Train != nil {
		ss.Layers = m.Train.Layers
	}
	// The chaos and train headers name the grid's one shape.
	if m.Kind != "osu" && (len(g.Nodes) != 1 || len(g.Sizes) != 1) {
		return m, fmt.Errorf("manifest: %s needs exactly one grid.nodes and grid.sizes entry", m.Kind)
	}
	name := sh.name
	switch m.Kind {
	case "osu":
		if len(g.Algorithms) == 1 {
			name = "osu-" + g.Algorithms[0]
		}
		ss.Title = fmt.Sprintf("# OSU-style sweep: %v, nodes %v, %d Gbit/s links, %d iters (+%d warmup)",
			g.Algorithms, g.Nodes, harness.TestbedLinkGbps, cmp.Or(ss.Iters, defaultIters), harness.OSUWarmup)
	case "chaos":
		ss.Title = fmt.Sprintf("== chaosbench: %d algorithms x %d scenarios, %d nodes, %d B messages ==",
			len(g.Algorithms), len(scenarios), g.Nodes[0], g.Sizes[0])
	case "train":
		ss.Title = fmt.Sprintf("== trainbench: %d workloads x %d scenarios, %d nodes, %d KiB shards, %d layers ==",
			len(ss.Grids[0].Workloads), max(1, len(scenarios)), g.Nodes[0], g.Sizes[0]>>10, cmp.Or(ss.Layers, defaultLayers))
	}
	return Manifest{Kind: "sweep", Name: cmp.Or(m.Name, name), Workers: m.Workers, Sections: []SectionSpec{ss},
		Telemetry: m.Telemetry, Output: m.Output, Expect: m.Expect}, nil
}

// expandAll resolves an axis whose only entry is "all" to every name.
func expandAll(axis, all []string) []string {
	if len(axis) == 1 && axis[0] == "all" {
		return all
	}
	return axis
}

// --- validation ------------------------------------------------------------------

// Kernels names the harness kernels a section can run: "op" runs one
// collective operation, "traffic" reads switch-port counters over 10
// iterations (then savings_vs_p2p), "osu" measures a collective over
// iters iterations after 2 warm-ups, "resilience" runs one under a
// scenario (then slowdown_vs_quiet), "train" runs a workload DAG, "rx" is
// the receive-datapath microbenchmark, "rx-rate" is rx at 256 KiB per
// thread with link_share against the 1.6 Tbit/s chunk rate,
// "traffic-model" evaluates the closed-form Allgather traffic model, and
// "pair" runs an Allgather and a Reduce-Scatter concurrently.
// "psn-sizing" and "economics" are gridless analytic tables.
var Kernels = []string{"op", "traffic", "osu", "resilience", "train", "rx", "rx-rate", "traffic-model", "pair", "psn-sizing", "economics"}

const (
	// testbedHosts is the host count of the collective kernels' testbed.
	testbedHosts = 188
	// maxThreads is the DPA's thread capacity: 16 cores of 16 threads.
	maxThreads = 256
	// defaultIters and defaultLayers are the osu and train knobs' values
	// when a section leaves them out.
	defaultIters, defaultLayers = 10, 6
	// maxIters and maxLayers bound those knobs far above any run that
	// finishes.
	maxIters, maxLayers = 1 << 20, 1 << 10
)

// kernelDef is one entry of sweepKernels.
type kernelDef struct {
	// need must be non-empty, may is optional, and any other grid axis is
	// rejected. knobs bounds the section fields the kernel reads; a
	// section may set no other.
	need, may []string
	knobs     map[string]int64
	build     func(telemetry.Config, SectionSpec) sweep.Func
	// table replaces the sweep for a gridless kernel: its records carry
	// seed 0, which no grid point gets, so it takes no grids.
	table func() []sweep.Record
	post  func([]sweep.Record)
	// slowdown kernels need quiet in every scenario list, the anchor of
	// the slowdown_vs_quiet their records get when they sweep scenarios.
	slowdown bool
	// trace picks the section's representative point, which traced (nil:
	// build) runs again with telemetry on for -trace and
	// telemetry.perfetto; replay picks the point `repro replay` steps
	// through. Nil picks none.
	trace, replay func([]sweep.Spec) sweep.Spec
	traced        func(telemetry.Config, SectionSpec) sweep.Func
}

// plain adapts a kernel that reads no section knob.
func plain(k func(telemetry.Config) sweep.Func) func(telemetry.Config, SectionSpec) sweep.Func {
	return func(tc telemetry.Config, _ SectionSpec) sweep.Func { return k(tc) }
}

// first, last and firstQuiet pick a section's representative point.
func first(specs []sweep.Spec) sweep.Spec { return specs[0] }
func last(specs []sweep.Spec) sweep.Spec  { return specs[len(specs)-1] }
func firstQuiet(specs []sweep.Spec) sweep.Spec {
	return specs[slices.IndexFunc(specs, func(s sweep.Spec) bool { return s.Scenario == scenario.Quiet })]
}

// sweepKernels maps each of Kernels onto its harness kernel, the grid axes
// and section knobs it reads, and its representative points. An osu
// section's last point is its largest message; a resilience section's
// last point carries a real perturbation whenever it names one, because
// grids expand scenarios last, and it replays its first quiet point, the
// only scenario the replay debugger supports.
var sweepKernels = map[string]kernelDef{
	"op": {need: []string{"algorithms", "nodes", "msg_bytes"}, may: []string{"chunk_sizes"},
		build: plain(harness.CollKernel), trace: first, replay: first},
	"traffic": {need: []string{"algorithms", "nodes", "msg_bytes"}, may: []string{"chunk_sizes"},
		build: plain(harness.TrafficKernel), post: harness.AnnotateSavings,
		trace: first, replay: first, traced: plain(harness.CollKernel)},
	"osu": {need: []string{"algorithms", "nodes", "msg_bytes"},
		knobs: map[string]int64{"iters": maxIters, "jitter_us": sim.MaxMicros},
		build: func(tc telemetry.Config, ss SectionSpec) sweep.Func {
			return harness.OSUKernel(tc, harness.OSUConfig{Iters: cmp.Or(ss.Iters, defaultIters), JitterUS: ss.JitterUS})
		},
		trace: last, replay: last, traced: plain(harness.CollKernel)},
	"resilience": {need: []string{"algorithms", "nodes", "msg_bytes", "scenarios"},
		build: plain(harness.ResilienceKernel), slowdown: true, trace: last, replay: firstQuiet},
	"train": {need: []string{"workloads", "nodes", "msg_bytes"}, may: []string{"scenarios"},
		knobs: map[string]int64{"layers": maxLayers},
		build: func(tc telemetry.Config, ss SectionSpec) sweep.Func {
			return harness.TrainKernel(tc, cmp.Or(ss.Layers, defaultLayers))
		},
		slowdown: true, trace: first},
	"rx":            {need: []string{"transports", "threads", "chunk_sizes", "msg_bytes"}, build: plain(harness.RxKernel)},
	"rx-rate":       {need: []string{"transports", "threads", "chunk_sizes"}, build: plain(harness.ChunkRateKernel)},
	"traffic-model": {need: []string{"msg_bytes"}, build: plain(harness.TrafficModelKernel)},
	"pair":          {need: []string{"algorithms", "nodes", "msg_bytes"}, build: plain(harness.PairKernel)},
	"psn-sizing":    {table: harness.PSNSizingRecords},
	"economics":     {table: harness.EconomicsRecords},
}

// lowered validates the manifest without running anything and returns
// the sweep manifest it compiles as: kind membership, the lowering of a
// shorthand, then each section's kernel name, knobs and grids (the axes
// the kernel reads and nothing else, bounds, and algorithm, scenario and
// workload names).
func (m Manifest) lowered() (Manifest, error) {
	if !slices.Contains(Kinds, m.Kind) {
		return m, fmt.Errorf("manifest: unknown kind %q (have %s)", m.Kind, strings.Join(Kinds, ", "))
	}
	if m.Shards != 0 {
		return m, fmt.Errorf("manifest: shards is not supported: the engine is serial; remove it and use workers")
	}
	if m.WarmStart {
		return m, fmt.Errorf("manifest: warm_start is not supported: every point builds its own stack; remove it")
	}
	if m.Workers < 0 {
		return m, fmt.Errorf("manifest: workers must be >= 0, got %d", m.Workers)
	}
	if m.Expect != nil && !isDigest(m.Expect.SHA256) {
		return m, fmt.Errorf("manifest: expect.sha256 must be 64 lowercase hex characters")
	}
	if t := m.Telemetry; t != nil {
		if t.Expect != "" && !isDigest(t.Expect) {
			return m, fmt.Errorf("manifest: telemetry.expect_sha256 must be 64 lowercase hex characters")
		}
		if t.Expect != "" && t.Metrics == "" {
			return m, fmt.Errorf("manifest: telemetry.expect_sha256 needs telemetry.metrics")
		}
	}
	m, err := m.lower()
	if err != nil {
		return m, err
	}
	if len(m.Sections) == 0 {
		return m, fmt.Errorf("manifest: sweep needs sections")
	}
	for i, ss := range m.Sections {
		if err := checkSection(i, ss); err != nil {
			return m, fmt.Errorf("manifest: %w", err)
		}
	}
	return m, nil
}

// isDigest reports whether s is a SHA-256 digest as the run writes it: 64
// lowercase hex characters.
func isDigest(s string) bool { return len(s) == 64 && strings.Trim(s, "0123456789abcdef") == "" }

// checkSection checks section i against its kernel: the kernel name, the
// knobs it reads and their bounds, then its grids, or none for a gridless
// kernel.
func checkSection(i int, ss SectionSpec) error {
	if !slices.Contains(Kernels, ss.Kernel) {
		return fmt.Errorf("sections[%d]: unknown kernel %q (have %s)", i, ss.Kernel, strings.Join(Kernels, ", "))
	}
	k := sweepKernels[ss.Kernel]
	for _, knob := range []struct {
		name string
		v    int
	}{{"iters", ss.Iters}, {"jitter_us", ss.JitterUS}, {"layers", ss.Layers}} {
		hi, ok := k.knobs[knob.name]
		if knob.v != 0 && !ok {
			return fmt.Errorf("sections[%d]: kernel %s does not take %s", i, ss.Kernel, knob.name)
		}
		if err := checkRange(knob.name, []int{knob.v}, 0, hi); err != nil {
			return fmt.Errorf("sections[%d]: %w", i, err)
		}
	}
	if k.table != nil {
		if len(ss.Grids) > 0 {
			return fmt.Errorf("sections[%d]: kernel %s takes no grids", i, ss.Kernel)
		}
		return nil
	}
	if len(ss.Grids) == 0 {
		return fmt.Errorf("sections[%d] needs grids", i)
	}
	for j, g := range ss.Grids {
		if err := checkGrid(ss.Kernel, g); err != nil {
			return fmt.Errorf("sections[%d].grids[%d]: %w", i, j, err)
		}
	}
	return nil
}

// checkAlgorithms cross-checks an algorithm axis against the registry.
func checkAlgorithms(algos []string) error {
	for _, a := range algos {
		if !slices.Contains(registry.Names(), a) {
			return fmt.Errorf("unknown algorithm %q (have %v)", a, registry.Names())
		}
	}
	return nil
}

// oneOf checks every entry of a named axis against the names it may take.
func oneOf(what string, vals, have []string) error {
	for _, v := range vals {
		if !slices.Contains(have, v) {
			return fmt.Errorf("unknown %s %q (have %s)", what, v, strings.Join(have, ", "))
		}
	}
	return nil
}

// checkRange bounds every entry of an integer axis to [lo,hi].
func checkRange(axis string, vals []int, lo, hi int64) error {
	for _, v := range vals {
		if int64(v) < lo || int64(v) > hi {
			return fmt.Errorf("%s must be in [%d,%d], got %d", axis, lo, hi, v)
		}
	}
	return nil
}

// checkGrid checks one sweep grid against its kernel: the axes it reads
// and nothing else, the quiet anchor of a slowdown kernel's scenarios,
// then transport, algorithm, scenario and workload names and value
// ranges, reporting every failing one of those.
func checkGrid(kernel string, g sweep.Grid) error {
	k := sweepKernels[kernel]
	for _, f := range []struct {
		name string
		set  bool
	}{
		{"algorithms", len(g.Algorithms) > 0},
		{"workloads", len(g.Workloads) > 0},
		{"nodes", len(g.Nodes) > 0},
		{"msg_bytes", len(g.MsgBytes) > 0},
		{"transports", len(g.Transports) > 0},
		{"threads", len(g.Threads) > 0},
		{"chunk_sizes", len(g.ChunkSizes) > 0},
		{"scenarios", len(g.Scenarios) > 0},
	} {
		switch need := slices.Contains(k.need, f.name); {
		case f.set && !need && !slices.Contains(k.may, f.name):
			return fmt.Errorf("kernel %s does not consume %s", kernel, f.name)
		case !f.set && need:
			return fmt.Errorf("kernel %s needs %s", kernel, f.name)
		}
	}
	if k.slowdown && len(g.Scenarios) > 0 && !slices.Contains(g.Scenarios, scenario.Quiet) {
		return fmt.Errorf("kernel %s needs the %s scenario in scenarios: it anchors slowdown_vs_quiet", kernel, scenario.Quiet)
	}
	if err := oneOf("transport", g.Transports, harness.RxTransports); err != nil {
		return err
	}
	algos := checkAlgorithms(g.Algorithms)
	lo := int64(1)
	switch kernel {
	case "traffic", "resilience", "train":
		lo = 2 // a single host sends nothing through a switch
	case "pair":
		// A pair's labels are not registry names, and it needs two ranks
		// for either collective to move data.
		algos = oneOf("pair", g.Algorithms, harness.PairAlgorithms)
		lo = 2
	}
	// A UD chunk is one packet, so it is bounded by the 4 KiB MTU.
	maxChunk := maxSize
	if slices.Contains(g.Transports, "ud") || slices.Contains(g.Transports, "cpu-ud") {
		maxChunk = 4096
	}
	return errors.Join(
		algos,
		oneOf("scenario", g.Scenarios, scenario.Names()),
		oneOf("workload", g.Workloads, workload.Names()),
		checkRange("nodes", g.Nodes, lo, testbedHosts),
		checkRange("msg_bytes", g.MsgBytes, 1, maxSize),
		checkRange("threads", g.Threads, 1, maxThreads),
		checkRange("chunk_sizes", g.ChunkSizes, 1, maxChunk))
}
