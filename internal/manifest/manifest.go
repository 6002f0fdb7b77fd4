// Package manifest turns experiments into data: a manifest is a small JSON
// document declaring what to run — a kind naming the experiment family
// (osu, chaos, train, sweep), the grid axes it sweeps, and the run's
// bookkeeping (seed, workers, output paths, an expected output digest) —
// which compiles onto sweep.Grid and the harness kernels. A sweep manifest
// carries its grids outright: each section names a kernel and lists
// sweep.Grid values with their own seeds (or, for a gridless analytic
// kernel, none). A manifest is the only way to describe an experiment to
// `repro run`; CI is a matrix over the checked-in specs in manifests/.
//
// The contract mirrors the sweep engine's: the same manifest always
// produces byte-identical JSON output at any worker count, so a
// manifest plus its committed BENCH_*.json is a reproducible experiment.
package manifest

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"strings"

	"repro/internal/collective"
	"repro/internal/harness"
	"repro/internal/registry"
	"repro/internal/scenario"
	"repro/internal/sweep"
	"repro/internal/telemetry"
	"repro/internal/workload"
)

// Kinds enumerates the experiment families a manifest can declare, each
// compiling onto its own harness kernels.
var Kinds = []string{"osu", "chaos", "train", "sweep"}

// Manifest is one declarative experiment spec. Field presence is
// kind-checked by Validate: axes a kind does not consume are rejected so a
// drifting manifest fails fast instead of being silently ignored.
type Manifest struct {
	// Kind selects the experiment family: "osu", "chaos", "train" or
	// "sweep".
	Kind string `json:"kind"`
	// Name overrides the report name embedded in the JSON output. Empty
	// derives the historical name for the kind (e.g. "osu-mcast-allgather",
	// "chaosbench").
	Name string `json:"name,omitempty"`
	// Grid declares the swept axes. Which axes are meaningful (and which
	// required) depends on Kind.
	Grid Grid `json:"grid,omitempty"`
	// Seed is the base sweep seed for kinds that accept one (osu, chaos,
	// train). Nil selects the kind's historical default (1, 7, 21); sweep
	// gives each grid its own, so it rejects the field.
	Seed *uint64 `json:"seed,omitempty"`
	// Workers is the sweep worker pool size; 0 means GOMAXPROCS. Results
	// are byte-identical at any value.
	Workers int `json:"workers,omitempty"`
	// Shards and WarmStart are parsed only so Validate can reject them
	// with a hint: the engine is serial (Workers is the parallelism), and
	// every grid point builds its own model stack.
	Shards    int  `json:"shards,omitempty"`
	WarmStart bool `json:"warm_start,omitempty"`
	// OSU carries the measurement-loop knobs of the osu kind.
	OSU *OSUSpec `json:"osu,omitempty"`
	// Train carries the workload knobs of the train kind.
	Train *TrainSpec `json:"train,omitempty"`
	// Sections lists the experiments of the sweep kind, run in order.
	Sections []SectionSpec `json:"sections,omitempty"`
	// Telemetry enables the deterministic metrics registry for the run and
	// names its outputs. Available for every kind; absent means disabled,
	// and the disabled run's report bytes are identical to a build without
	// the telemetry layer at all.
	Telemetry *TelemetrySpec `json:"telemetry,omitempty"`
	// Output names where to persist the report.
	Output Output `json:"output,omitempty"`
	// Expect pins the expected output: a hex SHA-256 over the report's
	// canonical JSON bytes. The run fails (exit 1) on mismatch.
	Expect *Expect `json:"expect,omitempty"`
}

// Grid declares the manifest's swept axes, mirroring sweep.Grid. Sizes is
// MsgBytes under its manifest name (message bytes for collectives, shard
// bytes for train).
type Grid struct {
	Algorithms []string `json:"algorithms,omitempty"`
	Workloads  []string `json:"workloads,omitempty"`
	Ops        []string `json:"ops,omitempty"`
	Nodes      []int    `json:"nodes,omitempty"`
	Sizes      []int    `json:"sizes,omitempty"`
	Scenarios  []string `json:"scenarios,omitempty"`
}

// OSUSpec parameterizes the OSU-style measurement loop. Every point runs
// on the testbed's 56 Gbit/s links with 2 excluded warm-up iterations.
type OSUSpec struct {
	// Iters is the measured iteration count per point (default 10).
	Iters int `json:"iters,omitempty"`
	// JitterUS adds seeded per-delivery network noise in microseconds.
	JitterUS int `json:"jitter_us,omitempty"`
}

// TrainSpec parameterizes the training-workload kernel. The per-layer
// compute (150 µs) and the tenant count of multi-job presets (2) are the
// workload presets' own.
type TrainSpec struct {
	// Layers is the FSDP model depth (default 6).
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
	Kernel string       `json:"kernel"`
	Grids  []sweep.Grid `json:"grids,omitempty"`
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
// ignored. The result is validated.
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
	if err := m.Validate(); err != nil {
		return Manifest{}, err
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

// SeedOr returns the manifest seed, or def when the field is absent.
func (m Manifest) SeedOr(def uint64) uint64 {
	if m.Seed != nil {
		return *m.Seed
	}
	return def
}

// --- validation ------------------------------------------------------------------

// field pairs a manifest field's name with whether the manifest sets it,
// for the kind-consumption cross-check.
type field struct {
	name string
	set  bool
}

// fields lists every kind-specific manifest field and its presence.
func (m Manifest) fields() []field {
	return []field{
		{"grid.algorithms", len(m.Grid.Algorithms) > 0},
		{"grid.workloads", len(m.Grid.Workloads) > 0},
		{"grid.ops", len(m.Grid.Ops) > 0},
		{"grid.nodes", len(m.Grid.Nodes) > 0},
		{"grid.sizes", len(m.Grid.Sizes) > 0},
		{"grid.scenarios", len(m.Grid.Scenarios) > 0},
		{"seed", m.Seed != nil},
		{"osu", m.OSU != nil},
		{"train", m.Train != nil},
		{"sections", len(m.Sections) > 0},
		{"telemetry", m.Telemetry != nil},
	}
}

// consumes names the kind-specific fields each kind reads. Universal
// fields (name, workers, output, expect) are always legal and not listed.
var consumes = map[string][]string{
	"osu":   {"grid.algorithms", "grid.ops", "grid.nodes", "grid.sizes", "seed", "osu", "telemetry"},
	"chaos": {"grid.algorithms", "grid.scenarios", "grid.nodes", "grid.sizes", "seed", "telemetry"},
	"train": {"grid.workloads", "grid.scenarios", "grid.nodes", "grid.sizes", "seed", "train", "telemetry"},
	"sweep": {"sections", "telemetry"},
}

// Kernels names the harness kernels a sweep section can run: "op" runs
// one collective operation, "traffic" reads switch-port counters over 10
// iterations (then savings_vs_p2p), "rx" is the receive-datapath
// microbenchmark, "rx-rate" is rx at 256 KiB per thread with link_share
// against the 1.6 Tbit/s chunk rate, "traffic-model" evaluates the
// closed-form Allgather traffic model, and "pair" runs an Allgather and a
// Reduce-Scatter concurrently. "psn-sizing" and "economics" are gridless
// analytic tables.
var Kernels = []string{"op", "traffic", "rx", "rx-rate", "traffic-model", "pair", "psn-sizing", "economics"}

// sweepKernels maps each of Kernels onto its harness kernel and the
// sweep.Grid axes it reads: need must be non-empty, may is optional, and
// any other axis is rejected. A gridless kernel has a table instead: its
// records carry seed 0, which no grid point gets, so it takes no grids.
var sweepKernels = map[string]struct {
	need, may []string
	kernel    func(telemetry.Config) sweep.Func
	table     func() []sweep.Record
}{
	"op":            {need: []string{"algorithms", "nodes", "msg_bytes"}, may: []string{"chunk_sizes"}, kernel: harness.CollKernel},
	"traffic":       {need: []string{"algorithms", "nodes", "msg_bytes"}, may: []string{"chunk_sizes"}, kernel: harness.TrafficKernel},
	"rx":            {need: []string{"transports", "threads", "chunk_sizes", "msg_bytes"}, kernel: harness.RxKernel},
	"rx-rate":       {need: []string{"transports", "threads", "chunk_sizes"}, kernel: harness.ChunkRateKernel},
	"traffic-model": {need: []string{"msg_bytes"}, kernel: harness.TrafficModelKernel},
	"pair":          {need: []string{"algorithms", "nodes", "msg_bytes"}, kernel: harness.PairKernel},
	"psn-sizing":    {table: harness.PSNSizingRecords},
	"economics":     {table: harness.EconomicsRecords},
}

// Validate checks the manifest without running anything: kind membership,
// kind/field consumption, axis bounds, and registry cross-checks (algorithm,
// scenario and workload names must exist; osu op axes must match their
// algorithms' operation kinds).
func (m Manifest) Validate() error {
	if !slices.Contains(Kinds, m.Kind) {
		return fmt.Errorf("manifest: unknown kind %q (have %s)", m.Kind, strings.Join(Kinds, ", "))
	}
	if m.Shards != 0 {
		return fmt.Errorf("manifest: shards is not supported: the engine is serial; remove it and use workers")
	}
	if m.WarmStart {
		return fmt.Errorf("manifest: warm_start is not supported: every point builds its own stack; remove it")
	}
	allowed := consumes[m.Kind]
	for _, f := range m.fields() {
		if f.set && !slices.Contains(allowed, f.name) {
			return fmt.Errorf("manifest: kind %s does not consume %s", m.Kind, f.name)
		}
	}
	if m.Workers < 0 {
		return fmt.Errorf("manifest: workers must be >= 0, got %d", m.Workers)
	}
	if m.Expect != nil && len(m.Expect.SHA256) != 64 {
		return fmt.Errorf("manifest: expect.sha256 must be 64 hex characters")
	}
	if t := m.Telemetry; t != nil {
		if t.Expect != "" && len(t.Expect) != 64 {
			return fmt.Errorf("manifest: telemetry.expect_sha256 must be 64 hex characters")
		}
		if t.Expect != "" && t.Metrics == "" {
			return fmt.Errorf("manifest: telemetry.expect_sha256 needs telemetry.metrics")
		}
	}
	if err := checkRange("grid.sizes", m.Grid.Sizes, 1, maxSize); err != nil {
		return fmt.Errorf("manifest: %w", err)
	}
	switch m.Kind {
	case "osu":
		return m.validateOSU()
	case "chaos":
		return m.validateChaos()
	case "train":
		return m.validateTrain()
	case "sweep":
		return m.validateSweep()
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

// checkScenarios cross-checks a scenario axis against the preset registry.
// The single entry "all" is allowed and expands at compile time.
func checkScenarios(scenarios []string) error {
	if len(scenarios) == 1 && scenarios[0] == "all" {
		return nil
	}
	for _, s := range scenarios {
		if _, err := scenario.New(s); err != nil {
			return fmt.Errorf("manifest: %w", err)
		}
	}
	return nil
}

// checkNodes bounds a node axis to the 188-host testbed.
func checkNodes(nodes []int, lo int64) error {
	if err := checkRange("grid.nodes", nodes, lo, testbedHosts); err != nil {
		return fmt.Errorf("manifest: %w", err)
	}
	return nil
}

func (m Manifest) validateOSU() error {
	if len(m.Grid.Algorithms) == 0 {
		return fmt.Errorf("manifest: osu needs grid.algorithms")
	}
	if err := checkAlgorithms(m.Grid.Algorithms); err != nil {
		return fmt.Errorf("manifest: %w", err)
	}
	if len(m.Grid.Nodes) == 0 || len(m.Grid.Sizes) == 0 {
		return fmt.Errorf("manifest: osu needs grid.nodes and grid.sizes")
	}
	if err := checkNodes(m.Grid.Nodes, 1); err != nil {
		return err
	}
	// An explicit op axis must agree with every algorithm's operation kind,
	// or the grid product contains unrunnable points.
	for _, op := range m.Grid.Ops {
		for _, a := range m.Grid.Algorithms {
			kind, err := collective.KindOfAlgorithm(a)
			if err != nil {
				return fmt.Errorf("manifest: %w", err)
			}
			if string(kind) != op {
				return fmt.Errorf("manifest: op %q does not match algorithm %q (operation %s)", op, a, kind)
			}
		}
	}
	if m.OSU != nil && (m.OSU.Iters < 0 || m.OSU.JitterUS < 0) {
		return fmt.Errorf("manifest: osu.iters and osu.jitter_us must be >= 0")
	}
	return nil
}

func (m Manifest) validateChaos() error {
	if len(m.Grid.Algorithms) == 0 {
		return fmt.Errorf("manifest: chaos needs grid.algorithms")
	}
	if err := checkAlgorithms(m.Grid.Algorithms); err != nil {
		return fmt.Errorf("manifest: %w", err)
	}
	if len(m.Grid.Scenarios) == 0 {
		return fmt.Errorf("manifest: chaos needs grid.scenarios")
	}
	if err := checkScenarios(m.Grid.Scenarios); err != nil {
		return err
	}
	if len(m.Grid.Nodes) != 1 || len(m.Grid.Sizes) != 1 {
		return fmt.Errorf("manifest: chaos needs exactly one grid.nodes and grid.sizes entry")
	}
	return checkNodes(m.Grid.Nodes, 2)
}

func (m Manifest) validateTrain() error {
	if len(m.Grid.Workloads) == 0 {
		return fmt.Errorf("manifest: train needs grid.workloads")
	}
	if !(len(m.Grid.Workloads) == 1 && m.Grid.Workloads[0] == "all") {
		for _, w := range m.Grid.Workloads {
			if !slices.Contains(workload.Names(), w) {
				return fmt.Errorf("manifest: unknown workload %q (have %v)", w, workload.Names())
			}
		}
	}
	if err := checkScenarios(m.Grid.Scenarios); err != nil {
		return err
	}
	if len(m.Grid.Nodes) != 1 || len(m.Grid.Sizes) != 1 {
		return fmt.Errorf("manifest: train needs exactly one grid.nodes and grid.sizes entry")
	}
	if err := checkNodes(m.Grid.Nodes, 2); err != nil {
		return err
	}
	if m.Train != nil && m.Train.Layers < 0 {
		return fmt.Errorf("manifest: train.layers must be >= 0")
	}
	return nil
}

func (m Manifest) validateSweep() error {
	if len(m.Sections) == 0 {
		return fmt.Errorf("manifest: sweep needs sections")
	}
	for i, sec := range m.Sections {
		if !slices.Contains(Kernels, sec.Kernel) {
			return fmt.Errorf("manifest: sections[%d]: unknown kernel %q (have %s)", i, sec.Kernel, strings.Join(Kernels, ", "))
		}
		if sweepKernels[sec.Kernel].table != nil {
			if len(sec.Grids) > 0 {
				return fmt.Errorf("manifest: sections[%d]: kernel %s takes no grids", i, sec.Kernel)
			}
			continue
		}
		if len(sec.Grids) == 0 {
			return fmt.Errorf("manifest: sections[%d] needs grids", i)
		}
		for j, g := range sec.Grids {
			if err := checkGrid(sec.Kernel, g); err != nil {
				return fmt.Errorf("manifest: sections[%d].grids[%d]: %w", i, j, err)
			}
		}
	}
	return nil
}

const (
	// testbedHosts is the host count of the collective kernels' testbed.
	testbedHosts = 188
	// maxThreads is the DPA's thread capacity: 16 cores of 16 threads.
	maxThreads = 256
)

// checkGrid checks one sweep grid against its kernel: the axes it reads
// and nothing else, transport names, then algorithm names and value
// ranges, reporting every failing one of those.
func checkGrid(kernel string, g sweep.Grid) error {
	axes := sweepKernels[kernel]
	for _, f := range []field{
		{"algorithms", len(g.Algorithms) > 0},
		{"workloads", len(g.Workloads) > 0},
		{"ops", len(g.Ops) > 0},
		{"nodes", len(g.Nodes) > 0},
		{"msg_bytes", len(g.MsgBytes) > 0},
		{"transports", len(g.Transports) > 0},
		{"threads", len(g.Threads) > 0},
		{"chunk_sizes", len(g.ChunkSizes) > 0},
		{"scenarios", len(g.Scenarios) > 0},
	} {
		switch need := slices.Contains(axes.need, f.name); {
		case f.set && !need && !slices.Contains(axes.may, f.name):
			return fmt.Errorf("kernel %s does not consume %s", kernel, f.name)
		case !f.set && need:
			return fmt.Errorf("kernel %s needs %s", kernel, f.name)
		}
	}
	if err := oneOf("transport", g.Transports, harness.RxTransports); err != nil {
		return err
	}
	algos := checkAlgorithms(g.Algorithms)
	lo := int64(1)
	switch kernel {
	case "traffic":
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
		checkRange("nodes", g.Nodes, lo, testbedHosts),
		checkRange("msg_bytes", g.MsgBytes, 1, maxSize),
		checkRange("threads", g.Threads, 1, maxThreads),
		checkRange("chunk_sizes", g.ChunkSizes, 1, maxChunk))
}
