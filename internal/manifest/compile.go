package manifest

import (
	"fmt"
	"io"
	"slices"

	"repro/internal/harness"
	"repro/internal/scenario"
	"repro/internal/sweep"
	"repro/internal/telemetry"
	"repro/internal/workload"
)

// Plan is a compiled manifest: the report name plus one executable section
// per experiment the manifest enables. Compiling performs no simulation —
// it only resolves defaults, expands "all" axes, and wires the sweep
// grids onto their harness kernels — so `repro validate` can compile
// every manifest cheaply as its deepest cross-check.
type Plan struct {
	// Manifest is the (validated) source spec.
	Manifest Manifest
	// Name is the resolved report name.
	Name string
	// Sections are executed in order; their records concatenate into the
	// report.
	Sections []Section
	// Trace re-runs one representative point through its kernel with
	// telemetry always on, and returns the point's snapshot — its metrics,
	// spans and Figure-9 phase events — which renders as a text timeline
	// or a Perfetto JSON document; P2P baselines record no events, so
	// their timeline reads "(no events)". Nil when the kind has no
	// traceable point. The traced run is separate from the sweep, so
	// records stay byte-identical.
	Trace func() (*telemetry.Snapshot, error)
	// ReplaySpec names the point `repro replay` seeks and steps through: a
	// quiet collective cell of the plan (the replay debugger installs no
	// scenario injectors). Nil when the kind has no replayable point.
	ReplaySpec *sweep.Spec
}

// Section is one experiment of a plan: either a sweep (Specs through
// Kernel on the worker pool, then Post) or a gridless analytic Run.
type Section struct {
	// Header and Note frame the section's table on stdout.
	Header string
	Note   string
	// Specs are the expanded points; Kernel executes one of them.
	Specs  []sweep.Spec
	Kernel sweep.Func
	// Post annotates the section's records after the sweep (slowdowns,
	// savings); optional.
	Post func([]sweep.Record)
	// Run replaces the sweep entirely for gridless sections; optional.
	Run func() []sweep.Record
}

// Compile validates the manifest and lowers it onto sweep grids and
// harness kernels. The kernels' telemetry configuration is derived here
// from the manifest's own telemetry field, so the Plan is self-contained:
// executing it needs no setup beyond the manifest. A manifest that asks
// for a Perfetto trace its plan has no point to produce is an error here,
// so `repro validate` and `repro run` agree on it.
func Compile(m Manifest) (*Plan, error) {
	if err := m.Validate(); err != nil {
		return nil, err
	}
	p := &Plan{Manifest: m}
	tc := telemetry.Config{Enabled: m.Telemetry != nil}
	switch m.Kind {
	case "osu":
		p.compileOSU(tc)
	case "chaos":
		p.compileChaos(tc)
	case "train":
		p.compileTrain(tc)
	case "sweep":
		p.compileSweep(tc)
	}
	if m.Name != "" {
		p.Name = m.Name
	}
	if m.Telemetry != nil && m.Telemetry.Perfetto != "" && p.Trace == nil {
		return nil, fmt.Errorf("manifest: telemetry.perfetto set, but kind %s has no traceable point", m.Kind)
	}
	return p, nil
}

// Execute runs every section on the worker pool, streaming each section's
// header, table and note to w, and returns the combined report. workers
// <= -1 selects the manifest's Workers field; results are byte-identical
// at any worker count.
func (p *Plan) Execute(workers int, w io.Writer) (sweep.Report, error) {
	if workers < 0 {
		workers = p.Manifest.Workers
	}
	var all []sweep.Record
	for _, sec := range p.Sections {
		var recs []sweep.Record
		if sec.Run != nil {
			recs = sec.Run()
		} else {
			var err error
			if recs, err = sweep.Run(sec.Specs, workers, sec.Kernel); err != nil {
				return sweep.Report{}, err
			}
		}
		if sec.Post != nil {
			sec.Post(recs)
		}
		if sec.Header != "" {
			fmt.Fprintln(w, sec.Header)
		}
		if err := sweep.WriteTable(w, recs); err != nil {
			return sweep.Report{}, err
		}
		if sec.Note != "" {
			fmt.Fprintln(w, sec.Note)
		}
		all = append(all, recs...)
	}
	return sweep.Report{Name: p.Name, Records: all}, nil
}

// grid appends a section running kernel over the points of g.
func (p *Plan) grid(header, note string, g sweep.Grid, kernel sweep.Func, post func([]sweep.Record)) {
	p.Sections = append(p.Sections, Section{Header: header, Note: note, Specs: g.Expand(), Kernel: kernel, Post: post})
}

// trace sets Trace to run s through kernel with telemetry on.
func (p *Plan) trace(tc telemetry.Config, s sweep.Spec, kernel func(telemetry.Config) sweep.Func) {
	tc.Enabled = true
	p.Trace = func() (*telemetry.Snapshot, error) {
		rec, err := kernel(tc)(s)
		if err != nil {
			return nil, err
		}
		return rec.Telemetry, nil
	}
}

// expandScenarios resolves the scenario axis: "all" expands to every
// preset, and — when anchor is true — "quiet" is prepended when missing so
// slowdown_vs_quiet always has its anchor point.
func expandScenarios(scenarios []string, anchor bool) []string {
	if len(scenarios) == 1 && scenarios[0] == "all" {
		scenarios = scenario.Names()
	}
	if anchor && len(scenarios) > 0 && !slices.Contains(scenarios, scenario.Quiet) {
		scenarios = append([]string{scenario.Quiet}, scenarios...)
	}
	return scenarios
}

func (p *Plan) compileOSU(tc telemetry.Config) {
	m := p.Manifest
	cfg := harness.OSUConfig{Iters: 10}
	if o := m.OSU; o != nil {
		if o.Iters > 0 {
			cfg.Iters = o.Iters
		}
		cfg.JitterUS = o.JitterUS
	}
	g := sweep.Grid{
		Algorithms: m.Grid.Algorithms,
		Ops:        m.Grid.Ops,
		Nodes:      m.Grid.Nodes,
		MsgBytes:   m.Grid.Sizes,
		Seed:       m.SeedOr(1),
	}
	p.Name = "osu"
	if len(m.Grid.Algorithms) == 1 {
		p.Name = "osu-" + m.Grid.Algorithms[0]
	}
	header := fmt.Sprintf("# OSU-style sweep: %v, nodes %v, %d Gbit/s links, %d iters (+%d warmup)",
		m.Grid.Algorithms, m.Grid.Nodes, harness.TestbedLinkGbps, cfg.Iters, harness.OSUWarmup)
	p.grid(header, "", g, harness.OSUKernel(tc, cfg), nil)
	specs := p.Sections[0].Specs
	// The last (largest) size point is the representative run: one
	// operation.
	p.trace(tc, specs[len(specs)-1], harness.CollKernel)
	p.ReplaySpec = &specs[len(specs)-1]
}

func (p *Plan) compileChaos(tc telemetry.Config) {
	m := p.Manifest
	scenarios := expandScenarios(m.Grid.Scenarios, true)
	g := sweep.Grid{Algorithms: m.Grid.Algorithms, Scenarios: scenarios,
		Nodes: m.Grid.Nodes, MsgBytes: m.Grid.Sizes, Seed: m.SeedOr(7)}
	p.Name = "chaosbench"
	header := fmt.Sprintf("== chaosbench: %d algorithms x %d scenarios, %d nodes, %d B messages ==",
		len(m.Grid.Algorithms), len(scenarios), m.Grid.Nodes[0], m.Grid.Sizes[0])
	p.grid(header, "slowdown_vs_quiet is each point's duration over its quiet sibling's.",
		g, harness.ResilienceKernel(tc), harness.AnnotateSlowdown)
	specs := p.Sections[0].Specs
	// The last point is the representative run: grids expand scenarios
	// last, so it carries a real perturbation (not the quiet anchor)
	// whenever the manifest names one.
	p.trace(tc, specs[len(specs)-1], harness.ResilienceKernel)
	// The first point is the quiet anchor (expandScenarios prepends it),
	// the only scenario the replay debugger supports.
	p.ReplaySpec = &specs[0]
}

func (p *Plan) compileTrain(tc telemetry.Config) {
	m := p.Manifest
	layers := 6
	if t := m.Train; t != nil && t.Layers > 0 {
		layers = t.Layers
	}
	workloads := m.Grid.Workloads
	if len(workloads) == 1 && workloads[0] == "all" {
		workloads = workload.Names()
	}
	scenarios := expandScenarios(m.Grid.Scenarios, true)
	g := sweep.Grid{Workloads: workloads, Nodes: m.Grid.Nodes, MsgBytes: m.Grid.Sizes,
		Scenarios: scenarios, Seed: m.SeedOr(21)}
	p.Name = "trainbench"
	header := fmt.Sprintf("== trainbench: %d workloads x %d scenarios, %d nodes, %d KiB shards, %d layers ==",
		len(workloads), max(1, len(scenarios)), m.Grid.Nodes[0], m.Grid.Sizes[0]>>10, layers)
	var post func([]sweep.Record)
	if len(scenarios) > 0 {
		post = harness.AnnotateSlowdown
	}
	p.grid(header, "overlap_frac is the share of communication hidden behind compute or other communication.",
		g, harness.TrainKernel(tc, layers), post)
	specs := p.Sections[0].Specs
	p.trace(tc, specs[0], func(tc telemetry.Config) sweep.Func { return harness.TrainKernel(tc, layers) })
}

// compileSweep lowers each section onto its grids' joined specs and its
// kernel, or onto its table for a gridless kernel. The first point of the
// first op or traffic section is the traced and replayed point.
func (p *Plan) compileSweep(tc telemetry.Config) {
	p.Name = "sweep"
	for _, ss := range p.Manifest.Sections {
		k := sweepKernels[ss.Kernel]
		if k.table != nil {
			p.Sections = append(p.Sections, Section{Header: ss.Title, Note: ss.Note, Run: k.table})
			continue
		}
		lists := make([][]sweep.Spec, len(ss.Grids))
		for i, g := range ss.Grids {
			lists[i] = g.Expand()
		}
		sec := Section{Header: ss.Title, Note: ss.Note, Specs: sweep.Concat(lists...), Kernel: k.kernel(tc)}
		if ss.Kernel == "traffic" {
			sec.Post = harness.AnnotateSavings
		}
		if p.ReplaySpec == nil && (ss.Kernel == "op" || ss.Kernel == "traffic") {
			traced := sec.Specs[0]
			p.trace(tc, traced, sweepKernels["op"].kernel)
			p.ReplaySpec = &traced
		}
		p.Sections = append(p.Sections, sec)
	}
}
