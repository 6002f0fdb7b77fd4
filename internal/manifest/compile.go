package manifest

import (
	"fmt"
	"io"
	"slices"

	"repro/internal/harness"
	"repro/internal/scenario"
	"repro/internal/sim"
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
	// Trace re-runs one representative point with a protocol tracer and an
	// always-on telemetry registry attached, and returns the bundle — the
	// Figure-9 phase events plus the traced run's metric snapshot, which
	// renders as a text timeline or a Perfetto JSON document. Nil when the
	// kind has no traceable point. The traced run is separate from the
	// sweep, so records stay byte-identical.
	Trace func() (*telemetry.Bundle, error)
	// ReplaySpec names the point `repro replay` seeks and steps through: a
	// quiet collective cell of the plan (the replay debugger installs no
	// scenario injectors). Nil when the kind has no replayable point.
	ReplaySpec *sweep.Spec
}

// Section is one experiment of a plan: either a sweep (Specs through
// Kernel on the worker pool, then Post) or a self-contained analytic Run.
type Section struct {
	// Header and Note frame the section's table on stdout.
	Header string
	Note   string
	// Grid is the declarative form behind Specs when the section is a
	// single grid (nil for composed spec lists), kept for introspection
	// and round-trip tests.
	Grid *sweep.Grid
	// Specs are the expanded points; Kernel executes one of them.
	Specs  []sweep.Spec
	Kernel sweep.Func
	// Post annotates the section's records after the sweep (slowdowns,
	// savings); optional.
	Post func([]sweep.Record)
	// Run replaces the sweep entirely for analytic sections; optional.
	Run func() ([]sweep.Record, error)
}

// Compile validates the manifest and lowers it onto sweep grids and
// harness kernels. The kernels' execution environment (the telemetry
// configuration) is derived here from the manifest's own telemetry field,
// so the Plan is self-contained: executing it needs no setup beyond the
// manifest.
func Compile(m Manifest) (*Plan, error) {
	if err := m.Validate(); err != nil {
		return nil, err
	}
	p := &Plan{Manifest: m}
	var env harness.Env
	if t := m.Telemetry; t != nil {
		env.Telemetry = telemetry.Config{
			Enabled:      true,
			SamplePeriod: sim.Time(t.SamplePeriodUS) * sim.Microsecond,
			Filters:      t.Filters,
		}
	}
	var err error
	switch m.Kind {
	case "osu":
		err = p.compileOSU(env)
	case "chaos":
		err = p.compileChaos(env)
	case "train":
		err = p.compileTrain(env)
	case "traffic":
		err = p.compileTraffic(env)
	case "dpa":
		err = p.compileDPA(env)
	case "cost":
		err = p.compileCost(env)
	case "ag":
		err = p.compileAG(env)
	}
	if err != nil {
		return nil, err
	}
	if m.Name != "" {
		p.Name = m.Name
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
		var err error
		if sec.Run != nil {
			recs, err = sec.Run()
		} else {
			recs, err = sweep.Run(sec.Specs, workers, sec.Kernel)
		}
		if err != nil {
			return sweep.Report{}, err
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

// grid appends a single-grid section.
func (p *Plan) grid(header, note string, g sweep.Grid, kernel sweep.Func, post func([]sweep.Record)) {
	p.Sections = append(p.Sections, Section{
		Header: header, Note: note,
		Grid: &g, Specs: g.Expand(), Kernel: kernel, Post: post,
	})
}

// specs appends a composed-spec section.
func (p *Plan) specs(header, note string, specs []sweep.Spec, kernel sweep.Func) {
	p.Sections = append(p.Sections, Section{
		Header: header, Note: note, Specs: specs, Kernel: kernel,
	})
}

// analytic appends a self-contained section.
func (p *Plan) analytic(header, note string, run func() ([]sweep.Record, error)) {
	p.Sections = append(p.Sections, Section{Header: header, Note: note, Run: run})
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

func (p *Plan) compileOSU(env harness.Env) error {
	m := p.Manifest
	cfg := harness.OSUConfig{Iters: 10, Warmup: 2, LinkGbps: 56}
	if o := m.OSU; o != nil {
		if o.Iters > 0 {
			cfg.Iters = o.Iters
		}
		if o.Warmup != nil {
			cfg.Warmup = *o.Warmup
		}
		if o.LinkGbps > 0 {
			cfg.LinkGbps = o.LinkGbps
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
	header := fmt.Sprintf("# OSU-style sweep: %v, nodes %v, %.0f Gbit/s links, %d iters (+%d warmup)",
		m.Grid.Algorithms, m.Grid.Nodes, cfg.LinkGbps, cfg.Iters, cfg.Warmup)
	p.grid(header, "", g, harness.OSUKernel(env, cfg), nil)
	specs := p.Sections[0].Specs
	p.Trace = func() (*telemetry.Bundle, error) {
		// The last (largest) size point is the representative run.
		return harness.CollTrace(env, specs[len(specs)-1], cfg.LinkGbps)
	}
	p.ReplaySpec = &specs[len(specs)-1]
	return nil
}

func (p *Plan) compileChaos(env harness.Env) error {
	m := p.Manifest
	scenarios := expandScenarios(m.Grid.Scenarios, true)
	g := harness.ResilienceGrid(m.Grid.Algorithms, scenarios,
		m.Grid.Nodes[0], m.Grid.Sizes[0], m.SeedOr(7))
	p.Name = "chaosbench"
	header := fmt.Sprintf("== chaosbench: %d algorithms x %d scenarios, %d nodes, %d B messages ==",
		len(m.Grid.Algorithms), len(scenarios), m.Grid.Nodes[0], m.Grid.Sizes[0])
	p.grid(header, "slowdown_vs_quiet is each point's duration over its quiet sibling's.",
		g, harness.ResilienceKernel(env), harness.AnnotateSlowdown)
	specs := p.Sections[0].Specs
	p.Trace = func() (*telemetry.Bundle, error) {
		// The last point is the representative run: grids expand scenarios
		// last, so it carries a real perturbation (not the quiet anchor)
		// whenever the manifest names one.
		return harness.ChaosTrace(env, specs[len(specs)-1])
	}
	// The first point is the quiet anchor (expandScenarios prepends it),
	// the only scenario the replay debugger supports.
	p.ReplaySpec = &specs[0]
	return nil
}

func (p *Plan) compileTrain(env harness.Env) error {
	m := p.Manifest
	cfg := harness.TrainConfig{Layers: 6, Compute: 150 * sim.Microsecond, Jobs: 2}
	if t := m.Train; t != nil {
		if t.Layers > 0 {
			cfg.Layers = t.Layers
		}
		if t.ComputeUS > 0 {
			cfg.Compute = sim.Time(t.ComputeUS) * sim.Microsecond
		}
		if t.Jobs > 0 {
			cfg.Jobs = t.Jobs
		}
	}
	workloads := m.Grid.Workloads
	if len(workloads) == 1 && workloads[0] == "all" {
		workloads = workload.Names()
	}
	scenarios := expandScenarios(m.Grid.Scenarios, true)
	g := harness.TrainGrid(workloads, m.Grid.Nodes, m.Grid.Sizes, scenarios, m.SeedOr(21))
	p.Name = "trainbench"
	header := fmt.Sprintf("== trainbench: %d workloads x %d scenarios, %d nodes, %d KiB shards, %d layers ==",
		len(workloads), max(1, len(scenarios)), m.Grid.Nodes[0], m.Grid.Sizes[0]>>10, cfg.Layers)
	var post func([]sweep.Record)
	if len(scenarios) > 0 {
		post = harness.AnnotateSlowdown
	}
	p.grid(header, "overlap_frac is the share of communication hidden behind compute or other communication.",
		g, harness.TrainKernel(env, cfg), post)
	specs := p.Sections[0].Specs
	p.Trace = func() (*telemetry.Bundle, error) {
		return harness.TrainTrace(env, specs[0], cfg)
	}
	return nil
}

func (p *Plan) compileTraffic(env harness.Env) error {
	m := p.Manifest
	iters := 10
	if m.Traffic != nil && m.Traffic.Iters > 0 {
		iters = m.Traffic.Iters
	}
	p.Name = "trafficbench-fig12"
	header := fmt.Sprintf("== Figure 12: switch-port traffic, %d nodes, %d B messages, %d iterations ==",
		m.Grid.Nodes[0], m.Grid.Sizes[0], iters)
	p.specs(header, "paper: multicast reduces data movement 1.5x (broadcast) to 2x (allgather).",
		harness.Fig12Specs(m.Grid.Nodes[0], m.Grid.Sizes[0]), harness.Fig12Kernel(env, iters))
	p.Sections[0].Post = harness.AnnotateSavings
	specs := p.Sections[0].Specs
	p.Trace = func() (*telemetry.Bundle, error) {
		// The first cell is mcast-broadcast — the protocol under study.
		return harness.CollTrace(env, specs[0], 56)
	}
	p.ReplaySpec = &specs[0]
	return nil
}

func (p *Plan) compileDPA(env harness.Env) error {
	m := p.Manifest
	p.Name = "dpabench"
	has := func(fig int) bool { return m.All || slices.Contains(m.Figures, fig) }
	if has(5) {
		p.specs("== Figure 5: single-threaded CPU vs single-core DPA UD datapath (200 Gbit/s link) ==",
			"paper: one CPU core sustains ~1/2-2/3 of 200 Gbit/s; one DPA core reaches peak.",
			harness.Fig5Specs([]int{16 << 10, 64 << 10, 256 << 10, 1 << 20, 4 << 20, 8 << 20}),
			harness.RxKernel(env))
	}
	if m.All || slices.Contains(m.Tables, 1) {
		p.grid("== Table I: single DPA thread, 8 MiB buffer, 4 KiB chunks ==",
			"paper: UC 11.9 GiB/s, 66 instr, 598 cycles, IPC 0.11; UD 5.2 GiB/s, 113 instr, 1084 cycles, IPC 0.10.",
			harness.Table1Grid(), harness.RxKernel(env), nil)
	}
	if has(13) || has(14) {
		p.specs("== Figures 13/14: DPA thread scaling, 8 MiB receive buffer, 4 KiB chunks (last row: CPU baseline) ==",
			"paper: UC reaches full throughput with 4 threads; UD needs 8-16 (1/256 of DPA capacity: UC 1/2, UD 1/5 of peak).",
			harness.Fig13Specs([]int{1, 2, 4, 8, 16}), harness.RxKernel(env))
	}
	if has(15) {
		p.grid("== Figure 15: UC throughput vs multi-packet chunk size (8 MiB buffer) ==",
			"paper: with larger chunks DPA sustains line rate with fewer threads.",
			harness.Fig15Grid([]int{4 << 10, 8 << 10, 16 << 10, 32 << 10, 64 << 10}, []int{1, 2, 4}),
			harness.RxKernel(env), nil)
	}
	if has(16) {
		p.grid("== Figure 16: sustained 64 B chunk processing rate vs DPA threads (link_share: x 1.6 Tbit/s target) ==",
			fmt.Sprintf("target: %.1f Mchunks/s (1.6 Tbit/s at 4 KiB MTU). paper: 128 threads sustain it.",
				harness.Tbit16Target/1e6),
			harness.Fig16Grid([]int{1, 2, 4, 8, 16, 32, 64, 128}), harness.Fig16Kernel(env), nil)
	}
	return nil
}

func (p *Plan) compileCost(env harness.Env) error {
	m := p.Manifest
	p.Name = "costmodel"
	if m.All || slices.Contains(m.Figures, 2) {
		p.analytic("== Figure 2: theoretical Allgather traffic, 1024 nodes, radix-32 fat-tree ==",
			"paper: multicast-based Allgather halves total network traffic at scale.",
			harness.Fig2Records)
	}
	if m.All || slices.Contains(m.Figures, 7) {
		p.analytic("== Figure 7: bitmap and receive-buffer sizes vs PSN bits (4 KiB chunks) ==",
			harness.Fig7Note(),
			func() ([]sweep.Record, error) { return harness.Fig7Records(), nil })
	}
	if m.All || m.Speedup {
		p.specs("== Appendix B: concurrent {Allgather, Reduce-Scatter} span (model_speedup: 2 - 2/P) ==",
			"paper: concurrent collectives speed up by up to 2x at scale (ring-pair span / inc-pair span).",
			harness.AppBSpecs([]int{2, 4, 8, 16}, 1<<20), harness.AppBKernel(env))
	}
	if m.All || m.Economics {
		p.analytic("== §VII: economics of SmartNIC offloading (SuperPOD node) ==",
			"paper: NICs ~2.5x lower cost and ~7x lower energy than the CPUs.",
			func() ([]sweep.Record, error) { return harness.EconRecords(), nil })
	}
	return nil
}

func (p *Plan) compileAG(env harness.Env) error {
	m := p.Manifest
	fig := m.Figures[0]
	p.Name = fmt.Sprintf("agbench-fig%d", fig)
	switch fig {
	case 10:
		nodes, sizes := m.Grid.Nodes, m.Grid.Sizes
		if len(nodes) == 0 {
			nodes = []int{4, 16, 64, 188}
		}
		if len(sizes) == 0 {
			sizes = []int{4096, 65536, 1 << 20}
		}
		p.grid("== Figure 10: Allgather critical-path breakdown (median across ranks) ==",
			"paper: from 16 nodes on, 99% of progress-path time is the multicast datapath.",
			harness.Fig10Grid(nodes, sizes), harness.CollKernel(env), nil)
	case 11:
		nodes, sizes := 188, m.Grid.Sizes
		if len(m.Grid.Nodes) == 1 {
			nodes = m.Grid.Nodes[0]
		}
		if len(sizes) == 0 {
			sizes = []int{16 << 10, 64 << 10, 256 << 10, 1 << 20}
		}
		p.specs(fmt.Sprintf("== Figure 11: per-rank receive throughput at %d nodes (56 Gbit/s links) ==", nodes),
			"paper: mcast broadcast beats k-nomial/binary tree; mcast allgather matches ring at 128-256 KiB.",
			harness.Fig11Specs(nodes, sizes), harness.CollKernel(env))
	}
	specs := p.Sections[0].Specs
	var traced sweep.Spec
	if fig == 10 {
		// The last point is the largest (nodes, size) cell.
		traced = specs[len(specs)-1]
	} else {
		// The first figure-11 point is mcast-broadcast at the smallest size.
		traced = specs[0]
	}
	p.Trace = func() (*telemetry.Bundle, error) {
		return harness.CollTrace(env, traced, 56)
	}
	p.ReplaySpec = &traced
	return nil
}
