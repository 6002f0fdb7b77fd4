package manifest

import (
	"cmp"
	"fmt"
	"io"
	"slices"

	"repro/internal/harness"
	"repro/internal/sweep"
	"repro/internal/telemetry"
)

// Plan is a compiled manifest: the report name plus one executable section
// per experiment the manifest enables. Compiling performs no simulation —
// it only lowers a shorthand, resolves defaults and wires the sweep grids
// onto their harness kernels — so `repro validate` can compile every
// manifest cheaply as its deepest cross-check.
type Plan struct {
	// Manifest is the (validated) source spec.
	Manifest Manifest
	// Name is the resolved report name.
	Name string
	// Sections are executed in order; their records concatenate into the
	// report.
	Sections []Section
	// TraceSpec names the representative point Trace runs, picked by the
	// first section whose kernel has one; nil when none has.
	TraceSpec *sweep.Spec
	tracer    sweep.Func
	// ReplaySpec names the point `repro replay` seeks and steps through: a
	// quiet collective cell of the plan (the replay debugger installs no
	// scenario injectors), picked by the first section whose kernel has
	// one. Nil when none has.
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

// Compile is the one validator: it checks the manifest, lowers a
// shorthand onto its section, and compiles each section onto its grids'
// joined specs and its kernel, or onto its table for a gridless kernel.
// The kernels' telemetry configuration is derived here from the
// manifest's own telemetry field, so the Plan is self-contained: executing
// it needs no setup beyond the manifest. A manifest that asks for a
// Perfetto trace its plan has no point to produce is an error here, so
// `repro validate` and `repro run` agree on it.
func Compile(m Manifest) (*Plan, error) {
	low, err := m.lowered()
	if err != nil {
		return nil, err
	}
	p := &Plan{Manifest: m, Name: cmp.Or(low.Name, "sweep")}
	tc := telemetry.Config{Enabled: m.Telemetry != nil}
	for _, ss := range low.Sections {
		k := sweepKernels[ss.Kernel]
		if k.table != nil {
			p.Sections = append(p.Sections, Section{Header: ss.Title, Note: ss.Note, Run: k.table})
			continue
		}
		lists := make([][]sweep.Spec, len(ss.Grids))
		for i, g := range ss.Grids {
			lists[i] = g.Expand()
		}
		sec := Section{Header: ss.Title, Note: ss.Note, Specs: sweep.Concat(lists...), Kernel: k.build(tc, ss), Post: k.post}
		if k.slowdown && slices.ContainsFunc(ss.Grids, func(g sweep.Grid) bool { return len(g.Scenarios) > 0 }) {
			sec.Post = harness.AnnotateSlowdown
		}
		if p.TraceSpec == nil && k.trace != nil {
			traced, tracer := k.trace(sec.Specs), k.traced
			if tracer == nil {
				tracer = k.build
			}
			p.TraceSpec, p.tracer = &traced, tracer(telemetry.Config{Enabled: true}, ss)
		}
		if p.ReplaySpec == nil && k.replay != nil {
			replayed := k.replay(sec.Specs)
			p.ReplaySpec = &replayed
		}
		p.Sections = append(p.Sections, sec)
	}
	if m.Telemetry != nil && m.Telemetry.Perfetto != "" && p.TraceSpec == nil {
		return nil, fmt.Errorf("manifest: telemetry.perfetto set, but no section of the manifest has a traceable point")
	}
	return p, nil
}

// Trace runs TraceSpec through its section's kernel again with telemetry
// always on, and returns the point's snapshot — its metrics, spans and
// Figure-9 phase events — which renders as a text timeline or a Perfetto
// JSON document; P2P baselines record no events, so their timeline reads
// "(no events)". The traced run is separate from the sweep, so records
// stay byte-identical. It needs a TraceSpec.
func (p *Plan) Trace() (*telemetry.Snapshot, error) {
	rec, err := p.tracer(*p.TraceSpec)
	if err != nil {
		return nil, err
	}
	return rec.Telemetry, nil
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
