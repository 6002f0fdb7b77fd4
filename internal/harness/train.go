package harness

import (
	"fmt"

	"repro/internal/cluster"
	"repro/internal/fabric"
	"repro/internal/scenario"
	"repro/internal/sim"
	"repro/internal/sweep"
	"repro/internal/telemetry"
	"repro/internal/topology"
	"repro/internal/verbs"
	"repro/internal/workload"
)

// The training sweep measures application-level workloads — declarative
// compute/collective DAGs from internal/workload, headlined by the FSDP
// step of §II-A — on a full-bandwidth star fabric, optionally under a named
// perturbation scenario, so a chaos preset can hit a live training step.

// TrainConfig carries the workload knobs the sweep grid does not vary.
type TrainConfig struct {
	// Layers is the FSDP model depth. Zero defaults to 6.
	Layers int
	// Compute is the forward+backward time per layer. Zero defaults to
	// 150 µs.
	Compute sim.Time
	// Jobs is the tenant count of multi-job presets. Zero defaults to 2.
	Jobs int
}

// buildStar builds a full-bandwidth star fabric of the given host count
// (as the FSDP scenario of Appendix B assumes) and its cluster, reporting
// into reg.
func (e Env) buildStar(s sweep.Spec, hosts int, reg *telemetry.Registry) *point {
	g := topology.Star(hosts)
	pt := &point{spec: s, tracer: e.Tracer, reg: reg}
	pt.f = fabric.New(sim.NewEngine(s.Seed), g, fabric.Config{})
	pt.cl = cluster.New(pt.f, cluster.Config{Verbs: verbs.Config{Metrics: reg}})
	pt.sampler = fabricSampler(reg, pt.f)
	return pt
}

// buildTrain builds one training point: the workload preset and a star
// fabric sized by its host demand. It consumes the workload, scale, shard
// size and seed; the scenario belongs to the continuation.
func (e Env) buildTrain(s sweep.Spec, cfg TrainConfig) (*point, error) {
	reg := e.newRegistry()
	w, err := workload.New(s.Workload, workload.Config{
		Nodes:      s.Nodes,
		Layers:     cfg.Layers,
		ShardBytes: s.MsgBytes,
		Compute:    cfg.Compute,
		Jobs:       cfg.Jobs,
		Tracer:     e.Tracer,
		Metrics:    reg,
	})
	if err != nil {
		return nil, err
	}
	hosts := max(w.MinHosts(), s.Nodes)
	if hosts < 2 {
		return nil, fmt.Errorf("harness: workload %q needs at least 2 hosts", s.Workload)
	}
	pt := e.buildStar(s, hosts, reg)
	pt.w = &w
	return pt, nil
}

// TrainKernel returns the sweep kernel for workload points: it executes the
// point's preset — under the point's scenario when one is named, with the
// resilience sweep's virtual-time and event-budget runaway guards — and
// reports step time, communication busy/exposed time, and the achieved
// overlap. The Record carries the workload metadata fields (workload,
// overlap_frac) alongside the metrics.
func TrainKernel(env Env, cfg TrainConfig) sweep.Func {
	return func(s sweep.Spec) (sweep.Record, error) {
		pt, err := env.buildTrain(s, cfg)
		if err != nil {
			return sweep.Record{}, err
		}
		return trainRun(pt, pt.spec)
	}
}

// step starts the point's workload and drives it to completion: freely on
// the quiet fabric, under the resilience guards when the spec names a
// scenario.
func (pt *point) step(s sweep.Spec) (*workload.Report, error) {
	f := pt.f
	pt.sampler.Arm()
	p, err := workload.Start(pt.cl, *pt.w)
	if err != nil {
		return nil, err
	}
	if s.Scenario == "" {
		f.Engine().Run()
		return p.Report()
	}
	sc, err := scenario.New(s.Scenario)
	if err != nil {
		return nil, err
	}
	// Scope the scenario to the hosts the workload runs on and drive the
	// engine exactly as the resilience kernel does: a persistent injector
	// keeps the queue full forever, so completion must be cut off by work
	// done.
	act := sc.InstallOn(f, f.Graph().Hosts(), s.Seed)
	done := drive(f, act, func() bool { return p.Done() || p.Err() != nil })
	act.Stop()
	if !done {
		return nil, fmt.Errorf("harness: workload %s did not complete under scenario %q within %v / %d events",
			s.Workload, s.Scenario, resilienceHorizon, resilienceEventBudget)
	}
	return p.Report()
}

// trainRun is the training continuation: one step, reduced to a Record.
func trainRun(pt *point, s sweep.Spec) (sweep.Record, error) {
	rep, err := pt.step(s)
	if err != nil {
		return sweep.Record{}, err
	}
	// Step time is the slowest job's step; busy/exposed/overlap
	// aggregate communication work across jobs.
	var step, commBusy, exposed sim.Time
	for i := range rep.Jobs {
		j := &rep.Jobs[i]
		if st := j.StepTime(); st > step {
			step = st
		}
		commBusy += j.CommBusy
		exposed += j.Exposed()
	}
	overlap := 0.0
	if commBusy > 0 {
		overlap = 1 - float64(exposed)/float64(commBusy)
		if overlap < 0 {
			overlap = 0
		}
	}
	rec := sweep.Record{
		Spec:        s,
		Workload:    s.Workload,
		OverlapFrac: overlap,
		Metrics: map[string]float64{
			"duration_us":  step.Micros(),
			"span_us":      rep.Span().Micros(),
			"comm_busy_us": commBusy.Micros(),
			"exposed_us":   exposed.Micros(),
			"overlap_frac": overlap,
		},
	}
	addEngineMetrics(&rec, pt.f.Engine())
	rep.ExportTelemetry(pt.reg)
	rec.Telemetry = pt.snapshot()
	return rec, nil
}

// TrainTrace re-runs one workload point — the same build under a tracing
// Env, stepped the same way — and returns the bundle: protocol phase
// events from its multicast communicators plus per-job workload spans and
// the metric snapshot. P2P-only workloads produce an empty timeline (the
// baselines have no protocol tracer) but still carry workload spans and
// fabric metrics in the bundle.
func TrainTrace(env Env, s sweep.Spec, cfg TrainConfig) (*telemetry.Bundle, error) {
	pt, err := env.Traced().buildTrain(s, cfg)
	if err != nil {
		return nil, err
	}
	rep, err := pt.step(s)
	if err != nil {
		return nil, err
	}
	rep.ExportTelemetry(pt.reg)
	return pt.bundle(), nil
}
