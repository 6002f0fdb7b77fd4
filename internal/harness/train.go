package harness

import (
	"fmt"

	"repro/internal/fabric"
	"repro/internal/scenario"
	"repro/internal/sim"
	"repro/internal/sweep"
	"repro/internal/telemetry"
	"repro/internal/topology"
	"repro/internal/workload"
)

// The training sweep measures application-level workloads — declarative
// compute/collective DAGs from internal/workload, headlined by the FSDP
// step of §II-A — on a full-bandwidth star fabric, optionally under a named
// perturbation scenario, so a chaos preset can hit a live training step.

// buildStar builds a full-bandwidth star fabric of the given host count
// (as the FSDP scenario of Appendix B assumes) and its cluster.
func buildStar(tc telemetry.Config, s sweep.Spec, hosts int) *point {
	return newPoint(s, fabric.New(sim.NewEngine(s.Seed), topology.Star(hosts), fabric.Config{}), tc)
}

// buildTrain builds one training point: the workload preset at the given
// FSDP depth (zero: the preset's 6 layers) and a star fabric sized by its
// host demand. It consumes the workload, scale, shard size and seed; the
// scenario belongs to the continuation.
func buildTrain(tc telemetry.Config, s sweep.Spec, layers int) (*point, error) {
	w, err := workload.New(s.Workload, workload.Config{
		Nodes:      s.Nodes,
		Layers:     layers,
		ShardBytes: s.MsgBytes,
	})
	if err != nil {
		return nil, err
	}
	hosts := max(w.MinHosts(), s.Nodes)
	if hosts < 2 {
		return nil, fmt.Errorf("harness: workload %q needs at least 2 hosts", s.Workload)
	}
	pt := buildStar(tc, s, hosts)
	pt.w = &w
	return pt, nil
}

// TrainKernel returns the sweep kernel for workload points: it executes the
// point's preset — under the point's scenario when one is named, with the
// resilience sweep's virtual-time and event-budget runaway guards — and
// reports step time, communication busy/exposed time, and the achieved
// overlap. The Record carries the workload metadata fields (workload,
// overlap_frac) alongside the metrics.
func TrainKernel(tc telemetry.Config, layers int) sweep.Func {
	return func(s sweep.Spec) (sweep.Record, error) {
		pt, err := buildTrain(tc, s, layers)
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
	rec.Telemetry = pt.snapshot(&rec)
	return rec, nil
}
