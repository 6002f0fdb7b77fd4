package harness

import (
	"fmt"

	"repro/internal/collective"
	"repro/internal/fabric"
	"repro/internal/scenario"
	"repro/internal/sim"
	"repro/internal/sweep"
	"repro/internal/telemetry"
)

// The resilience sweep measures collectives on a noisy fabric: every grid
// point runs one algorithm under one named scenario (internal/scenario) on
// the testbed model and reports how much the perturbations cost relative to
// the quiet fabric, plus the recovery work they forced (fabric drops,
// slow-path repairs, retransmissions, background-traffic volume).

// resilienceHorizon bounds the virtual time a perturbed collective may
// take. A scenario that prevents completion (e.g. a permanently dead path
// with no recovery) would otherwise keep the engine alive forever through
// its own re-arming events.
const resilienceHorizon = 2 * sim.Second

// resilienceEventBudget bounds the executed-event count per point: a
// scenario with persistent background flows schedules packets for as long
// as the engine runs, so a stalled collective must be cut off by work done,
// not just virtual time, or the sweep grinds through hundreds of millions
// of tenant packets on the way to the horizon.
const resilienceEventBudget = 50_000_000

// ResilienceKernel returns the sweep kernel for collectives under
// perturbation: it arms the point's scenario on the testbed fabric (with
// an RNG stream derived from the point seed, preserving byte-identical
// JSON at any worker count), starts the algorithm non-blocking, and stops
// the scenario the moment the collective completes so the engine drains.
func ResilienceKernel(env Env) sweep.Func {
	return func(s sweep.Spec) (sweep.Record, error) {
		pt, err := env.buildColl(s, 0, 0)
		if err != nil {
			return sweep.Record{}, err
		}
		return resilienceRun(pt, pt.spec)
	}
}

// resilienceRun is the kernel's continuation: the collective under its
// scenario, reduced to a Record.
func resilienceRun(pt *point, s sweep.Spec) (sweep.Record, error) {
	run, err := pt.perturbed(s)
	if err != nil {
		return sweep.Record{}, err
	}
	return run.record(pt, s), nil
}

// chaosRun is one collective in flight under a scenario: the armed
// injectors and, once the operation completes, its result.
type chaosRun struct {
	act *scenario.Active
	res *collective.Result
}

// start installs the spec's scenario and starts the collective
// non-blocking; completion records the result and stops the scenario.
func (pt *point) start(s sweep.Spec) (*chaosRun, error) {
	sc, err := scenario.New(s.Scenario)
	if err != nil {
		return nil, err
	}
	starter, ok := pt.alg.(collective.Starter)
	if !ok {
		return nil, fmt.Errorf("harness: %s cannot run non-blocking under a scenario", s.Algorithm)
	}
	pt.sampler.Arm()
	// Scope the scenario to the participating hosts: on the 188-host
	// testbed a fabric-wide random straggler or spine flap would usually
	// land on idle hardware and measure nothing.
	run := &chaosRun{act: sc.InstallOn(pt.f, pt.f.Graph().Hosts()[:s.Nodes], s.Seed)}
	err = starter.Start(pt.op(s), func(r *collective.Result) {
		run.res = r
		run.act.Stop()
	})
	return run, err
}

// perturbed runs the spec's collective to completion under its scenario,
// within the runaway guards.
func (pt *point) perturbed(s sweep.Spec) (*chaosRun, error) {
	run, err := pt.start(s)
	if err != nil {
		return nil, err
	}
	if !drive(pt.f, run.act, func() bool { return run.res != nil }) {
		return nil, fmt.Errorf("harness: %s did not complete under scenario %q within %v / %d events",
			s.Algorithm, s.Scenario, resilienceHorizon, resilienceEventBudget)
	}
	return run, nil
}

// drive runs the engine until done reports completion, in slices so both
// bounds — virtual time and executed events — are enforced even against a
// scenario that keeps the queue full forever. Slicing never changes
// results: events fire at identical times, only the (RNG-free) bookkeeping
// between slices differs. If the bounds trip first it freezes the
// scenario, heals the fabric, and grants one grace period: a transport
// stuck retransmitting into a dead link gets to finish on the restored
// path instead of deadlocking the sweep. It reports whether done held.
func drive(f *fabric.Fabric, act *scenario.Active, done func() bool) bool {
	eng := f.Engine()
	for !done() && eng.Now() < resilienceHorizon && eng.Executed < resilienceEventBudget {
		eng.RunFor(sim.Millisecond)
	}
	if !done() {
		act.Stop()
		for id := 0; id < f.NumChannels(); id++ {
			f.ClearOverrides(fabric.ChannelID(id))
		}
		for end := eng.Now() + resilienceHorizon/4; !done() && eng.Now() < end &&
			eng.Executed < 2*resilienceEventBudget; {
			eng.RunFor(sim.Millisecond)
		}
	}
	return done()
}

// record assembles the completed run's Record: the cost of the
// perturbations and the recovery work they forced.
func (run *chaosRun) record(pt *point, s sweep.Spec) sweep.Record {
	res := run.res
	var recovered, retransmits, rnrDrops float64
	for _, rs := range res.PerRank {
		recovered += float64(rs.Recovered)
		retransmits += float64(rs.Retransmits)
		rnrDrops += float64(rs.RNRDrops)
	}
	st := run.act.Stats()
	rec := sweep.Record{Spec: s, Result: res, Metrics: map[string]float64{
		"duration_us": res.Duration().Micros(),
		"gibps":       res.AlgBandwidth() / (1 << 30),
		"drops":       float64(pt.f.TotalDropped),
		"recovered":   recovered,
		"retransmits": retransmits,
		"rnr_drops":   rnrDrops,
		"perturbs":    float64(st.Perturbs),
		"restores":    float64(st.Restores),
		"bg_mbytes":   float64(st.BackgroundBytes) / 1e6,
	}}
	addEngineMetrics(&rec, pt.f.Engine())
	rec.Telemetry = pt.snapshot()
	return rec
}

// ChaosTrace re-runs one resilience point — the same build under a tracing
// Env, driven under the same guards as the kernel — and returns the
// bundle. On a perturbed fabric the timeline shows the slow path at work —
// cutoff expiry, neighbor fetches, retransmissions — and the metric
// snapshot carries the drop/retransmit counters the scenario forced.
func ChaosTrace(env Env, s sweep.Spec) (*telemetry.Bundle, error) {
	pt, err := env.Traced().buildColl(s, 0, 0)
	if err != nil {
		return nil, err
	}
	if _, err := pt.perturbed(s); err != nil {
		return nil, err
	}
	return pt.bundle(), nil
}

// AnnotateSlowdown adds the slowdown_vs_quiet metric to every record that
// has a quiet sibling — the same point with the Scenario axis at "quiet"
// (or empty). Quiet points get exactly 1. Records without a quiet sibling
// in the slice are left unannotated.
func AnnotateSlowdown(recs []sweep.Record) {
	quiet := make(map[string]float64)
	for _, r := range recs {
		if r.Spec.Scenario == scenario.Quiet || r.Spec.Scenario == "" {
			k := r.Spec
			k.Scenario = ""
			quiet[k.Key()] = r.Metric("duration_us")
		}
	}
	for i := range recs {
		k := recs[i].Spec
		k.Scenario = ""
		if q, ok := quiet[k.Key()]; ok && q > 0 {
			recs[i].Metrics["slowdown_vs_quiet"] = recs[i].Metric("duration_us") / q
		}
	}
}
