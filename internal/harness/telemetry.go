package harness

import (
	"repro/internal/fabric"
	"repro/internal/sim"
	"repro/internal/sweep"
	"repro/internal/telemetry"
)

// newRegistry returns a fresh per-point registry, or nil when tc leaves
// telemetry off. Each grid point gets its own registry (sweep workers run
// points concurrently; registries are not goroutine-safe).
func newRegistry(tc telemetry.Config) *telemetry.Registry {
	if !tc.Enabled {
		return nil
	}
	return telemetry.New()
}

// fabricSampler attaches the virtual-time sampler that tracks the fabric's
// worst serializer backlog as a gauge. The sampler is returned unarmed: a
// continuation arms it right before it drives the engine (and re-arms it
// per iteration when it reuses one fabric — the sampler self-terminates
// when the event queue drains). A nil registry yields a nil sampler; Arm on
// nil is a no-op.
func fabricSampler(reg *telemetry.Registry, f *fabric.Fabric) *telemetry.Sampler {
	s := reg.NewSampler(f.Engine())
	if s == nil {
		return nil
	}
	gauge := reg.Gauge("fabric", "backlog_ns", "")
	s.Add(func(t sim.Time) { gauge.Sample(t, float64(f.CurrentMaxBacklog())) })
	return s
}

// engineCounts exports an engine's fired and scheduled event totals: as the
// sim_events and sim_scheduled metrics of rec when rec is not nil, and as
// the sim/events and sim/scheduled counters of reg (a no-op on nil). Both
// are deterministic event counts, never wall-clock rates, so the
// byte-identical-JSON contract of the sweep engine holds; the wall-clock
// events/sec trajectory lives in the host-time ledger (bench/, perf/*.json).
func engineCounts(rec *sweep.Record, reg *telemetry.Registry, executed, scheduled uint64) {
	if rec != nil {
		rec.Metrics["sim_events"] = float64(executed)
		rec.Metrics["sim_scheduled"] = float64(scheduled)
	}
	reg.Counter("sim", "events", "").Add(executed)
	reg.Counter("sim", "scheduled", "").Add(scheduled)
}
