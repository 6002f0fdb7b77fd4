package harness

import (
	"repro/internal/fabric"
	"repro/internal/sim"
	"repro/internal/telemetry"
)

// newRegistry returns a fresh per-point registry, or nil when tc leaves
// telemetry off. Each grid point gets its own registry (sweep workers run
// points concurrently; registries are not goroutine-safe).
func newRegistry(tc telemetry.Config) *telemetry.Registry {
	if !tc.Enabled {
		return nil
	}
	return telemetry.New(tc)
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

// collectEngineTelemetry exports the engine's event counters: the fired
// and scheduled totals, the same counts the sim_events and sim_scheduled
// record metrics carry.
func collectEngineTelemetry(reg *telemetry.Registry, eng *sim.Engine) {
	if reg == nil {
		return
	}
	reg.Counter("sim", "events", "").Add(eng.Executed)
	reg.Counter("sim", "scheduled", "").Add(eng.Scheduled)
}
