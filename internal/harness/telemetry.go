package harness

import (
	"strconv"

	"repro/internal/fabric"
	"repro/internal/sim"
	"repro/internal/telemetry"
)

// fabricSampler attaches the virtual-time sampler that tracks the fabric's
// worst serializer backlog as a gauge. The fabric is confined to the
// primary shard, so the sampled series is identical at every -workers and
// -shards value. The sampler is returned unarmed: a continuation arms it
// right before it drives the engine (and re-arms it per iteration when it
// reuses one fabric — the sampler self-terminates when the event queue
// drains). A nil registry yields a nil sampler; Arm on nil is a no-op.
func fabricSampler(reg *telemetry.Registry, f *fabric.Fabric) *telemetry.Sampler {
	s := reg.NewSampler(f.Engine())
	if s == nil {
		return nil
	}
	gauge := reg.Gauge("fabric", "backlog_ns", "", telemetry.Stable)
	s.Add(func(t sim.Time) { gauge.Sample(t, float64(f.CurrentMaxBacklog())) })
	return s
}

// collectEngineTelemetry exports the engine's event counters. Events and
// scheduled totals are Stable: on a sharded group they sum across shards,
// and every logical event is scheduled and fired exactly once on exactly
// one shard, so the sums match the serial engine at any -shards value
// (the same invariant the sim_events record metric relies on). Recycled
// is Diagnostic — event-pool reuse depends on the per-shard free-list
// interleave, so it is visible to benchmarks and `repro trace` but
// excluded from canonical metrics.json, as are the epoch/stall counts and
// the per-shard split that only exist under -shards > 1.
func collectEngineTelemetry(reg *telemetry.Registry, eng *sim.Engine) {
	if reg == nil {
		return
	}
	executed, scheduled, recycled := eng.Executed, eng.Scheduled, eng.Recycled
	if g := eng.Group(); g != nil {
		executed, scheduled, recycled = g.ExecutedTotal(), g.ScheduledTotal(), g.RecycledTotal()
	}
	reg.Counter("sim", "events", "", telemetry.Stable).Add(executed)
	reg.Counter("sim", "scheduled", "", telemetry.Stable).Add(scheduled)
	reg.Counter("sim", "recycled", "", telemetry.Diagnostic).Add(recycled)
	if g := eng.Group(); g != nil {
		reg.Counter("sim", "epochs", "", telemetry.Diagnostic).Add(g.Epochs)
		reg.Counter("sim", "epoch_stalls", "", telemetry.Diagnostic).Add(g.Stalls)
		for i := 0; i < g.Shards(); i++ {
			reg.Counter("sim", "shard_events", "shard="+strconv.Itoa(i),
				telemetry.Diagnostic).Add(g.Shard(i).Executed)
		}
	}
}
