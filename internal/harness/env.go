package harness

import (
	"repro/internal/fabric"
	"repro/internal/registry"
	"repro/internal/scenario"
	"repro/internal/sim"
	"repro/internal/sweep"
	"repro/internal/telemetry"
	"repro/internal/topology"
)

// Env is the execution environment of one run: the knobs that decide how
// the harness builds engines and registries but never what a point
// computes. It is a plain value handed to every kernel constructor — run
// state is explicit, not ambient — and none of it is a sweep axis: records
// and canonical metrics are byte-identical at every Shards value, so it
// never appears in sweep.Spec or report keys. The zero Env is a serial
// engine with telemetry off.
type Env struct {
	// Shards is the conservative-parallel engine shard count; values
	// below 2 select the plain serial engine.
	Shards int
	// Telemetry configures the per-point metrics registry. The zero
	// Config disables collection — kernels then thread a nil registry
	// everywhere, which is free.
	Telemetry telemetry.Config
	// Tracer, when set, is attached to the protocol state machines of
	// every stack built under this Env (see Traced).
	Tracer *telemetry.Bundle
}

// Traced returns the environment of a representative traced run: a fresh
// bundle to record into, and telemetry always on — the traced run exists
// to be observed — while honoring the configured sample period and
// filters. The traced run is separate from the sweep records, so attaching
// it never perturbs their byte-identity.
func (e Env) Traced() Env {
	e.Tracer = &telemetry.Bundle{}
	e.Telemetry.Enabled = true
	return e
}

// newEngine builds the engine for one simulation point: a plain serial
// engine, or the primary shard of a conservative sharded group partitioned
// over the graph's hosts with lookahead taken from the fabric config.
// Model construction and results are identical either way.
func (e Env) newEngine(seed uint64, g *topology.Graph, cfg fabric.Config) *sim.Engine {
	if e.Shards < 2 {
		return sim.NewEngine(seed)
	}
	_, eng := fabric.NewShardedEngine(seed, g, cfg, e.Shards)
	return eng
}

// newRegistry returns a fresh per-point registry, or nil when telemetry is
// disabled. Each grid point gets its own registry (sweep workers run
// points concurrently; registries are not goroutine-safe).
func (e Env) newRegistry() *telemetry.Registry {
	if !e.Telemetry.Enabled {
		return nil
	}
	return telemetry.New(e.Telemetry)
}

// partitions is the one partition gate: it decides whether a collective
// point's fabric is partitioned across the engine shards, which is allowed
// when nothing pins the point to the primary — no perturbation scenario
// (the quiet anchor is injector-free), no telemetry registry (collectors
// read shared fabric state), no delivery jitter (the jitter RNG is
// fabric-global per-delivery state, which partitioned transmit does not
// replicate), and a partition-safe algorithm. The partitioned pipeline
// runs at every shard count including 1, so records are byte-identical at
// any Shards value — partitioning only changes which cores do the work.
// The decision changes the constructed event keying, so shared-stack keys
// include it.
func (e Env) partitions(s sweep.Spec, jitterUS int) bool {
	return (s.Scenario == "" || s.Scenario == scenario.Quiet) && !e.Telemetry.Enabled &&
		jitterUS == 0 && registry.PartitionSafe(s.Algorithm)
}
