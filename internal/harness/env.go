package harness

import (
	"repro/internal/registry"
	"repro/internal/scenario"
	"repro/internal/sweep"
	"repro/internal/telemetry"
)

// Env is the execution environment of one run: the knobs that decide how
// the harness builds registries and tracers but never what a point
// computes. It is a plain value handed to every kernel constructor —
// run state is explicit, not ambient — and none of it is a sweep axis, so
// it never appears in sweep.Spec or report keys. The zero Env has
// telemetry off.
type Env struct {
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
// point's fabric runs the keyed pipeline (fabric.EnablePartition), which
// it does when nothing needs the confined path — no perturbation scenario
// (the quiet anchor is injector-free), no telemetry registry, no delivery
// jitter (the keyed path carries no jitter RNG), and a partition-safe
// algorithm. The decision changes the constructed event keying, so
// shared-stack keys include it.
func (e Env) partitions(s sweep.Spec, jitterUS int) bool {
	return (s.Scenario == "" || s.Scenario == scenario.Quiet) && !e.Telemetry.Enabled &&
		jitterUS == 0 && registry.PartitionSafe(s.Algorithm)
}
