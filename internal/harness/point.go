package harness

import (
	"fmt"

	"repro/internal/cluster"
	"repro/internal/coll"
	"repro/internal/collective"
	"repro/internal/core"
	"repro/internal/fabric"
	"repro/internal/registry"
	"repro/internal/sim"
	"repro/internal/sweep"
	"repro/internal/telemetry"
	"repro/internal/topology"
	"repro/internal/verbs"
	"repro/internal/workload"
)

// Every simulated grid point has one shape: an Env-parameterized build
// constructs the model stack and stops at construction quiescence, and a
// run continuation executes the point on it. A kernel is the build followed
// by the run, on a fresh stack per point; the traced runs are the same
// build under a tracing Env, and the replay debugger re-executes the same
// build to seek.

// point is one built grid point: the model stack plus the point's
// telemetry registry (nil when disabled), its fabric sampler and protocol
// tracer. Collective points carry an algorithm, training points a workload.
type point struct {
	// spec is the build spec with the operation kind resolved.
	spec    sweep.Spec
	f       *fabric.Fabric
	cl      *cluster.Cluster
	alg     collective.Algorithm
	w       *workload.Workload
	reg     *telemetry.Registry
	sampler *telemetry.Sampler
	tracer  *telemetry.Bundle
}

// buildColl builds one collective point on the 188-node testbed model: the
// operation kind (derived from the algorithm name when the Op axis is
// unused), a fresh fabric with linkGbps links (zero: the testbed's 56
// Gbit/s ConnectX-3) and jitterUS of seeded per-delivery noise, and the
// point's algorithm over the first Nodes hosts. The message size and the
// scenario's injectors are not consumed here — they parameterize the
// continuation, not the stack. Every collective kernel and trace builds
// through here, so the quiet anchor of slowdown_vs_quiet cannot drift from
// the plain collective kernel.
func (e Env) buildColl(s sweep.Spec, linkGbps float64, jitterUS int) (*point, error) {
	pt := &point{spec: s, tracer: e.Tracer}
	if s.Op == "" {
		kind, err := collective.KindOfAlgorithm(s.Algorithm)
		if err != nil {
			return nil, err
		}
		pt.spec.Op = string(kind)
	}
	g := topology.Testbed188()
	hosts := g.Hosts()
	if s.Nodes < 1 || s.Nodes > len(hosts) {
		return nil, fmt.Errorf("harness: nodes must be in [1,%d]", len(hosts))
	}
	fcfg := fabric.Config{
		LinkBandwidth: linkGbps * 1e9 / 8,
		ReorderJitter: sim.Time(jitterUS) * sim.Microsecond,
	}
	if fcfg.LinkBandwidth == 0 {
		fcfg.LinkBandwidth = 7e9
	}
	pt.f = fabric.New(sim.NewEngine(s.Seed), g, fcfg)
	pt.reg = e.newRegistry()
	pt.cl = cluster.New(pt.f, cluster.Config{Verbs: verbs.Config{Metrics: pt.reg}})
	var err error
	pt.alg, err = registry.New(pt.cl, s.Algorithm, registry.Options{
		Hosts: hosts[:s.Nodes],
		Core:  core.Config{Transport: verbs.UD, Tracer: e.Tracer, Metrics: pt.reg},
		Coll:  coll.Config{ChunkBytes: s.ChunkSize, Metrics: pt.reg},
	})
	if err != nil {
		return nil, err
	}
	pt.sampler = fabricSampler(pt.reg, pt.f)
	return pt, nil
}

// op is the collective operation a spec asks of this point.
func (pt *point) op(s sweep.Spec) collective.Op {
	return collective.Op{Kind: collective.Kind(pt.spec.Op), Bytes: s.MsgBytes}
}

// snapshot runs the end-of-point collection pass — engine counters, fabric
// channel counters, transport counters — and returns the metric snapshot.
// A nil registry yields nil.
func (pt *point) snapshot() *telemetry.Snapshot {
	if pt.reg == nil {
		return nil
	}
	collectEngineTelemetry(pt.reg, pt.f.Engine())
	pt.f.CollectTelemetry(pt.reg)
	pt.cl.CollectTelemetry(pt.reg)
	return pt.reg.Snapshot()
}

// bundle closes a traced run: the Figure-9 phase events (task dispatch,
// RNR barrier, multicast start / finish per rank, recovery actions, final
// handshake) plus the run's metric snapshot. The bundle renders as the
// text timeline (-trace) or as a Perfetto JSON document (-perfetto). P2P
// baselines record no events and yield "(no events)" — their telemetry
// still populates the bundle.
func (pt *point) bundle() *telemetry.Bundle {
	pt.tracer.Snap = pt.snapshot()
	return pt.tracer
}
