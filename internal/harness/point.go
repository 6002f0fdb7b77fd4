package harness

import (
	"fmt"

	"repro/internal/cluster"
	"repro/internal/coll"
	"repro/internal/collective"
	"repro/internal/fabric"
	"repro/internal/registry"
	"repro/internal/sim"
	"repro/internal/sweep"
	"repro/internal/telemetry"
	"repro/internal/topology"
	"repro/internal/verbs"
	"repro/internal/workload"
)

// Every simulated grid point has one shape: a build under a telemetry
// configuration constructs the model stack and stops at construction
// quiescence, and a run continuation executes the point on it. A kernel is
// the build followed by the run, on a fresh stack per point; a traced run
// is a kernel's run with telemetry on, and the replay debugger re-executes
// the same build to seek.

// point is one built grid point: the model stack (whose cluster carries
// the point's telemetry registry, nil when disabled) and its fabric
// sampler. Collective points carry an algorithm, training points a
// workload.
type point struct {
	// spec is the build spec with the operation kind resolved.
	spec    sweep.Spec
	f       *fabric.Fabric
	cl      *cluster.Cluster
	alg     collective.Algorithm
	w       *workload.Workload
	sampler *telemetry.Sampler
}

// newPoint builds the point's cluster over f. The registry is attached
// here, once: every verbs context, communicator, team and workload built
// on the cluster reads it from there.
func newPoint(s sweep.Spec, f *fabric.Fabric, tc telemetry.Config) *point {
	reg := newRegistry(tc)
	return &point{
		spec:    s,
		f:       f,
		cl:      cluster.New(f, cluster.Config{Verbs: verbs.Config{Metrics: reg}}),
		sampler: fabricSampler(reg, f),
	}
}

// TestbedLinkGbps is the link rate of the 188-node testbed model: every
// collective point runs on 56 Gbit/s ConnectX-3 links.
const TestbedLinkGbps = 56

// buildColl builds one collective point on the 188-node testbed model: a
// fresh fabric with TestbedLinkGbps links and jitterUS of seeded
// per-delivery noise, the point's algorithm over the first Nodes hosts,
// and the spec's operation kind, taken from the algorithm. The message
// size and the scenario's injectors are not consumed here — they
// parameterize the continuation, not the stack.
// Every collective kernel builds through here, so the quiet anchor of
// slowdown_vs_quiet cannot drift from the plain collective kernel.
func buildColl(tc telemetry.Config, s sweep.Spec, jitterUS int) (*point, error) {
	g := topology.Testbed188()
	hosts := g.Hosts()
	if s.Nodes < 1 || s.Nodes > len(hosts) {
		return nil, fmt.Errorf("harness: nodes must be in [1,%d]", len(hosts))
	}
	fcfg := fabric.Config{
		LinkBandwidth: TestbedLinkGbps * 1e9 / 8,
		ReorderJitter: sim.Time(jitterUS) * sim.Microsecond,
	}
	pt := newPoint(s, fabric.New(sim.NewEngine(s.Seed), g, fcfg), tc)
	alg, err := registry.New(pt.cl, s.Algorithm, registry.Options{
		Hosts: hosts[:s.Nodes],
		Coll:  coll.Config{ChunkBytes: s.ChunkSize},
	})
	if err != nil {
		return nil, err
	}
	pt.alg, pt.spec.Op = alg, string(alg.Kind())
	return pt, nil
}

// op is the collective operation a spec asks of this point.
func (pt *point) op(s sweep.Spec) collective.Op {
	return collective.Op{Kind: collective.Kind(pt.spec.Op), Bytes: s.MsgBytes}
}

// snapshot closes the point: it carries the engine's event counts onto rec
// as metrics when rec is not nil, then runs the end-of-point collection
// pass — engine counters, fabric channel counters, transport counters —
// and returns the metric snapshot. Without a registry it yields nil.
func (pt *point) snapshot(rec *sweep.Record) *telemetry.Snapshot {
	eng := pt.f.Engine()
	reg := pt.cl.Metrics()
	engineCounts(rec, reg, eng.Executed, eng.Scheduled)
	if reg == nil {
		return nil
	}
	pt.f.CollectTelemetry(reg)
	pt.cl.CollectTelemetry()
	return reg.Snapshot()
}
