package harness

import (
	"fmt"
	"reflect"

	"repro/internal/cluster"
	"repro/internal/coll"
	"repro/internal/collective"
	"repro/internal/core"
	"repro/internal/fabric"
	"repro/internal/registry"
	"repro/internal/sim"
	"repro/internal/snap"
	"repro/internal/sweep"
	"repro/internal/telemetry"
	"repro/internal/topology"
	"repro/internal/verbs"
	"repro/internal/workload"
)

// Every simulated grid point has one shape: an Env-parameterized build
// constructs the model stack and stops at construction quiescence, and a
// run continuation executes the point on it. The sweep executor runs
// build → run per point; the traced runs are the same build under a
// tracing Env; and when a manifest sets warm_start the executor shares one
// built stack between the points that construct it identically, forking
// it per point.

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
	// partitioned reports whether the fabric runs the partitioned
	// pipeline (the partition gate allowed it and the fabric agreed).
	partitioned bool
}

// buildColl builds one collective point on the 188-node testbed model: the
// operation kind (derived from the algorithm name when the Op axis is
// unused), a fresh fabric with linkGbps links (zero: the testbed's 56
// Gbit/s ConnectX-3) and jitterUS of seeded per-delivery noise, and the
// point's algorithm over the first Nodes hosts. The message size and the
// scenario's injectors are deliberately NOT consumed here — they
// parameterize the continuation, not the stack — which is what lets one
// built stack serve a whole size sweep or scenario row. Every collective
// kernel and trace builds through here, so the quiet anchor of
// slowdown_vs_quiet cannot drift from the plain collective kernel.
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
	pt.f = fabric.New(e.newEngine(s.Seed, g, fcfg), g, fcfg)
	pt.reg = e.newRegistry()
	pt.cl = cluster.New(pt.f, cluster.Config{Verbs: verbs.Config{Metrics: pt.reg}})
	pt.partitioned = e.partitions(s, jitterUS) && pt.f.EnablePartition()
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

// roots are the model objects a snapshot of this point must capture; the
// engine is captured natively.
func (pt *point) roots() []any {
	return []any{pt.f, pt.cl, pt.alg, pt.w, pt.reg, pt.sampler}
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

// kernel is a simulated experiment kind in the executor's (key, build,
// run) form. The continuation must read the point's identity (size, seed,
// scenario) from the spec it is handed, never from the point: on a shared
// stack the point was built for a different spec of the same key.
type kernel struct {
	key   func(sweep.Spec) string
	build func(sweep.Spec) (*point, error)
	run   func(*point, sweep.Spec) (sweep.Record, error)
}

func (k kernel) Key(s sweep.Spec) string { return k.key(s) }

func (k kernel) Build(s sweep.Spec) (sweep.Stack, error) {
	pt, err := k.build(s)
	if err != nil {
		return nil, err
	}
	return &stack{pt: pt, run: k.run}, nil
}

// stack is a built point bound to its continuation, with the fork point
// once the executor shares it.
type stack struct {
	pt   *point
	run  func(*point, sweep.Spec) (sweep.Record, error)
	fork *warmFork
}

func (st *stack) Capture() { st.fork = captureFork(st.pt.f.Engine(), st.pt.roots()...) }

func (st *stack) Run(s sweep.Spec) (sweep.Record, error) {
	if st.fork != nil {
		st.fork.fork(s.Seed)
	}
	s.Op = st.pt.spec.Op // equal keys resolve to the same operation kind
	return st.run(st.pt, s)
}

// Bytes reports the fork point's size: engine snapshot plus captured model
// regions (the informational snapshot-bytes perf metric).
func (st *stack) Bytes() int { return st.fork.bytes() }

// Sharing a stack: a fork rewinds the engine (clock, counters, queue, RNG
// tree) via sim.Snapshot, rewinds every model object in place via
// internal/snap, and reseeds the RNG tree to the point seed, so the forked
// continuation is bit-for-bit the run a fresh build with that seed would
// produce. Construction dominates short points (the 188-host testbed stack
// costs more to build than a 64 KiB collective costs to run), which is
// where the sweep-level speedup comes from.

// modelSnapConfig lists the pointer-target types the reflective capture
// must not follow: immutable shared structure (the topology graph, routing
// tables, multicast trees — built once, never mutated) and the engine,
// whose state is captured natively by sim.Snapshot. Byte slices are
// declared bulk payload: message and staging buffers carry tens of
// megabytes whose content never influences event timing (the simulation
// times sizes, not bytes; the harness never enables data verification),
// and excluding them keeps a fork proportional to the protocol state that
// actually changes.
func modelSnapConfig() snap.Config {
	return snap.Config{
		Skip: []reflect.Type{
			reflect.TypeOf(sim.Engine{}),
			reflect.TypeOf(topology.Graph{}),
			reflect.TypeOf(topology.RoutingTable{}),
			reflect.TypeOf(topology.MulticastTree{}),
		},
		Payload: []reflect.Type{reflect.TypeOf(byte(0))},
	}
}

// warmFork couples the engine snapshot (serial or sharded group) with the
// reflective model-state capture: the complete fork point of one built
// stack.
type warmFork struct {
	eng   *sim.Engine
	snap  *sim.Snapshot
	gsnap *sim.GroupSnapshot
	state *snap.State
}

// captureFork snapshots the stack at its current state. Pending event
// payloads join the capture roots: an in-flight payload is reachable only
// from the event queue, yet the continuation will mutate it.
func captureFork(eng *sim.Engine, roots ...any) *warmFork {
	w := &warmFork{eng: eng}
	if g := eng.Group(); g != nil {
		w.gsnap = g.Snapshot()
		roots = append(roots, w.gsnap.Payloads()...)
	} else {
		w.snap = eng.Snapshot()
		roots = append(roots, w.snap.Payloads()...)
	}
	w.state = snap.Capture(modelSnapConfig(), roots...)
	return w
}

// rewind restores engine and model back to the capture on the SAME
// timeline: the RNG tree rewinds to its captured state, so re-running the
// continuation replays the original execution exactly.
func (w *warmFork) rewind() {
	if g := w.eng.Group(); g != nil {
		g.Restore(w.gsnap)
	} else {
		w.eng.Restore(w.snap)
	}
	w.state.Restore()
}

// fork rewinds engine and model back to the capture, then reseeds the RNG
// tree to the point seed — the same states a fresh build with that seed
// produces (the fabric's split child is the engine root's only
// construction-time consumer, which is what makes reseed-by-split-replay
// exact).
func (w *warmFork) fork(seed uint64) {
	w.rewind()
	if g := w.eng.Group(); g != nil {
		g.Reseed(seed)
	} else {
		w.eng.Reseed(seed)
	}
}

// bytes reports the fork point's size (informational perf metric).
func (w *warmFork) bytes() int {
	n := w.state.Bytes()
	if w.gsnap != nil {
		n += w.gsnap.Bytes()
	} else {
		n += w.snap.Bytes()
	}
	return n
}
