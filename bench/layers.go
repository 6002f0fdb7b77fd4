package main

import (
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"time"

	"repro"
	"repro/internal/fabric"
	"repro/internal/sim"
	"repro/internal/snap"
	"repro/internal/topology"
	"repro/internal/verbs"
)

// layers runs the per-layer pass that does not depend on the workload: the
// facade mirror of each workload's representative point, the layer drivers
// with no upper layer attached, and the ratios between them.
type layers struct {
	tr  tracer
	set map[string]*value
	// manifestSeed goes into generated manifests (0 = kind default); seed is
	// the same value made non-zero for directly built engines and systems.
	manifestSeed, seed uint64
	tmp                string
	stderr             io.Writer
}

func runLayers(o options, tmp string, set map[string]*value, stderr io.Writer) ([]span, error) {
	l := &layers{set: set, manifestSeed: o.seed, seed: max(o.seed, 1), tmp: tmp, stderr: stderr}
	root := l.tr.begin("layers", "bench.layers")
	err := errors.Join(
		l.mirrorBuild(), l.mirrorCore(), l.mirrorColl(), l.mirrorWorkload(), l.mirrorScenario(), l.mirrorSnap(),
		l.driveSim(), l.driveFabric(), l.driveVerbs(),
		l.modeRatios(),
	)
	if err == nil && o.workload == "" && o.trace == -1 {
		l.shardsSpeedup()
	}
	l.tr.end(root)
	if err == nil {
		churn := l.set["sim.churn_events_per_sec"].Value
		l.put("stack.core_over_sim", l.set["core.events_per_sec"].Value/churn)
		l.put("stack.coll_over_sim", l.set["coll.events_per_sec"].Value/churn)
	}
	return l.tr.spans, err
}

func (l *layers) put(name string, v float64) { l.set[name] = layerValue(name, v) }

// probe is the host cost of one spanned call.
type probe struct {
	seconds float64
	mallocs uint64
}

// measure runs fn inside a span and charges it its allocations.
func (l *layers) measure(name string, fn func()) probe {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	id := l.tr.begin("", name)
	fn()
	l.tr.end(id)
	runtime.ReadMemStats(&after)
	return probe{l.tr.seconds(id), after.Mallocs - before.Mallocs}
}

// medianOf runs fn n times after a collection and returns the median cost.
func (l *layers) medianOf(n int, name string, fn func()) probe {
	var secs, mallocs []float64
	for i := 0; i < n; i++ {
		runtime.GC()
		p := l.measure(name, fn)
		secs = append(secs, p.seconds)
		mallocs = append(mallocs, float64(p.mallocs))
	}
	return probe{median(secs), uint64(median(mallocs))}
}

// --- (b) facade mirror -----------------------------------------------------------

// testbed builds the 188-host testbed the osu and chaos kinds run on, at
// the manifests' 56 Gbit/s.
func (l *layers) testbed() (*repro.System, error) {
	return repro.NewSystem(repro.SystemConfig{
		Topology: "testbed188",
		Fabric:   fabric.Config{LinkBandwidth: 7e9},
		Seed:     l.seed,
	})
}

// mirrorBuild times stack construction: the part of every sweep point
// that is not simulation.
func (l *layers) mirrorBuild() error {
	var err error
	p := l.medianOf(5, "cluster.system_build", func() { _, err = l.testbed() })
	if err != nil {
		return err
	}
	l.put("cluster.system_build_ms", p.seconds*1e3)
	l.put("cluster.system_build_allocs", float64(p.mallocs))
	return nil
}

// warmOps builds algo over the testbed's first nodes hosts and times ops
// warm operations of size bytes: the inner loop of an osu point.
func (l *layers) warmOps(prefix, newMetric, algo string, nodes, bytes, ops int) error {
	sys, err := l.testbed()
	if err != nil {
		return err
	}
	var alg repro.Algorithm
	p := l.measure(newMetric, func() {
		alg, err = repro.NewAlgorithm(sys, algo, repro.AlgorithmOptions{Hosts: sys.Hosts()[:nodes]})
	})
	if err != nil {
		return err
	}
	l.put(newMetric+"_ms", p.seconds*1e3)
	op := repro.Op{Kind: repro.Allgather, Bytes: bytes}
	if _, err := alg.Run(op); err != nil { // warm queue pairs, buffers and the event pool
		return err
	}
	var secs, mallocs, events float64
	var perOp uint64
	for i := 0; i < ops; i++ {
		runtime.GC()
		before := sys.Engine.Executed
		p := l.measure(prefix+".op", func() { _, err = alg.Run(op) })
		if err != nil {
			return err
		}
		perOp = sys.Engine.Executed - before
		secs, mallocs, events = secs+p.seconds, mallocs+float64(p.mallocs), events+float64(perOp)
	}
	l.put(prefix+".op_wall_ms", secs/float64(ops)*1e3)
	l.put(prefix+".events_per_op", float64(perOp))
	l.put(prefix+".events_per_sec", events/secs)
	l.put(prefix+".allocs_per_event", mallocs/events)
	return nil
}

// mirrorCore is mcast128's representative point: the paper's protocol
// (core, DPA pumps, UD queues, multicast replication) at 128 hosts.
func (l *layers) mirrorCore() error {
	return l.warmOps("core", "registry.new_mcast", "mcast-allgather", 128, 65536, 3)
}

// mirrorColl is ring64's: the RC point-to-point baseline at 64 hosts.
func (l *layers) mirrorColl() error {
	return l.warmOps("coll", "registry.new_ring", "ring-allgather", 64, 1<<20, 2)
}

// mirrorWorkload is train16's: one fsdp-inc step on a 16-host star,
// construction included, as each train point pays it.
func (l *layers) mirrorWorkload() error {
	var events uint64
	var err error
	p := l.medianOf(3, "workload.step", func() {
		var sys *repro.System
		var w repro.Workload
		if sys, err = repro.NewSystem(repro.SystemConfig{Topology: "star", Hosts: 16, Seed: l.seed}); err != nil {
			return
		}
		if w, err = repro.NewWorkload("fsdp-inc", repro.WorkloadConfig{Nodes: 16, Layers: 6, ShardBytes: 524288}); err != nil {
			return
		}
		_, err = sys.RunWorkload(w)
		events = sys.Engine.Executed
	})
	if err != nil {
		return err
	}
	l.put("workload.step_wall_ms", p.seconds*1e3)
	l.put("workload.events_per_step", float64(events))
	l.put("workload.allocs_per_event", float64(p.mallocs)/float64(events))
	return nil
}

// mirrorScenario is chaos32's: the same small operation on a quiet fabric
// (keyed, partitionable pipeline) and under hotspot-drop (the confined
// pipeline with overrides and drops). The scenario is armed before the
// algorithm is built, which is what keeps the fabric confined.
func (l *layers) mirrorScenario() error {
	const ops = 200
	for _, sc := range []struct{ metric, scenario string }{
		{"scenario.quiet_events_per_sec", "quiet"},
		{"scenario.lossy_events_per_sec", "hotspot-drop"},
	} {
		sys, err := l.testbed()
		if err != nil {
			return err
		}
		preset, err := repro.NewScenario(sc.scenario)
		if err != nil {
			return err
		}
		var act *repro.ActiveScenario
		l.measure("scenario.apply", func() { act = sys.ApplyScenario(preset, l.seed) })
		alg, err := repro.NewAlgorithm(sys, "mcast-allgather", repro.AlgorithmOptions{Hosts: sys.Hosts()[:32]})
		if err != nil {
			return err
		}
		op := repro.Op{Kind: repro.Allgather, Bytes: 4096}
		if _, err := alg.Run(op); err != nil {
			return err
		}
		before := sys.Engine.Executed
		p := l.measure("scenario.ops", func() {
			for i := 0; i < ops && err == nil; i++ {
				_, err = alg.Run(op)
			}
		})
		act.Stop()
		if err != nil {
			return err
		}
		l.put(sc.metric, float64(sys.Engine.Executed-before)/p.seconds)
	}
	return nil
}

// mirrorSnap times the warm-start machinery on a built 32-host stack:
// engine snapshot, reflective model capture, and rewind after one
// operation has dirtied the state.
func (l *layers) mirrorSnap() error {
	sys, err := l.testbed()
	if err != nil {
		return err
	}
	alg, err := repro.NewAlgorithm(sys, "mcast-allgather", repro.AlgorithmOptions{Hosts: sys.Hosts()[:32]})
	if err != nil {
		return err
	}
	cfg := snap.Config{
		Skip: []reflect.Type{
			reflect.TypeOf(sim.Engine{}), reflect.TypeOf(topology.Graph{}),
			reflect.TypeOf(topology.RoutingTable{}), reflect.TypeOf(topology.MulticastTree{}),
		},
		Payload: []reflect.Type{reflect.TypeOf(byte(0))},
	}
	var snapshots, captures, restores []float64
	var bytes int
	for i := 0; i < 5; i++ {
		var es *sim.Snapshot
		var st *snap.State
		snapshots = append(snapshots, l.measure("sim.snapshot", func() { es = sys.Engine.Snapshot() }).seconds)
		captures = append(captures, l.measure("snap.capture", func() { st = snap.Capture(cfg, sys.Fabric, sys.Cluster, alg) }).seconds)
		bytes = st.Bytes()
		if _, err := alg.Run(repro.Op{Kind: repro.Allgather, Bytes: 4096}); err != nil {
			return err
		}
		restores = append(restores, l.measure("snap.restore", func() {
			sys.Engine.Restore(es)
			st.Restore()
		}).seconds)
	}
	l.put("sim.snapshot_ms", median(snapshots)*1e3)
	l.put("snap.capture_ms", median(captures)*1e3)
	l.put("snap.restore_ms", median(restores)*1e3)
	l.put("snap.bytes", float64(bytes))
	return nil
}

// --- (c) layer drivers -----------------------------------------------------------

// driverSeconds is how long each layer driver repeats its batch.
const driverSeconds = 0.3

// drive repeats batch until driverSeconds have passed, after one untimed
// warm-up batch, and returns the batches run and their total cost.
func (l *layers) drive(name string, batch func()) (int, probe) {
	batch()
	runtime.GC()
	n := 0
	p := l.measure(name, func() {
		for start := time.Now(); sinceSeconds(start) < driverSeconds; n++ {
			batch()
		}
	})
	return n, p
}

// rearm is a self-rearming event: each firing schedules the next after a
// delay drawn from [base, base+spread) by a cheap LCG, until the budget is
// spent.
type rearm struct {
	state        uint64
	base, spread sim.Time
	remaining    *int
}

func (h *rearm) OnEvent(e *sim.Engine, _ sim.Handle, _ uint64, _ int, _ any) {
	if *h.remaining <= 0 {
		return
	}
	*h.remaining--
	h.state = h.state*6364136223846793005 + 1442695040888963407
	e.AfterHandler(h.base+sim.Time(h.state>>33)%h.spread, h, 0, 0, nil)
}

// churn fires events through chains concurrent self-rearming handlers.
func (l *layers) churn(name string, chains int, base, spread sim.Time) (eventsPerSec, allocsPerEvent float64) {
	const events = 1 << 16
	eng := sim.NewEngine(l.seed)
	remaining := 0
	hs := make([]*rearm, chains)
	for i := range hs {
		hs[i] = &rearm{state: uint64(i) + 1, base: base, spread: spread, remaining: &remaining}
	}
	before := eng.Executed
	_, p := l.drive(name, func() {
		remaining = events
		for _, h := range hs {
			eng.AfterHandler(1, h, 0, 0, nil)
		}
		eng.Run()
	})
	fired := float64(eng.Executed - before)
	return fired / p.seconds, float64(p.mallocs) / fired
}

// driveSim drives the engine alone. The calendar window is 256 buckets of
// 512 ns = 131 µs: churn stays inside it (the shape of fabric hops and
// send completions), far_heap schedules beyond it (retransmission timers),
// timer_rearm arms and cancels without ever firing.
func (l *layers) driveSim() error {
	rate, allocs := l.churn("sim.churn", 1, 0, 4096)
	l.put("sim.churn_events_per_sec", rate)
	l.put("sim.churn_allocs_per_event", allocs)
	rate, _ = l.churn("sim.far_heap", 1024, 200*sim.Microsecond, 100*sim.Microsecond)
	l.put("sim.far_heap_events_per_sec", rate)

	const timers = 1 << 14
	eng := sim.NewEngine(l.seed)
	h := &rearm{}
	n, p := l.drive("sim.timer_rearm", func() {
		for i := 0; i < timers; i++ {
			eng.AfterHandler(300*sim.Microsecond, h, 0, 0, nil).Cancel()
		}
	})
	l.put("sim.timer_rearm_per_sec", float64(n*timers)/p.seconds)
	return nil
}

// driveFabric drives engine + fabric on an 8-host star: unicast packets
// crossing two channels each, and multicast packets the hub replicates to
// seven receivers.
func (l *layers) driveFabric() error {
	const packets = 1024
	eng := sim.NewEngine(l.seed)
	g := topology.Star(8)
	f := fabric.New(eng, g, fabric.Config{})
	hosts := g.Hosts()
	mtu := f.MaxPayload()
	n, p := l.drive("fabric.unicast", func() {
		for i := 0; i < packets; i++ {
			f.InjectBackground(hosts[i%len(hosts)], hosts[(i+3)%len(hosts)], mtu, uint64(i&7))
		}
		eng.Run()
	})
	sent := float64(n * packets)
	l.put("fabric.unicast_hops_per_sec", 2*sent/p.seconds)
	l.put("fabric.allocs_per_packet", float64(p.mallocs)/sent)

	gid, err := f.CreateGroup(g.Switches()[0], hosts)
	if err != nil {
		return err
	}
	delivered := 0
	nics := make([]*fabric.NIC, len(hosts))
	for i, h := range hosts {
		nics[i] = f.AttachNIC(h)
		nics[i].Deliver = func(*fabric.Packet) { delivered++ }
		if err := nics[i].AttachGroup(gid); err != nil {
			return err
		}
	}
	n, p = l.drive("fabric.mcast", func() {
		for i := 0; i < packets; i++ {
			nics[i%len(nics)].Inject(&fabric.Packet{Group: gid, Flow: uint64(i & 7), PayloadBytes: mtu})
		}
		eng.Run()
	})
	// delivered counts the untimed warm-up batch too: scale it out.
	l.put("fabric.mcast_deliveries_per_sec", float64(delivered)*float64(n)/float64(n+1)/p.seconds)
	return nil
}

// driveVerbs drives engine + fabric + verbs between two hosts of a star:
// UD datagrams into a receive queue kept at its full depth (the multicast
// fast path's queue discipline), and RC writes with acknowledgements.
func (l *layers) driveVerbs() error {
	const batch = 1024
	eng := sim.NewEngine(l.seed)
	g := topology.Star(8)
	f := fabric.New(eng, g, fabric.Config{})
	hosts := g.Hosts()
	a, b := verbs.NewContext(f, hosts[0], verbs.Config{}), verbs.NewContext(f, hosts[1], verbs.Config{})
	mtu := a.MTU()

	cqA, cqB := &verbs.CQ{}, &verbs.CQ{}
	qa, qb := a.NewQP(verbs.UD, cqA, cqA, 0), b.NewQP(verbs.UD, cqB, cqB, 0)
	src, dst := a.RegisterMR(mtu), b.RegisterMR(mtu)
	for qb.PostRecv(0, dst, 0, mtu) { // fill the receive queue to rqDepth
	}
	var repost time.Duration
	var lost int
	n, p := l.drive("verbs.ud", func() {
		for i := 0; i < batch; i++ {
			qa.PostSendUD(uint64(i), verbs.Unicast(b.Host, qb.N), src, 0, mtu, uint32(i), false)
		}
		eng.Run()
		start := time.Now()
		for i := 0; i < batch; i++ {
			if _, ok := cqB.Poll(); !ok || !qb.PostRecv(0, dst, 0, mtu) {
				lost++
			}
		}
		repost += time.Since(start)
	})
	if lost != 0 {
		return fmt.Errorf("verbs UD driver: %d datagrams not received or not reposted", lost)
	}
	// repost includes the warm-up batch, msgs does not: add it back.
	msgs := float64(n * batch)
	l.put("verbs.ud_msgs_per_sec", msgs/p.seconds)
	l.put("verbs.allocs_per_msg", float64(p.mallocs)/msgs)
	l.put("verbs.postrecv_ns", float64(repost.Nanoseconds())/(msgs+batch))

	const rcBatch, rcBytes = 64, 64 << 10
	cqC, cqD := &verbs.CQ{}, &verbs.CQ{}
	qc, qd := a.NewQP(verbs.RC, cqC, cqC, 0), b.NewQP(verbs.RC, cqD, cqD, 0)
	qc.Connect(verbs.Unicast(b.Host, qd.N))
	qd.Connect(verbs.Unicast(a.Host, qc.N))
	rsrc, rdst := a.RegisterMR(rcBytes), b.RegisterMR(rcBytes)
	n, p = l.drive("verbs.rc", func() {
		for i := 0; i < rcBatch; i++ {
			qc.PostWriteRC(uint64(i), rsrc, 0, rcBytes, rdst.Key, 0, uint32(i), true)
		}
		eng.Run()
		for i := 0; i < rcBatch; i++ {
			_, okSend := cqC.Poll()
			_, okRecv := cqD.Poll()
			if !okSend || !okRecv {
				lost++
			}
		}
	})
	if lost != 0 {
		return fmt.Errorf("verbs RC driver: %d writes not completed", lost)
	}
	l.put("verbs.rc_msgs_per_sec", float64(n*rcBatch)/p.seconds)
	return nil
}

// --- (d) execution-mode ratios ---------------------------------------------------

// telemetryManifest is the 16-host multicast point telemetry.overhead_frac
// is measured on.
const telemetryManifest = `{
  "kind": "osu",
  "grid": {"algorithms": ["mcast-allgather"], "nodes": [16], "sizes": [65536, 262144]},
  "workers": 1,
  "osu": {"iters": 5},
  "output": {"json": "telemetry16.json"}
}
`

// timedRun is the wall-clock of one `repro run` with extra flags, after a
// collection so no run pays for its predecessor's garbage.
func (l *layers) timedRun(name, manifestPath string, flags ...string) (float64, error) {
	args := append([]string{"run", "-o", filepath.Join(l.tmp, "modes")}, flags...)
	args = append(args, manifestPath)
	runtime.GC()
	code := 0
	p := l.measure(name, func() { code = reproCmd(l.stderr, args...) })
	if code != 0 {
		return 0, fmt.Errorf("repro %v exited %d", args, code)
	}
	return p.seconds, nil
}

// ratio runs the manifest once to warm up, then under each flag set, and
// returns base's wall divided by other's.
func (l *layers) ratio(name, manifestPath string, base, other []string) (float64, error) {
	if _, err := l.timedRun(name+".warmup", manifestPath, base...); err != nil {
		return 0, err
	}
	t1, err := l.timedRun(name+".base", manifestPath, base...)
	if err != nil {
		return 0, err
	}
	t2, err := l.timedRun(name+".other", manifestPath, other...)
	if err != nil {
		return 0, err
	}
	return t1 / t2, nil
}

// modeRatios measures what the opt-in execution modes buy or cost on the
// user path: the sweep worker pool on train16's four points, and the
// telemetry registry on a small multicast sweep.
func (l *layers) modeRatios() error {
	train, err := generateManifest(l.tmp, "train16", l.manifestSeed)
	if err != nil {
		return err
	}
	speedup, err := l.ratio("sweep.pool", train, []string{"-workers", "1"}, []string{"-workers", "2"})
	if err != nil {
		return err
	}
	l.put("sweep.pool_speedup_w2", speedup)

	tel := filepath.Join(l.tmp, "telemetry16.json")
	if err := os.WriteFile(tel, []byte(telemetryManifest), 0o644); err != nil {
		return err
	}
	r, err := l.ratio("telemetry", tel, nil, []string{"-telemetry"})
	if err != nil {
		return err
	}
	l.put("telemetry.overhead_frac", 1/r-1)
	return nil
}

// shardsSpeedup is mcast128 at -shards 1 over -shards 2: what the
// conservative-parallel engine buys on the one large point where it can
// matter. It runs only in the whole-ledger mode (two extra mcast128 runs)
// and is omitted, not failed, when `repro run` rejects the flag.
func (l *layers) shardsSpeedup() {
	path, err := generateManifest(l.tmp, "mcast128", l.manifestSeed)
	if err != nil {
		return
	}
	speedup, err := l.ratio("sim.shards2", path, []string{"-shards", "1"}, []string{"-shards", "2"})
	if err != nil {
		fmt.Fprintf(l.stderr, "bench: sim.shards2_speedup omitted: %v\n", err)
		return
	}
	l.put("sim.shards2_speedup", speedup)
}
