package fabric

import (
	"testing"
	"time"

	"repro/internal/sim"
	"repro/internal/topology"
)

// benchFabric builds a small star fabric with background flows between
// every host pair direction, the pure fabric+engine hot path (no verbs).
func benchFabric(b *testing.B) (*sim.Engine, *Fabric, []topology.NodeID) {
	b.Helper()
	eng := sim.NewEngine(1)
	g := topology.Star(8)
	f := New(eng, g, Config{})
	return eng, f, g.Hosts()
}

const benchPackets = 1024

// BenchmarkFabricHop measures the per-hop cost of the transmit/arrive path:
// one iteration injects benchPackets MTU packets, each crossing two
// channels (host -> hub -> host), and drains the engine. The acceptance
// metric is allocs/op: post-overhaul the only allocation left on this path
// is the *Packet itself (events are pooled, arrivals closure-free).
func BenchmarkFabricHop(b *testing.B) {
	eng, f, hosts := benchFabric(b)
	mtu := f.MaxPayload()
	inject := func() {
		for i := 0; i < benchPackets; i++ {
			src := hosts[i%len(hosts)]
			dst := hosts[(i+3)%len(hosts)]
			f.InjectBackground(src, dst, mtu, uint64(i&7))
		}
		eng.Run()
	}
	inject() // warm the event pool and channel bucket slices
	start := eng.Executed
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		inject()
	}
	b.StopTimer()
	hops := float64(b.N) * benchPackets * 2
	b.ReportMetric(hops/b.Elapsed().Seconds(), "hops/sec")
	b.ReportMetric(float64(eng.Executed-start)/b.Elapsed().Seconds(), "events/sec")
}

// hopInjector is the closure-free injection handler for the sharded hop
// bench: obj is the preallocated *Packet to hand to the NIC.
type hopInjector struct{ nic *NIC }

func (h *hopInjector) OnEvent(_ *sim.Engine, _ sim.Handle, _ uint64, _ int, obj any) {
	h.nic.Inject(obj.(*Packet))
}

// shardedHopRun is one BenchmarkFabricHopSharded workload: a star fabric
// partitioned at the given shard count, every host streaming MTU packets
// to a fixed offset peer through its own NIC (InjectBackground is refused
// on a partitioned fabric — the global packet counter is exactly the kind
// of shared state partitioning removes). Packets are preallocated and
// reused across iterations so the measurement is the event pipeline, not
// the garbage collector. Returns the injector and the executed-event
// reader.
func shardedHopRun(b *testing.B, shards, hosts, packets int) (func(), func() uint64) {
	b.Helper()
	g := topology.Star(hosts)
	var eng *sim.Engine
	if shards == 1 {
		eng = sim.NewEngine(1)
	} else {
		_, eng = NewShardedEngine(1, g, Config{}, shards)
	}
	f := New(eng, g, Config{})
	if !f.EnablePartition() {
		b.Fatalf("shards=%d: EnablePartition refused a pristine fabric", shards)
	}
	ids := g.Hosts()
	nics := make([]*NIC, len(ids))
	injs := make([]*hopInjector, len(ids))
	for i, h := range ids {
		nics[i] = f.AttachNIC(h)
		nics[i].Deliver = func(*Packet) {}
		injs[i] = &hopInjector{nic: nics[i]}
	}
	perHost := packets / len(ids)
	mtu := f.MaxPayload()
	pkts := make([]Packet, len(ids)*perHost)
	inject := func() {
		// Injections land on each host's own shard at the aligned clock;
		// serialization on the per-host uplinks spreads the hops across
		// the epoch windows. Every iteration drains completely, so the
		// packet structs are free to reuse (reset — the fabric stamps
		// Src/ID and hop state in place).
		for i := range nics {
			hostEng := f.HostEngine(ids[i])
			now := hostEng.Now()
			dst := ids[(i+3)%len(ids)]
			for k := 0; k < perHost; k++ {
				p := &pkts[i*perHost+k]
				*p = Packet{Dst: dst, Group: NoGroup, Flow: uint64(k & 7), PayloadBytes: mtu}
				hostEng.AtHandler(now, injs[i], 0, 0, p)
			}
		}
		eng.Run()
	}
	executed := func() uint64 {
		if g := eng.Group(); g != nil {
			return g.ExecutedTotal()
		}
		return eng.Executed
	}
	return inject, executed
}

// BenchmarkFabricHopSharded measures the partitioned pipeline's multi-core
// throughput on the pure fabric hot path: 64 hosts streaming through a
// 4-shard partition, against an untimed single-shard partitioned reference
// of the same workload. events/sec/core and speedup are the scaling
// metrics; hops/sec is comparable with BenchmarkFabricHop.
func BenchmarkFabricHopSharded(b *testing.B) {
	const (
		shards  = 4
		hosts   = 256
		packets = 16384
	)
	inject, executed := shardedHopRun(b, shards, hosts, packets)
	inject() // warm event pools, mailboxes and channel bucket slices
	start := executed()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		inject()
	}
	b.StopTimer()
	parRate := float64(executed()-start) / b.Elapsed().Seconds()

	serialInject, serialExecuted := shardedHopRun(b, 1, hosts, packets)
	serialInject()
	serialStart := serialExecuted()
	wall := time.Now()
	for i := 0; i < b.N; i++ {
		serialInject()
	}
	serialRate := float64(serialExecuted()-serialStart) / time.Since(wall).Seconds()

	hops := float64(b.N) * packets * 2
	b.ReportMetric(hops/b.Elapsed().Seconds(), "hops/sec")
	b.ReportMetric(parRate, "events/sec")
	b.ReportMetric(parRate/shards, "events/sec/core")
	b.ReportMetric(parRate/serialRate, "speedup")
}

// TestFabricHopAllocGate is the satellite AllocsPerRun gate on the
// closure-free fabric hot path: steady-state, a background packet costs
// nothing — the packet comes from the fabric's pool, the two hop events and
// the delivery from the engine's.
func TestFabricHopAllocGate(t *testing.T) {
	eng := sim.NewEngine(1)
	g := topology.Star(4)
	f := New(eng, g, Config{})
	hosts := g.Hosts()
	mtu := f.MaxPayload()
	send := func() {
		f.InjectBackground(hosts[0], hosts[2], mtu, 1)
		eng.Run()
	}
	// The engine's calendar is a ring indexed by absolute bucket number: a
	// slot's backing array is first appended to when virtual time reaches it,
	// once per lap (262 µs), and a send moves the clock 0.8 µs. Warm many laps
	// so the gate measures the hop, not the calendar filling in.
	for eng.Now() < 4*sim.Millisecond {
		send()
	}
	if avg := testing.AllocsPerRun(200, send); avg != 0 {
		t.Fatalf("fabric hop allocates %.2f objects per packet, want 0", avg)
	}
}

// TestFabricOnWarmGraphAllocGate: the routing table belongs to the graph,
// so the second fabric on a graph allocates its own channels, NIC table and
// pool and nothing per (switch, host) — BuildRouting alone was 19 569
// objects per fabric on the testbed.
func TestFabricOnWarmGraphAllocGate(t *testing.T) {
	g := topology.Testbed188()
	if a, b := New(sim.NewEngine(1), g, Config{}), New(sim.NewEngine(2), g, Config{}); a.rt != b.rt || a.rt != g.Routing() {
		t.Fatal("two fabrics on one graph hold different routing tables")
	}
	eng := sim.NewEngine(1)
	if avg := testing.AllocsPerRun(20, func() { New(eng, g, Config{}) }); avg > 64 {
		t.Fatalf("fabric.New on a warm Testbed188 allocates %.0f objects, want <= 64", avg)
	}
}

// TestWarmReduceChunkAllocGate: a reduction chunk — one pool-born
// contribution per member, all but the last absorbed at the root, the last
// forwarded as the result — recycles every packet, so steady state it
// allocates nothing.
func TestWarmReduceChunkAllocGate(t *testing.T) {
	eng, f, rg, nics := reduceFixture(t, topology.Star(4))
	owner := nics[1]
	owner.Deliver = func(*Packet) {}
	chunk := uint64(0)
	reduce := func() {
		for _, nic := range nics {
			pkt := nic.NewPacket()
			pkt.Dst, pkt.PayloadBytes = owner.Host, 1024
			pkt.Reduce, pkt.ReduceChunk = rg, chunk
			nic.Inject(pkt)
		}
		chunk++
		eng.Run()
	}
	for eng.Now() < 4*sim.Millisecond { // more than one lap of the calendar ring, see above
		reduce()
	}
	if avg := testing.AllocsPerRun(200, reduce); avg != 0 {
		t.Fatalf("warm reduction chunk allocates %.2f objects, want 0", avg)
	}
	if got := f.ReducedChunks(rg); got != chunk {
		t.Fatalf("ReducedChunks = %d, want %d", got, chunk)
	}
}
