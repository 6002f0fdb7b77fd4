package fabric

import (
	"testing"

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

// TestWarmReduceChunkAllocGate: a reduction chunk — one contribution per
// member, all but the last absorbed at the root, the last forwarded as the
// result — recycles every train and packet, so steady state it allocates
// nothing.
func TestWarmReduceChunkAllocGate(t *testing.T) {
	eng, f, rg, nics := reduceFixture(t, topology.Star(4))
	owner := nics[1]
	owner.Deliver = func(*Packet) {}
	chunk := uint64(0)
	pkts := make([]Packet, len(nics))
	reduce := func() {
		for i, nic := range nics {
			pkts[i] = Packet{Dst: owner.Host, Group: NoGroup, PayloadBytes: 1024, Reduce: rg, ReduceChunk: chunk}
			nic.Inject(&pkts[i])
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
