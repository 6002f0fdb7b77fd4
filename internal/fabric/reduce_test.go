package fabric

import (
	"testing"

	"repro/internal/sim"
	"repro/internal/topology"
)

// reduceFixture wires n hosts on the given graph with a reduce group
// rooted at the top-level switch.
func reduceFixture(t *testing.T, g *topology.Graph) (*sim.Engine, *Fabric, ReduceGroupID, []*NIC) {
	t.Helper()
	eng := sim.NewEngine(3)
	f := New(eng, g, Config{})
	rg, err := f.CreateReduceGroup(g.TopSwitches()[0], g.Hosts())
	if err != nil {
		t.Fatal(err)
	}
	var nics []*NIC
	for _, h := range g.Hosts() {
		nics = append(nics, f.AttachNIC(h))
	}
	return eng, f, rg, nics
}

func TestReduceAggregatesAtRoot(t *testing.T) {
	g := topology.Star(4)
	eng, f, rg, nics := reduceFixture(t, g)
	delivered := 0
	nics[2].Deliver = func(p *Packet) { delivered++ }
	// All four members contribute chunk 7, destined for host index 2.
	for _, nic := range nics {
		nic.Inject(&Packet{
			Dst: nics[2].Host, Group: NoGroup,
			Reduce: rg, ReduceChunk: 7, PayloadBytes: 4096,
		})
	}
	eng.Run()
	if delivered != 1 {
		t.Fatalf("owner received %d results, want exactly 1 reduced packet", delivered)
	}
	if f.ReducedChunks(rg) != 1 {
		t.Fatalf("ReducedChunks = %d", f.ReducedChunks(rg))
	}
}

func TestReducePartialContributionsHeld(t *testing.T) {
	g := topology.Star(3)
	eng, f, rg, nics := reduceFixture(t, g)
	delivered := 0
	nics[0].Deliver = func(p *Packet) { delivered++ }
	// Only 2 of 3 contributions arrive: no result may be emitted.
	nics[1].Inject(&Packet{Dst: nics[0].Host, Group: NoGroup, Reduce: rg, ReduceChunk: 1, PayloadBytes: 64})
	nics[2].Inject(&Packet{Dst: nics[0].Host, Group: NoGroup, Reduce: rg, ReduceChunk: 1, PayloadBytes: 64})
	eng.Run()
	if delivered != 0 {
		t.Fatalf("result emitted with %d/3 contributions", 2)
	}
	if f.ReducedChunks(rg) != 0 {
		t.Fatal("partial chunk counted as reduced")
	}
	// The third contribution completes it.
	nics[0].Inject(&Packet{Dst: nics[0].Host, Group: NoGroup, Reduce: rg, ReduceChunk: 1, PayloadBytes: 64})
	eng.Run()
	if delivered != 1 {
		t.Fatalf("delivered = %d after final contribution", delivered)
	}
}

func TestReduceChunksIndependent(t *testing.T) {
	g := topology.Star(2)
	eng, f, rg, nics := reduceFixture(t, g)
	delivered := map[uint64]int{}
	nics[0].Deliver = func(p *Packet) { delivered[p.ReduceChunk]++ }
	for chunk := uint64(0); chunk < 10; chunk++ {
		for _, nic := range nics {
			nic.Inject(&Packet{Dst: nics[0].Host, Group: NoGroup, Reduce: rg, ReduceChunk: chunk, PayloadBytes: 256})
		}
	}
	eng.Run()
	if len(delivered) != 10 {
		t.Fatalf("distinct chunks delivered = %d, want 10", len(delivered))
	}
	for c, n := range delivered {
		if n != 1 {
			t.Fatalf("chunk %d delivered %d times", c, n)
		}
	}
	if f.ReducedChunks(rg) != 10 {
		t.Fatalf("ReducedChunks = %d", f.ReducedChunks(rg))
	}
}

func TestReduceRoutesUpFatTree(t *testing.T) {
	// On a two-level tree the contributions must climb via the reduction
	// tree's parent ports to the spine root, and the result must descend
	// by unicast — never multiplying traffic.
	g, err := topology.TwoLevelFatTree(topology.FatTreeSpec{Hosts: 8, HostsPerLeaf: 4, Spines: 2})
	if err != nil {
		t.Fatal(err)
	}
	eng, f, rg, nics := reduceFixture(t, g)
	owner := nics[7]
	delivered := 0
	owner.Deliver = func(p *Packet) { delivered++ }
	for _, nic := range nics {
		nic.Inject(&Packet{Dst: owner.Host, Group: NoGroup, Reduce: rg, ReduceChunk: 3, PayloadBytes: 4096})
	}
	eng.Run()
	if delivered != 1 {
		t.Fatalf("delivered = %d", delivered)
	}
	// Traffic accounting: 8 contributions cross their host uplinks (8
	// wire units), climb leaf->spine (2 leaves x 1 trunk crossing each,
	// aggregated per switch? no — reduction happens at the ROOT only, so
	// every contribution crosses its leaf's uplink too: 8 more), and one
	// result descends spine->leaf->host (2). Total = 8 + 8 + 2 = 18 units.
	wire := uint64(4096 + f.Config().HeaderBytes)
	if got := f.TotalWireBytes(); got != 18*wire {
		t.Fatalf("total wire bytes = %d, want %d", got, 18*wire)
	}
}

func TestReduceSendPathDominatesOnINCPattern(t *testing.T) {
	// Reproduce Insight 2 at the fabric level: P contributions up per
	// shard, one result down.
	g := topology.Star(4)
	eng, f, rg, nics := reduceFixture(t, g)
	for i := range nics {
		nics[i].Deliver = func(p *Packet) {}
	}
	const shards, chunks = 4, 8
	for s := 0; s < shards; s++ {
		owner := nics[s]
		for c := 0; c < chunks; c++ {
			for _, nic := range nics {
				nic.Inject(&Packet{
					Dst: owner.Host, Group: NoGroup,
					Reduce: rg, ReduceChunk: uint64(s*chunks + c), PayloadBytes: 4096,
				})
			}
		}
	}
	eng.Run()
	sw := g.Switches()[0]
	up := f.ChannelStats(nics[0].Host, sw).Bytes
	down := f.ChannelStats(sw, nics[0].Host).Bytes
	if up != 4*down {
		t.Fatalf("up/down = %d/%d, want exactly 4x (P contributions per result)", up, down)
	}
}

func TestReduceOffTreePanics(t *testing.T) {
	// A contribution injected into a group whose tree does not include the
	// traversed node must fail loudly.
	g := topology.Star(3)
	eng := sim.NewEngine(1)
	f := New(eng, g, Config{})
	rg, err := f.CreateReduceGroup(g.Switches()[0], g.Hosts()[:2])
	if err != nil {
		t.Fatal(err)
	}
	f.AttachNIC(g.Hosts()[2]).Inject(&Packet{
		Dst: g.Hosts()[0], Group: NoGroup, Reduce: rg, ReduceChunk: 0, PayloadBytes: 64,
	})
	defer func() {
		if recover() == nil {
			t.Error("non-member contribution did not panic")
		}
	}()
	eng.Run()
}

// TestReducePooledResult drives the reduction with pooled contributions. A
// contribution's packet is the fabric's from Inject until the root absorbs
// it or — the last one of its chunk, forwarded as the result — until it is
// delivered; either way it then goes back to the pool. A result is
// delivered once per chunk with the result's header, and the fabric never
// makes more packets or trains than one batch keeps in flight.
func TestReducePooledResult(t *testing.T) {
	g := topology.Star(4)
	eng, f, rg, nics := reduceFixture(t, g)
	owner := nics[1]
	held := map[uint64]uint64{} // injected and neither absorbed nor delivered: tag -> chunk
	delivered := map[uint64]int{}
	owner.Deliver = func(p *Packet) {
		if c, ok := held[p.Flow]; !ok || c != p.ReduceChunk {
			t.Fatalf("chunk %d: delivered a packet that is not in flight for it", p.ReduceChunk)
		}
		if p.Reduce != NoReduceGroup || p.Dst != owner.Host || p.Group != NoGroup || p.PayloadBytes != 1024 {
			t.Fatalf("chunk %d: bad result header %+v", p.ReduceChunk, *p)
		}
		delivered[p.ReduceChunk]++
		// The result leaves the root only after every other contribution of
		// its chunk was absorbed: the whole chunk is out of the fabric's hands.
		for q, c := range held {
			if c == p.ReduceChunk {
				delete(held, q)
			}
		}
	}
	const chunks, batch = 200, 5
	var tag uint64
	for c := uint64(0); c < chunks; c++ {
		for _, nic := range nics {
			tag++
			held[tag] = c
			nic.Inject(&Packet{Dst: owner.Host, Group: NoGroup, Flow: tag, PayloadBytes: 1024, Reduce: rg, ReduceChunk: c})
		}
		if c%batch == batch-1 {
			eng.Run()
			if len(held) != 0 {
				t.Fatalf("after chunk %d: %d contributions neither absorbed nor delivered", c, len(held))
			}
		}
	}
	for c := uint64(0); c < chunks; c++ {
		if delivered[c] != 1 {
			t.Fatalf("chunk %d delivered %d times, want once", c, delivered[c])
		}
	}
	if f.ReducedChunks(rg) != chunks {
		t.Fatalf("ReducedChunks = %d, want %d", f.ReducedChunks(rg), chunks)
	}
	if want := batch * len(nics); f.pool.made > want || f.trainsMade > want {
		t.Fatalf("made %d packets and %d trains over %d chunks, want at most one batch (%d) of each: absorbed contributions leak",
			f.pool.made, f.trainsMade, chunks, want)
	}
	if p, tr := f.Outstanding(); p != 0 || tr != 0 {
		t.Fatalf("after the last delivery %d packets and %d trains are not back", p, tr)
	}
}
