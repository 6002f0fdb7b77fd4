package fabric

import (
	"fmt"
	"testing"

	"repro/internal/sim"
	"repro/internal/topology"
)

// madeBack checks that at quiescence the fabric has made packets packets
// and one train, and holds every one of them on its free lists. A message
// of one segment keeps one packet in flight and hands its train straight
// back, so one train serves every Inject.
func madeBack(t *testing.T, f *Fabric, packets int) {
	t.Helper()
	if f.pool.made != packets || f.trainsMade != 1 {
		t.Fatalf("made %d packets and %d trains, want %d (one per message in flight) and 1", f.pool.made, f.trainsMade, packets)
	}
	if p, tr := f.Outstanding(); p != 0 || tr != 0 {
		t.Fatalf("at quiescence %d packets and %d trains are not back", p, tr)
	}
}

// TestPoolSerialRingReusesEveryPacket: a two-way flow has no imbalance —
// after the first round the fabric never makes another packet or train and
// holds them all at quiescence.
func TestPoolSerialRingReusesEveryPacket(t *testing.T) {
	eng, f, nics := testFabric(t, 4, Config{})
	const burst = 8
	round := func() {
		for i, nic := range nics {
			for k := 0; k < burst; k++ {
				nic.Inject(&Packet{Dst: nics[(i+1)%len(nics)].Host, Group: NoGroup, PayloadBytes: 4096})
			}
		}
		eng.Run()
	}
	round()
	madeBack(t, f, burst*len(nics))
	for i := 0; i < 1000; i++ {
		round()
	}
	madeBack(t, f, burst*len(nics))
}

// TestPoolCapBoundsOneWayFlow: a one-way flow carries the sender's packets
// to the receiver and nothing back, yet the fabric takes every delivered
// packet back, so the flow never makes more packets than one burst holds in
// flight.
func TestPoolCapBoundsOneWayFlow(t *testing.T) {
	g := topology.Star(4)
	eng := sim.NewEngine(1)
	f := New(eng, g, Config{})
	hosts := g.Hosts()
	src, dst := f.AttachNIC(hosts[0]), f.AttachNIC(hosts[3])
	const burst = 16
	for i := 0; i < 100; i++ {
		for k := 0; k < burst; k++ {
			src.Inject(&Packet{Dst: dst.Host, Group: NoGroup, PayloadBytes: 4096})
		}
		eng.Run()
	}
	madeBack(t, f, burst)
}

// lifetimeLeg is one fabric configuration of TestPacketLifetimeProperty.
type lifetimeLeg struct {
	name string
	// drop is a random per-hop drop rate on top of the outages; with it a
	// tag owes each host at most one delivery instead of exactly one.
	drop float64
	// congest slows every switch port to a twentieth of its bandwidth, so
	// that ports hold hops in their FIFOs, and cuts their extra latency
	// from 2 µs to 0 at a random time in every round.
	congest bool
}

// TestPacketLifetimeProperty pins the pool's one ownership rule under
// randomized traffic. Every send carries a unique tag in Flow, and the test
// knows which hosts it owes a delivery: unicast and multicast packets sent
// with Inject, the segments of unicast and multicast trains (a tag each),
// in-network reduce contributions (owed as one result per chunk) and
// background packets (owed to nobody). Over rounds of randomly timed sends,
// each run to quiescence:
//
//   - every Deliver sees a tag it is still owed, from the host that sent
//     it, in a packet of the fabric's (never the caller's) with no stale
//     field, and every owed delivery happens exactly once;
//   - the fabric never makes more packets than one round sends segments,
//     nor more trains than one round sends messages;
//   - at quiescence every packet — multicast, reduced, background and
//     dropped ones included — is back on the free list, once, and so is
//     every train, and no hop is left in a port's FIFO.
//
// Every leg runs with ReorderJitter, a reduce group, background traffic and
// three special hosts: one whose uplink is down (its sends drop at Inject),
// one whose downlink is down (tree branches toward it drop one hop short)
// and one on the tree but detached from the group.
func TestPacketLifetimeProperty(t *testing.T) {
	legs := []lifetimeLeg{{name: "confined"}, {name: "lossy", drop: 0.05}, {name: "congested", congest: true}}
	for _, leg := range legs {
		for _, seed := range []uint64{1, 7, 42} {
			t.Run(fmt.Sprintf("%s/seed=%d", leg.name, seed), func(t *testing.T) { runLifetime(t, leg, seed) })
		}
	}
}

// propTopology is a two-level fat tree: big enough that packets cross
// host->leaf, leaf->spine, spine->leaf and leaf->host channels, small
// enough that the property runs in milliseconds.
func propTopology(t *testing.T) *topology.Graph {
	t.Helper()
	g, err := topology.TwoLevelFatTree(topology.FatTreeSpec{
		Hosts: 12, HostsPerLeaf: 4, Spines: 2, TrunkLinks: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	return g
}

func runLifetime(t *testing.T, leg lifetimeLeg, seed uint64) {
	g := propTopology(t)
	eng := sim.NewEngine(seed)
	f := New(eng, g, Config{DropRate: leg.drop, ReorderJitter: 300 * sim.Nanosecond})
	hosts := g.Hosts()
	gid, err := f.CreateGroup(g.TopSwitches()[0], hosts)
	if err != nil {
		t.Fatal(err)
	}
	down, deaf, detached := 0, 5, 9
	reducers, owner := []int{1, 2, 3, 4}, 6
	f.SetDropRate(uplinkOf(t, f, hosts[down]), 1)
	f.SetDropRate(uplinkOf(t, f, hosts[deaf])^1, 1) // the reverse channel
	var members []topology.NodeID
	for _, i := range reducers {
		members = append(members, hosts[i])
	}
	rg, err := f.CreateReduceGroup(g.TopSwitches()[1], members)
	if err != nil {
		t.Fatal(err)
	}
	var switchPorts []ChannelID
	for c := 0; c < f.NumChannels(); c++ {
		if from, _ := f.ChannelEnds(ChannelID(c)); leg.congest && g.Nodes[from].Kind == topology.Switch {
			switchPorts = append(switchPorts, ChannelID(c))
			f.SetBandwidthScale(ChannelID(c), 0.05)
		}
	}

	owed := map[uint64]uint32{}    // tag -> bitmask of hosts still owed a delivery
	srcOf := map[uint64]int{}      // tag -> sending host
	chunkOf := map[uint64]uint64{} // reduce contribution tag -> chunk
	results := map[uint64]int{}    // chunk -> results delivered
	caller := map[*Packet]bool{}   // the packets handed to Inject
	delivered := 0
	nics := make([]*NIC, len(hosts))
	for i, h := range hosts {
		nics[i] = f.AttachNIC(h)
		if i != detached {
			if err := nics[i].AttachGroup(gid); err != nil {
				t.Fatal(err)
			}
		}
		nics[i].Deliver = func(p *Packet) {
			delivered++
			tag := p.Flow
			if caller[p] || p.Background || p.Reduce != NoReduceGroup || p.Src != hosts[srcOf[tag]] {
				t.Fatalf("host %d: tag %d delivered in a caller's or stale packet %+v", i, tag, *p)
			}
			if c, ok := chunkOf[tag]; ok {
				if i != owner || p.ReduceChunk != c || results[c] != 0 {
					t.Fatalf("host %d: reduce result for chunk %d (tag %d of chunk %d, %d results so far)", i, p.ReduceChunk, tag, c, results[c])
				}
				results[c]++
				for k, kc := range chunkOf {
					if kc == c {
						delete(chunkOf, k)
					}
				}
				return
			}
			if owed[tag]&(1<<i) == 0 {
				t.Fatalf("host %d: delivery of tag %d, which it is not owed", i, tag)
			}
			if owed[tag] &^= 1 << i; owed[tag] == 0 {
				delete(owed, tag)
			}
		}
	}
	// owe records the hosts that tag tg, sent from s, must reach: the
	// unicast destination d, or every attached group member but s when d < 0.
	owe := func(tg uint64, s, d int) {
		srcOf[tg] = s
		var mask uint32
		for i := range hosts {
			if s != down && i != deaf && (i == d || d < 0 && i != s && i != detached) {
				mask |= 1 << i
			}
		}
		if mask != 0 {
			owed[tg] = mask
		}
	}

	// Segments and messages sent this round, and the most in any round.
	segs, msgs, maxSegs, maxMsgs := 0, 0, 0, 0
	inject := func(s int, p *Packet) {
		segs++
		msgs++
		caller[p] = true
		nics[s].Inject(p)
	}

	rng := sim.NewRNG(seed)
	var tag uint64
	const rounds, perHost = 20, 6
	for r := 0; r < rounds; r++ {
		base := eng.Now()
		at := func() sim.Time { return base + sim.Time(rng.Uint64()%20_000) }
		for s := range hosts {
			for k := 0; k < perHost; k++ {
				tag++
				tg, size := tag, 64+int(rng.Uint64()%4033)
				d := (s + 1 + int(rng.Uint64()%uint64(len(hosts)-1))) % len(hosts)
				if rng.Uint64()%8 == 7 {
					eng.AtHandler(at(), call(func() {
						segs++
						f.InjectBackground(hosts[s], hosts[d], size, tg)
					}), 0, 0, nil)
					continue
				}
				p := &Packet{Dst: hosts[d], Group: NoGroup, Flow: tg, PayloadBytes: size}
				if rng.Uint64()%2 == 0 {
					p.Group, d = gid, -1
				}
				owe(tg, s, d)
				eng.AtHandler(at(), call(func() { inject(s, p) }), 0, 0, nil)
			}
			// One train per host and round, of one to four segments.
			size := 1 + int(rng.Uint64()%(4*4096))
			nsegs := (size + 4095) / 4096
			d := (s + 1 + int(rng.Uint64()%uint64(len(hosts)-1))) % len(hosts)
			if rng.Uint64()%2 == 0 {
				d = -1
			}
			base := tag + 1
			for k := 0; k < nsegs; k++ {
				tag++
				owe(tag, s, d)
			}
			eng.AtHandler(at(), call(func() {
				segs += nsegs
				msgs++
				tr := nics[s].NewTrain()
				tr.Flow, tr.Bytes, tr.Header = base, size, flowTag{}
				if d < 0 {
					tr.Group = gid
				} else {
					tr.Dst = hosts[d]
				}
				nics[s].InjectTrain(tr)
			}), 0, 0, nil)
		}
		for _, c := range switchPorts {
			f.SetExtraLatency(c, 2*sim.Microsecond)
			eng.AtHandler(at(), call(func() { f.SetExtraLatency(c, 0) }), 0, 0, nil)
		}
		chunk := uint64(r)
		for _, s := range reducers {
			tag++
			tg := tag
			chunkOf[tg], srcOf[tg] = chunk, s
			p := &Packet{Dst: hosts[owner], Group: NoGroup, Flow: tg, PayloadBytes: 1024, Reduce: rg, ReduceChunk: chunk}
			eng.AtHandler(at(), call(func() { inject(s, p) }), 0, 0, nil)
		}
		segs, msgs = 0, 0
		eng.Run()

		maxSegs, maxMsgs = max(maxSegs, segs), max(maxMsgs, msgs)
		if f.pool.made > maxSegs || f.trainsMade > maxMsgs {
			t.Fatalf("round %d: made %d packets and %d trains, but no round sent more than %d segments in %d messages",
				r, f.pool.made, f.trainsMade, maxSegs, maxMsgs)
		}
		back := map[*Packet]bool{}
		for _, p := range f.pool.free {
			back[p] = true
		}
		if len(f.pool.free) != f.pool.made || len(back) != f.pool.made {
			t.Fatalf("round %d: at quiescence the pool holds %d packets (%d distinct) of the %d it made", r, len(f.pool.free), len(back), f.pool.made)
		}
		backTrains := map[*Train]bool{}
		for _, tr := range f.trains {
			backTrains[tr] = true
		}
		if len(f.trains) != f.trainsMade || len(backTrains) != f.trainsMade {
			t.Fatalf("round %d: at quiescence %d trains (%d distinct) are back of the %d made", r, len(f.trains), len(backTrains), f.trainsMade)
		}
		if n := f.Held(); n != 0 {
			t.Fatalf("round %d: at quiescence %d hops are still held in port FIFOs", r, n)
		}
		if leg.drop == 0 {
			if len(owed) != 0 {
				t.Fatalf("round %d: %d tags still owed deliveries at quiescence", r, len(owed))
			}
			if results[uint64(r)] != 1 {
				t.Fatalf("round %d: chunk delivered %d results, want 1", r, results[uint64(r)])
			}
		}
	}
	if delivered == 0 || f.TotalDropped == 0 || f.BackgroundInjected == 0 {
		t.Fatalf("void run: %d deliveries, %d drops, %d background packets", delivered, f.TotalDropped, f.BackgroundInjected)
	}
	if leg.congest && f.heldChunks == 0 {
		t.Fatal("void run: no switch port held a hop")
	}
}

// call adapts a func() to sim.Handler, for tests that schedule a one-off
// action.
type call func()

func (f call) OnEvent(*sim.Engine, sim.Handle, uint64, int, any) { f() }
