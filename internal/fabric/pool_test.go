package fabric

import (
	"fmt"
	"testing"

	"repro/internal/sim"
	"repro/internal/topology"
)

// TestPoolSerialRingReusesEveryPacket: a two-way flow has no imbalance —
// after the first round the pool never makes another packet and holds them
// all at quiescence.
func TestPoolSerialRingReusesEveryPacket(t *testing.T) {
	eng, f, nics := testFabric(t, 4, Config{})
	const burst = 8
	round := func() {
		for i, nic := range nics {
			for k := 0; k < burst; k++ {
				pkt := nic.NewPacket()
				pkt.Dst, pkt.PayloadBytes = nics[(i+1)%len(nics)].Host, 4096
				nic.Inject(pkt)
			}
		}
		eng.Run()
	}
	round()
	pool := &f.pool
	if want := burst * len(nics); pool.made != want || len(pool.free) != want {
		t.Fatalf("after one round: made %d free %d, want %d and %d", pool.made, len(pool.free), want, want)
	}
	for i := 0; i < 1000; i++ {
		round()
	}
	if want := burst * len(nics); pool.made != want || len(pool.free) != want {
		t.Fatalf("after 1000 more rounds: made %d free %d, want every packet reused (%d)", pool.made, len(pool.free), want)
	}
}

// TestPoolCapBoundsOneWayFlow: a one-way flow carries the sender's packets
// to the receiver and nothing back, yet the one pool takes every delivered
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
			pkt := src.NewPacket()
			pkt.Dst, pkt.PayloadBytes = dst.Host, 4096
			src.Inject(pkt)
		}
		eng.Run()
	}
	if f.pool.made != burst || len(f.pool.free) != burst {
		t.Fatalf("made %d free %d, want one burst (%d) made and every packet back", f.pool.made, len(f.pool.free), burst)
	}
}

// lifetimeLeg is one fabric configuration of TestPacketLifetimeProperty.
type lifetimeLeg struct {
	name string
	// drop is a random per-hop drop rate on top of the outages; with it a
	// tag owes each host at most one delivery instead of exactly one.
	drop float64
}

// TestPacketLifetimeProperty pins the pool's one ownership rule under
// randomized traffic. Every send carries a unique tag in Flow, and the test
// knows which hosts it owes a delivery: unicast and multicast pool-born
// packets, the segments of unicast and multicast trains (a tag each),
// caller-built packets of both kinds, in-network reduce contributions (owed
// as one result per chunk) and background packets (owed to nobody). Over rounds of randomly timed sends, each run to quiescence:
//
//   - every Deliver sees a tag it is still owed, and every owed delivery
//     happens exactly once;
//   - NewPacket never hands out a caller-built packet, or a dirty one;
//   - the pool never makes more packets than one round puts in flight;
//   - at quiescence every pool-born packet — multicast, reduced, background
//     and dropped ones included — is back on the free list, once, and so
//     is every train.
//
// Both legs run with ReorderJitter, a reduce group, background traffic and
// three special hosts: one whose uplink is down (its sends drop at Inject),
// one whose downlink is down (tree branches toward it drop one hop short)
// and one on the tree but detached from the group.
func TestPacketLifetimeProperty(t *testing.T) {
	legs := []lifetimeLeg{{name: "confined"}, {name: "lossy", drop: 0.05}}
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

	owed := map[uint64]uint32{}    // tag -> bitmask of hosts still owed a delivery
	chunkOf := map[uint64]uint64{} // reduce contribution tag -> chunk
	results := map[uint64]int{}    // chunk -> results delivered
	foreign := map[*Packet]bool{}
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

	pooled, maxPooled := 0, 0 // pool-born packets handed out this round, and the most in any round
	trains := map[*Train]bool{}
	newPacket := func(s int) *Packet {
		p := nics[s].NewPacket()
		if foreign[p] {
			t.Fatal("NewPacket handed out a caller-built packet")
		}
		if *p != (Packet{Group: NoGroup, Payload: p.Payload, pooled: true}) {
			t.Fatalf("NewPacket returned a dirty header %+v", *p)
		}
		pooled++
		return p
	}

	rng := sim.NewRNG(seed)
	var tag uint64
	const rounds, perHost = 20, 6
	for r := 0; r < rounds; r++ {
		pooled = 0
		base := eng.Now()
		at := func() sim.Time { return base + sim.Time(rng.Uint64()%20_000) }
		for s := range hosts {
			for k := 0; k < perHost; k++ {
				tag++
				tg, size := tag, 64+int(rng.Uint64()%4033)
				d := (s + 1 + int(rng.Uint64()%uint64(len(hosts)-1))) % len(hosts)
				switch kind := rng.Uint64() % 8; {
				case kind == 7:
					eng.AtHandler(at(), call(func() {
						pooled++
						f.InjectBackground(hosts[s], hosts[d], size, tg)
					}), 0, 0, nil)
				case kind == 6:
					p := &Packet{Dst: hosts[d], Group: NoGroup, Flow: tg, PayloadBytes: size}
					if rng.Uint64()%2 == 0 {
						p.Group, d = gid, -1
					}
					foreign[p] = true
					owe(tg, s, d)
					eng.AtHandler(at(), call(func() { nics[s].Inject(p) }), 0, 0, nil)
				default:
					if kind >= 4 {
						d = -1
					}
					owe(tg, s, d)
					eng.AtHandler(at(), call(func() {
						p := newPacket(s)
						p.Flow, p.PayloadBytes = tg, size
						if d < 0 {
							p.Group = gid
						} else {
							p.Dst = hosts[d]
						}
						nics[s].Inject(p)
					}), 0, 0, nil)
				}
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
				pooled += nsegs
				tr := nics[s].NewTrain()
				trains[tr] = true
				tr.Flow, tr.Bytes, tr.Header = base, size, flowTag{}
				if d < 0 {
					tr.Group = gid
				} else {
					tr.Dst = hosts[d]
				}
				nics[s].InjectTrain(tr)
			}), 0, 0, nil)
		}
		chunk := uint64(r)
		for _, s := range reducers {
			tag++
			tg := tag
			chunkOf[tg] = chunk
			eng.AtHandler(at(), call(func() {
				p := newPacket(s)
				p.Dst, p.Flow, p.PayloadBytes = hosts[owner], tg, 1024
				p.Reduce, p.ReduceChunk = rg, chunk
				nics[s].Inject(p)
			}), 0, 0, nil)
		}
		eng.Run()

		maxPooled = max(maxPooled, pooled)
		if f.pool.made > maxPooled {
			t.Fatalf("round %d: pool made %d packets, but no round put more than %d in flight", r, f.pool.made, maxPooled)
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
		if len(f.trains) != len(trains) || len(backTrains) != len(trains) {
			t.Fatalf("round %d: at quiescence %d trains (%d distinct) are back of the %d handed out", r, len(f.trains), len(backTrains), len(trains))
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
}

// call adapts a func() to sim.Handler, for tests that schedule a one-off
// action.
type call func()

func (f call) OnEvent(*sim.Engine, sim.Handle, uint64, int, any) { f() }
