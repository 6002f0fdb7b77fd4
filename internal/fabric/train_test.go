package fabric

import (
	"fmt"
	"slices"
	"testing"
	"unsafe"

	"repro/internal/sim"
	"repro/internal/topology"
)

// segTag is the test transport: segment s of a train leaves tagged with
// its index in Payload, as the per-packet twin tags its packets.
type segTag struct{}

func (segTag) Segment(pkt *Packet, s int) { pkt.Payload = s }

func (segTag) NewPacket() *Packet { return &Packet{Group: NoGroup} }

// flowTag is the test transport that tags segment s by adding s to the
// train's Flow, so that every segment carries its own tag.
type flowTag struct{}

func (flowTag) Segment(pkt *Packet, s int) { pkt.Flow += uint64(s) }

func (flowTag) NewPacket() *Packet { return &Packet{Group: NoGroup} }

// twinMessage is one message a twin run sends.
type twinMessage struct {
	at    sim.Time
	src   int
	dst   int // -1: the multicast group
	bytes int
}

// twinRun is everything a twin run must reproduce of the other.
type twinRun struct {
	events    [][2]int64 // (at, seq) of every fired event
	wires     []sim.Time // InjectTrain / last injectPacket return values
	delivered []string   // "host seg flow @at", in delivery order
	stats     []PortStats
	dropped   uint64
}

// twinCase is one randomized configuration of TestTrainMatchesPerPacket.
type twinCase struct {
	seed      uint64
	cfg       Config
	msgs      []twinMessage
	override  sim.Time // when the mid-train override lands
	overCh    ChannelID
	overKind  int
	overValue float64
	bgAt      []sim.Time // background packets on the first sender's uplink
}

// runTwin sends c's messages, as trains or as one reference injectPacket per
// segment.
func runTwin(t *testing.T, g *topology.Graph, c twinCase, train bool) (twinRun, *Fabric) {
	t.Helper()
	eng := sim.NewEngine(c.seed)
	f := New(eng, g, c.cfg)
	hosts := g.Hosts()
	gid, err := f.CreateGroup(g.TopSwitches()[0], hosts)
	if err != nil {
		t.Fatal(err)
	}
	var run twinRun
	eng.EventHook = func(at sim.Time, seq uint64, _ sim.Handler) {
		run.events = append(run.events, [2]int64{int64(at), int64(seq)})
	}
	nics := make([]*NIC, len(hosts))
	for i, h := range hosts {
		nics[i] = f.AttachNIC(h)
		if err := nics[i].AttachGroup(gid); err != nil {
			t.Fatal(err)
		}
		nics[i].Deliver = func(p *Packet) {
			run.delivered = append(run.delivered, fmt.Sprintf("%d %v %d @%d", i, p.Payload, p.Flow, eng.Now()))
		}
	}
	const mtu = maxPayload
	for k, m := range c.msgs {
		dst, group := topology.NodeID(-1), NoGroup
		if m.dst < 0 {
			group = gid
		} else {
			dst = hosts[m.dst]
		}
		flow := uint64(100 + k)
		eng.AtHandler(m.at, call(func() {
			nic := nics[m.src]
			if train {
				tr := nic.NewTrain()
				tr.Dst, tr.Group, tr.Flow, tr.Bytes, tr.Header = dst, group, flow, m.bytes, segTag{}
				run.wires = append(run.wires, nic.InjectTrain(tr))
				return
			}
			var wire sim.Time
			for s := 0; s == 0 || s*mtu < m.bytes; s++ {
				wire = nic.injectPacket(&Packet{Dst: dst, Group: group, Flow: flow, PayloadBytes: min(mtu, m.bytes-s*mtu), Payload: s})
			}
			run.wires = append(run.wires, wire)
		}), 0, 0, nil)
	}
	eng.AtHandler(c.override, call(func() {
		switch c.overKind {
		case 0:
			f.SetBandwidthScale(c.overCh, c.overValue)
		case 1:
			f.SetExtraLatency(c.overCh, sim.Time(c.overValue))
		default:
			f.SetDropRate(c.overCh, c.overValue)
		}
	}), 0, 0, nil)
	for _, at := range c.bgAt {
		eng.AtHandler(at, call(func() {
			f.InjectBackground(hosts[c.msgs[0].src], hosts[(c.msgs[0].src+1)%len(hosts)], mtu/2, 7)
		}), 0, 0, nil)
	}
	eng.Run()
	for i := range f.chans {
		run.stats = append(run.stats, f.chans[i].stats)
	}
	run.dropped = f.TotalDropped
	return run, f
}

// TestTrainMatchesPerPacket sends the same messages through twin fabrics,
// once as one packet per segment (the reference injector, which books and
// schedules each packet at once) and once as one InjectTrain per message,
// over randomized sizes (empty, under one MTU, ragged, whole MTUs),
// unicast and multicast, drop rates, reorder jitter, a bandwidth, latency or drop override landing mid-train and background
// packets on the sender's uplink. The twins must fire the same (at, seq)
// event stream and agree on every channel's counters, the delivery order,
// the drops and the injection wire times — and every train and packet must
// be back in its pool at quiescence.
func TestTrainMatchesPerPacket(t *testing.T) {
	g := propTopology(t)
	hosts := len(g.Hosts())
	var events, deliveries int
	var drops uint64
	for seed := uint64(1); seed <= 150; seed++ {
		rng := sim.NewRNG(seed)
		c := twinCase{seed: seed, cfg: Config{
			DropRate:      []float64{0, 0, 0.02, 0.2}[rng.Intn(4)],
			ReorderJitter: sim.Time(rng.Intn(2) * 300),
		}}
		const mtu = maxPayload
		for k, n := 0, 1+rng.Intn(3); k < n; k++ {
			m := twinMessage{at: sim.Time(rng.Intn(3000)), src: rng.Intn(hosts), dst: -1}
			switch rng.Intn(4) {
			case 0:
				m.bytes = 0
			case 1:
				m.bytes = 1 + rng.Intn(mtu)
			case 2:
				m.bytes = mtu * (2 + rng.Intn(12))
			default:
				m.bytes = 1 + rng.Intn(16*mtu)
			}
			if rng.Intn(2) == 0 {
				m.dst = (m.src + 1 + rng.Intn(hosts-1)) % hosts
			}
			c.msgs = append(c.msgs, m)
		}
		c.override = sim.Time(rng.Intn(8000))
		c.overCh = ChannelID(rng.Intn(2 * len(g.Links)))
		if rng.Intn(2) == 0 { // the first sender's own uplink
			c.overCh = ChannelID(2 * g.Adj[g.Hosts()[c.msgs[0].src]][0].Link)
			if g.Links[c.overCh/2].A != g.Hosts()[c.msgs[0].src] {
				c.overCh++
			}
		}
		c.overKind = rng.Intn(3)
		c.overValue = []float64{0.5, 3, 1}[rng.Intn(3)]
		if c.overKind == 1 {
			c.overValue = float64(rng.Intn(2000))
		}
		for k, n := 0, rng.Intn(4); k < n; k++ {
			c.bgAt = append(c.bgAt, sim.Time(rng.Intn(4000)))
		}

		name := fmt.Sprintf("seed=%d", seed)
		perPacket, _ := runTwin(t, g, c, false)
		trains, f := runTwin(t, g, c, true)
		if len(perPacket.events) != len(trains.events) || !slices.Equal(perPacket.events, trains.events) {
			i := 0
			for i < min(len(perPacket.events), len(trains.events)) && perPacket.events[i] == trains.events[i] {
				i++
			}
			t.Fatalf("%s %+v: event streams diverge at event %d of %d/%d", name, c, i, len(perPacket.events), len(trains.events))
		}
		if !slices.Equal(perPacket.delivered, trains.delivered) {
			t.Fatalf("%s: deliveries differ:\nper packet %v\ntrains     %v", name, perPacket.delivered, trains.delivered)
		}
		if !slices.Equal(perPacket.stats, trains.stats) {
			for i := range perPacket.stats {
				if perPacket.stats[i] != trains.stats[i] {
					t.Fatalf("%s: channel %d stats %+v per packet, %+v as trains", name, i, perPacket.stats[i], trains.stats[i])
				}
			}
		}
		if perPacket.dropped != trains.dropped || !slices.Equal(perPacket.wires, trains.wires) {
			t.Fatalf("%s: drops %d/%d, wire times %v/%v", name,
				perPacket.dropped, trains.dropped, perPacket.wires, trains.wires)
		}
		if len(f.pool.free) != f.pool.made {
			t.Fatalf("%s: %d of %d packets back in the pool at quiescence", name, len(f.pool.free), f.pool.made)
		}
		// Background packets leave as one-segment trains, too.
		if got := len(f.trains); got == 0 || got > len(c.msgs)+len(c.bgAt) || got != f.trainsMade {
			t.Fatalf("%s: %d trains on the free list after %d messages and %d background packets", name, got, len(c.msgs), len(c.bgAt))
		}
		events += len(trains.events)
		deliveries += len(trains.delivered)
		drops += trains.dropped
	}
	if events < 10_000 || deliveries < 5_000 || drops < 100 {
		t.Fatalf("void run: %d events, %d deliveries, %d drops", events, deliveries, drops)
	}
}

// TestTrainPacketBound: a 1 MiB message between two hosts of a star keeps
// about one packet per hop in flight, not one per segment, so the pool
// makes a handful of packets for its 256 segments; and the train is back
// on the free list once they have landed.
func TestTrainPacketBound(t *testing.T) {
	eng, f, nics := testFabric(t, 2, Config{})
	delivered := 0
	nics[1].Deliver = func(p *Packet) { delivered++ }
	tr := nics[0].NewTrain()
	tr.Dst, tr.Bytes, tr.Header = nics[1].Host, 1<<20, segTag{}
	nics[0].InjectTrain(tr)
	if eng.Pending() != 256 || eng.Scheduled != 256 {
		t.Fatalf("after injection Pending %d Scheduled %d, want the 256 segment arrivals counted", eng.Pending(), eng.Scheduled)
	}
	eng.Run()
	if delivered != 256 {
		t.Fatalf("delivered %d segments, want 256", delivered)
	}
	if f.pool.made > 4 {
		t.Fatalf("a 1 MiB train made %d packets, want at most 4", f.pool.made)
	}
	if len(f.trains) != 1 || f.trains[0] != tr || len(f.pool.free) != f.pool.made {
		t.Fatalf("at quiescence %d trains and %d of %d packets are back", len(f.trains), len(f.pool.free), f.pool.made)
	}
}

// TestTrainDroppedOnUplink: a train whose uplink is down drops every
// segment at injection, reserves nothing and is back on the free list at
// once.
func TestTrainDroppedOnUplink(t *testing.T) {
	eng, f, nics := testFabric(t, 2, Config{})
	f.SetDropRate(uplinkOf(t, f, nics[0].Host), 1)
	tr := nics[0].NewTrain()
	tr.Dst, tr.Bytes, tr.Header = nics[1].Host, 10_000, segTag{}
	nics[0].InjectTrain(tr)
	if eng.Pending() != 0 || eng.Scheduled != 0 || f.TotalDropped != 3 || len(f.trains) != 1 {
		t.Fatalf("Pending %d Scheduled %d dropped %d free trains %d, want 0 0 3 1",
			eng.Pending(), eng.Scheduled, f.TotalDropped, len(f.trains))
	}
}

// TestTrainRoutedOnce: a unicast train is routed once and the first switch
// forwards every segment on that channel, which is exact because ECMP
// hashes (flow, src, dst) and every segment shares them. On Testbed188,
// whose leaf-spine trunks give every cross-leaf pair several equal-cost
// paths, trains of one to five segments go one at a time over several
// flows, with half the uplink's crossings dropped, segment 0's among them.
// Each train's uplink must book all its segments, every other channel of
// UnicastPath(src, dst, flow) must carry exactly the segments that survived
// the uplink, in order to the destination, and no channel off the path may
// carry any. The single-switch BackToBack testbed and a bare cable between
// two hosts, where the first hop is the destination itself, take the same
// check.
func TestTrainRoutedOnce(t *testing.T) {
	cable := &topology.Graph{
		Nodes: []topology.Node{{ID: 0, Kind: topology.Host}, {ID: 1, Kind: topology.Host}},
		Links: []topology.Link{{ID: 0, A: 0, B: 1}},
		Adj:   [][]topology.Neighbor{{{Peer: 1}}, {{Peer: 0}}},
	}
	if err := cable.Validate(); err != nil {
		t.Fatal(err)
	}
	testbed := topology.Testbed188()
	hosts := testbed.Hosts()
	legs := []struct {
		name  string
		g     *topology.Graph
		pairs [][2]topology.NodeID
	}{
		{"testbed188", testbed, [][2]topology.NodeID{{hosts[0], hosts[187]}, {hosts[100], hosts[3]}, {hosts[50], hosts[120]}}},
		{"back-to-back", topology.BackToBack(), nil},
		{"cable", cable, nil},
	}
	for _, leg := range legs {
		t.Run(leg.name, func(t *testing.T) {
			eng := sim.NewEngine(3)
			f := New(eng, leg.g, Config{})
			hs := leg.g.Hosts()
			if leg.pairs == nil {
				leg.pairs = [][2]topology.NodeID{{hs[0], hs[1]}, {hs[1], hs[0]}}
			}
			var got []int // segments delivered, in order
			for _, h := range hs {
				f.AttachNIC(h).Deliver = func(p *Packet) { got = append(got, p.Payload.(int)) }
			}
			lostFirst := 0
			for _, p := range leg.pairs {
				src, dst := p[0], p[1]
				uplink := uplinkOf(t, f, src)
				f.SetDropRate(uplink, 0.5)
				paths := map[string]bool{}
				for flow := uint64(0); flow < 24; flow++ {
					f.ResetCounters()
					got = got[:0]
					tr := f.nics[src].NewTrain()
					nsegs := 1 + int(flow%5)
					tr.Dst, tr.Flow, tr.Bytes, tr.Header = dst, flow, nsegs*maxPayload-100, segTag{}
					f.nics[src].InjectTrain(tr)
					eng.Run()
					survived := nsegs - int(f.chans[uplink].stats.Drops)
					if len(got) != survived || !slices.IsSorted(got) {
						t.Fatalf("flow %d %d->%d: delivered segments %v, want the %d of %d that survived the uplink, in order", flow, src, dst, got, survived, nsegs)
					}
					if survived > 1 && got[0] != 0 {
						lostFirst++
					}
					path := f.UnicastPath(src, dst, flow)
					paths[fmt.Sprint(path)] = true
					for c := range f.chans {
						want := uint64(0)
						if k := slices.Index(path, ChannelID(c)); k == 0 {
							want = uint64(nsegs)
						} else if k > 0 {
							want = uint64(survived)
						}
						if n := f.chans[c].stats.Packets; n != want {
							t.Fatalf("flow %d %d->%d: channel %d carried %d segments, want %d on path %v", flow, src, dst, c, n, want, path)
						}
					}
				}
				f.SetDropRate(uplink, -1)
				if leg.g == testbed && len(paths) < 2 {
					t.Fatalf("%d->%d: 24 flow labels took one path: ECMP untested", src, dst)
				}
			}
			if lostFirst == 0 {
				t.Fatal("no train lost segment 0 on the uplink and delivered more than one segment")
			}
			if packets, trains := f.Outstanding(); packets != 0 || trains != 0 {
				t.Fatalf("at quiescence %d packets and %d trains are outstanding", packets, trains)
			}
		})
	}
}

// TestTrainLayout keeps a Train within the allocator's 192-byte size class.
func TestTrainLayout(t *testing.T) {
	if unsafe.Sizeof(uintptr(0)) != 8 {
		t.Skip("sizes pinned for 64-bit hosts")
	}
	if got := unsafe.Sizeof(Train{}); got > 192 {
		t.Fatalf("Train is %d bytes, want at most 192", got)
	}
	t.Logf("layout: Train %d bytes", unsafe.Sizeof(Train{}))
}
