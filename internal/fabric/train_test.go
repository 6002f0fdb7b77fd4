package fabric

import (
	"fmt"
	"slices"
	"testing"

	"repro/internal/sim"
	"repro/internal/topology"
)

// segTag is the test transport: segment s of a train leaves tagged with
// its index in Payload, as the per-packet twin tags its packets.
type segTag struct{}

func (segTag) Segment(pkt *Packet, s int) { pkt.Payload = s }

// flowTag is the test transport that tags segment s by adding s to the
// train's Flow, so that every segment carries its own tag.
type flowTag struct{}

func (flowTag) Segment(pkt *Packet, s int) { pkt.Flow += uint64(s) }

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
	injected  []uint64
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
	mtu := f.cfg.MTU
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
	for _, nic := range nics {
		run.injected = append(run.injected, nic.Injected)
	}
	return run, f
}

// TestTrainMatchesPerPacket sends the same messages through twin fabrics,
// once as one packet per segment (the reference injector, which books and
// schedules each packet at once) and once as one InjectTrain per message,
// over randomized sizes (empty, under one MTU, ragged, whole MTUs), MTUs,
// unicast and multicast, drop rates, reorder jitter, adaptive routing, a
// bandwidth, latency or drop override landing mid-train and background
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
			MTU:             []int{256, 1000, 4096}[rng.Intn(3)],
			DropRate:        []float64{0, 0, 0.02, 0.2}[rng.Intn(4)],
			ReorderJitter:   sim.Time(rng.Intn(2) * 300),
			AdaptiveRouting: rng.Intn(2) == 0,
		}}
		mtu := c.cfg.MTU
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
		if perPacket.dropped != trains.dropped || !slices.Equal(perPacket.wires, trains.wires) || !slices.Equal(perPacket.injected, trains.injected) {
			t.Fatalf("%s: drops %d/%d, wire times %v/%v, injected %v/%v", name,
				perPacket.dropped, trains.dropped, perPacket.wires, trains.wires, perPacket.injected, trains.injected)
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
