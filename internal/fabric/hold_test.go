package fabric

import (
	"sort"
	"testing"

	"repro/internal/sim"
	"repro/internal/topology"
)

// incastPacket is one packet of TestCongestedPortMatchesPerHopModel, as the
// model books it.
type incastPacket struct {
	tag      uint64
	dst      int      // index into the incast's destination ports
	atSwitch sim.Time // landing at the switch
	booked   int      // place in the switch's booking order
	lands    sim.Time // landing at the destination host, or -1 if dropped
}

// portModel is the test's own per-hop model of one switch egress port: a
// serializer booked in arrival order, with the fabric's overrides.
type portModel struct {
	nextFree, extraLat sim.Time
	bw                 float64
	stats              PortStats
}

// incastOverride is a channel override the incast applies to one of its
// ports at offset at from the burst's start: an extra latency (when lat >=
// 0) or a bandwidth scale (when scale > 0).
type incastOverride struct {
	at    sim.Time
	port  int
	lat   sim.Time
	scale float64
}

// TestCongestedPortMatchesPerHopModel drives an incast on a star deep enough
// that more than a thousand hops wait at one switch port, and checks every
// packet's landing time and order, the port counters and the drop count
// against a per-hop model written here: each switch port a serializer that
// books packets in arrival order, the way a packet-per-event simulator
// would. Fourteen senders stream MTU packets back to back, alternately to
// two destinations, so two ports hold hops in the store at once. The burst
// runs twice, to quiescence each time, with a fabric drop rate, a bandwidth
// cut on one port mid-burst and, on the other, a latency cut mid-burst that
// lets later hops overtake the ones held ahead of them. While the backlog is
// deep, the engine must hold only a few events per port.
func TestCongestedPortMatchesPerHopModel(t *testing.T) {
	const (
		hosts, perSender = 16, 200
		drop             = 0.02
		seed             = 5
	)
	g := topology.Star(hosts)
	eng := sim.NewEngine(seed)
	f := New(eng, g, Config{DropRate: drop})
	cfg := f.Config()
	rng := sim.NewEngine(seed).SplitRNG() // the fabric's drop stream: its first split
	hs := g.Hosts()
	nics := make([]*NIC, hosts)
	for i, h := range hs {
		nics[i] = f.AttachNIC(h)
		f.SetDropRate(uplinkOf(t, f, h), 0) // drops only at the switch: one RNG draw per port booking
	}
	dsts := []int{0, 1}
	ports := []ChannelID{uplinkOf(t, f, hs[0]) ^ 1, uplinkOf(t, f, hs[1]) ^ 1}
	models := []portModel{{bw: cfg.LinkBandwidth}, {bw: cfg.LinkBandwidth}}
	overrides := []incastOverride{
		{at: 0, port: 0, lat: 2 * sim.Microsecond},
		{at: 10_003, port: 1, lat: -1, scale: 0.5},
		{at: 30_001, port: 0, lat: 300 * sim.Nanosecond}, // the cut
		{at: 45_001, port: 1, lat: -1, scale: 1},
	}
	apply := func(o incastOverride) { // to the model
		m := &models[o.port]
		if o.lat >= 0 {
			m.extraLat = o.lat
		} else if m.bw = cfg.LinkBandwidth; o.scale != 1 {
			m.bw = cfg.LinkBandwidth * o.scale
		}
	}
	const probeAt = 29_999 // deep backlog, before the latency cut
	wire := cfg.MTU + HeaderBytes
	serUp := sim.Time(float64(wire) / cfg.LinkBandwidth * 1e9)
	delivered := make([][]uint64, len(dsts))
	landed := map[uint64]sim.Time{}
	for i, d := range dsts {
		nics[d].Deliver = func(p *Packet) {
			delivered[i] = append(delivered[i], p.Flow)
			landed[p.Flow] = eng.Now()
		}
	}
	var totalDrops uint64
	for burst := 0; burst < 2; burst++ {
		base := eng.Now()
		for i := range delivered {
			delivered[i] = delivered[i][:0]
		}
		var pkts []*incastPacket
		for s := 2; s < hosts; s++ {
			s, k, at := s, 0, base+sim.Time(7*s)
			var send func()
			send = func() {
				tag := uint64(burst*100_000 + s*1000 + k)
				done := nics[s].Inject(&Packet{Dst: hs[dsts[k%2]], Group: NoGroup, Flow: tag, PayloadBytes: cfg.MTU})
				if k++; k < perSender {
					eng.AtHandler(done, call(send), 0, 0, nil)
				}
			}
			eng.AtHandler(at, call(send), 0, 0, nil)
			for k := 0; k < perSender; k++ {
				inj := at + sim.Time(k)*serUp
				pkts = append(pkts, &incastPacket{
					tag: uint64(burst*100_000 + s*1000 + k), dst: k % 2,
					atSwitch: inj + serUp + cfg.LinkLatency,
				})
			}
		}
		for _, o := range overrides {
			eng.AtHandler(base+o.at, call(func() {
				if o.lat >= 0 {
					f.SetExtraLatency(ports[o.port], o.lat)
				} else {
					f.SetBandwidthScale(ports[o.port], o.scale)
				}
			}), 0, 0, nil)
		}
		probed := false
		eng.AtHandler(base+probeAt, call(func() {
			probed = true
			queued := eng.Pending() - f.Held()
			if deepest := max(f.heldAt(int(ports[0])), f.heldAt(int(ports[1]))); deepest < 1000 || f.heldAt(int(ports[0])) == 0 {
				t.Errorf("burst %d: at the probe the ports hold %d and %d hops, want one >= 1000 and both > 0",
					burst, f.heldAt(int(ports[0])), f.heldAt(int(ports[1])))
			}
			// Per sender: its next injection and at most three uplink hops;
			// per incast port: holdDepth hops; and the remaining overrides.
			if limit := 4*(hosts-2) + len(ports)*holdDepth + len(overrides); queued > limit {
				t.Errorf("burst %d: the engine queues %d events while %d hops are held, want <= %d", burst, queued, f.Held(), limit)
			}
		}), 0, 0, nil)
		eng.Run()
		if !probed {
			t.Fatal("the probe never fired")
		}

		// The model: book every packet at its switch port in arrival order.
		sort.Slice(pkts, func(i, j int) bool { return pkts[i].atSwitch < pkts[j].atSwitch })
		next := 0
		for i, p := range pkts {
			if i > 0 && p.atSwitch == pkts[i-1].atSwitch {
				t.Fatalf("two packets reach the switch at %v: the model needs a strict order", p.atSwitch)
			}
			for ; next < len(overrides) && base+overrides[next].at <= p.atSwitch; next++ {
				if base+overrides[next].at == p.atSwitch {
					t.Fatalf("override %d ties with a switch arrival", next)
				}
				apply(overrides[next])
			}
			m := &models[p.dst]
			ser := sim.Time(float64(wire) / m.bw * 1e9)
			start := max(m.nextFree, p.atSwitch)
			if backlog := start - p.atSwitch; backlog > m.stats.MaxBacklog {
				m.stats.MaxBacklog = backlog
			}
			m.nextFree = start + ser
			m.stats.Packets++
			m.stats.Bytes += uint64(wire)
			m.stats.Busy += ser
			p.booked = i
			p.lands = -1
			if rng.Bernoulli(drop) {
				m.stats.Drops++
				totalDrops++
				continue
			}
			p.lands = m.nextFree + cfg.LinkLatency + m.extraLat
		}
		for ; next < len(overrides); next++ {
			apply(overrides[next])
		}

		for i := range dsts {
			var want []*incastPacket
			for _, p := range pkts {
				if p.dst == i && p.lands >= 0 {
					want = append(want, p)
				}
			}
			sort.Slice(want, func(a, b int) bool {
				if want[a].lands != want[b].lands {
					return want[a].lands < want[b].lands
				}
				return want[a].booked < want[b].booked
			})
			if len(delivered[i]) != len(want) {
				t.Fatalf("burst %d, port %d: %d packets delivered, the model lands %d", burst, i, len(delivered[i]), len(want))
			}
			overtaken := 0
			for k, p := range want {
				if delivered[i][k] != p.tag || landed[p.tag] != p.lands {
					t.Fatalf("burst %d, port %d, delivery %d: tag %d at %v, the model lands tag %d at %v",
						burst, i, k, delivered[i][k], landed[delivered[i][k]], p.tag, p.lands)
				}
				if k > 0 && p.booked < want[k-1].booked {
					overtaken++
				}
			}
			if i == 0 && overtaken == 0 {
				t.Errorf("burst %d: no hop overtook a held one after the latency cut", burst)
			}
		}
		for i, c := range ports {
			if got := f.chans[c].stats; got != models[i].stats {
				t.Fatalf("burst %d, port %d: PortStats %+v, the model counts %+v", burst, i, got, models[i].stats)
			}
		}
		for s := 2; s < hosts; s++ {
			up := f.chans[uplinkOf(t, f, hs[s])].stats
			if up.Packets != uint64((burst+1)*perSender) || up.Drops != 0 {
				t.Fatalf("sender %d uplink: %+v", s, up)
			}
		}
		if f.TotalDropped != totalDrops || totalDrops == 0 {
			t.Fatalf("TotalDropped = %d, the model drops %d", f.TotalDropped, totalDrops)
		}
		if eng.Executed != eng.Scheduled || eng.Pending() != 0 || f.Held() != 0 {
			t.Fatalf("at quiescence: %d events executed of %d scheduled, %d pending, %d held",
				eng.Executed, eng.Scheduled, eng.Pending(), f.Held())
		}
		if p, tr := f.Outstanding(); p != 0 || tr != 0 {
			t.Fatalf("at quiescence %d packets and %d trains are not back", p, tr)
		}
	}
}
