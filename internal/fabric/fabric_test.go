package fabric

import (
	"testing"
	"testing/quick"

	"repro/internal/sim"
	"repro/internal/topology"
)

// testFabric builds a star fabric with n hosts and returns engine, fabric
// and attached NICs.
func testFabric(t *testing.T, n int, cfg Config) (*sim.Engine, *Fabric, []*NIC) {
	t.Helper()
	eng := sim.NewEngine(1)
	g := topology.Star(n)
	f := New(eng, g, cfg)
	nics := make([]*NIC, 0, n)
	for _, h := range g.Hosts() {
		nics = append(nics, f.AttachNIC(h))
	}
	return eng, f, nics
}

func TestUnicastDelivery(t *testing.T) {
	eng, _, nics := testFabric(t, 2, Config{})
	var got *Packet
	nics[1].Deliver = func(p *Packet) { got = new(Packet); *got = *p } // p goes back to the pool
	nics[0].Inject(&Packet{Dst: nics[1].Host, Group: NoGroup, PayloadBytes: 1024, Payload: "hello"})
	eng.Run()
	if got == nil {
		t.Fatal("packet not delivered")
	}
	if got.Payload.(string) != "hello" || got.Src != nics[0].Host {
		t.Fatalf("wrong packet: %+v", got)
	}
}

func TestUnicastLatency(t *testing.T) {
	// 1024B payload + 64B header = 1088B at 25e9 B/s = 43.52ns serialization
	// per hop; 2 hops (host->sw, sw->host) + 2×250ns propagation.
	eng, _, nics := testFabric(t, 2, Config{})
	var at sim.Time
	nics[1].Deliver = func(p *Packet) { at = eng.Now() }
	nics[0].Inject(&Packet{Dst: nics[1].Host, Group: NoGroup, PayloadBytes: 1024})
	eng.Run()
	want := sim.Time(2*43 + 2*250) // truncating float→int per hop
	if at < want-2 || at > want+2 {
		t.Fatalf("delivery at %v, want ≈%v", at, want)
	}
}

func TestSerializationThroughput(t *testing.T) {
	// Back-to-back streaming: k packets of the MTU must take ≈ k*(wire/bw)
	// on the bottleneck (host uplink), i.e. the receive rate equals link
	// bandwidth, not infinity.
	eng, _, nics := testFabric(t, 2, Config{})
	const k = 1000
	var lastArrival sim.Time
	count := 0
	nics[1].Deliver = func(p *Packet) { count++; lastArrival = eng.Now() }
	for i := 0; i < k; i++ {
		nics[0].Inject(&Packet{Dst: nics[1].Host, Group: NoGroup, PayloadBytes: 4096})
	}
	eng.Run()
	if count != k {
		t.Fatalf("delivered %d, want %d", count, k)
	}
	wire := float64(4096 + HeaderBytes)
	wantNs := float64(k) * wire / 25e9 * 1e9
	got := float64(lastArrival)
	if got < wantNs*0.99 || got > wantNs*1.05 {
		t.Fatalf("streaming %d packets finished at %.0fns, want ≈%.0fns", k, got, wantNs)
	}
}

func TestMTUEnforced(t *testing.T) {
	_, _, nics := testFabric(t, 2, Config{MTU: 2048})
	defer func() {
		if recover() == nil {
			t.Error("oversized payload did not panic")
		}
	}()
	nics[0].Inject(&Packet{Dst: nics[1].Host, Group: NoGroup, PayloadBytes: 4096})
}

func TestMulticastReachesAllMembersExceptSender(t *testing.T) {
	eng, f, nics := testFabric(t, 4, Config{})
	gid, err := f.CreateGroup(f.Graph().Switches()[0], f.Graph().Hosts())
	if err != nil {
		t.Fatal(err)
	}
	recv := make([]int, 4)
	for i, nic := range nics {
		i := i
		if err := nic.AttachGroup(gid); err != nil {
			t.Fatal(err)
		}
		nic.Deliver = func(p *Packet) { recv[i]++ }
	}
	nics[0].Inject(&Packet{Group: gid, PayloadBytes: 512})
	eng.Run()
	if recv[0] != 0 {
		t.Errorf("sender received its own multicast %d times", recv[0])
	}
	for i := 1; i < 4; i++ {
		if recv[i] != 1 {
			t.Errorf("member %d received %d copies, want 1", i, recv[i])
		}
	}
}

func TestMulticastNotDeliveredToDetached(t *testing.T) {
	eng, f, nics := testFabric(t, 3, Config{})
	gid, _ := f.CreateGroup(f.Graph().Switches()[0], f.Graph().Hosts())
	for _, nic := range nics {
		nic.AttachGroup(gid)
	}
	got := 0
	nics[2].Deliver = func(p *Packet) { got++ }
	nics[2].DetachGroup(gid)
	nics[0].Inject(&Packet{Group: gid, PayloadBytes: 128})
	eng.Run()
	if got != 0 {
		t.Fatalf("detached NIC received %d packets", got)
	}
}

func TestMulticastRequiresMembership(t *testing.T) {
	_, f, nics := testFabric(t, 3, Config{})
	gid, _ := f.CreateGroup(f.Graph().Switches()[0], f.Graph().Hosts()[:2])
	defer func() {
		if recover() == nil {
			t.Error("multicast from non-member did not panic")
		}
	}()
	nics[2].Inject(&Packet{Group: gid, PayloadBytes: 128})
}

func TestAttachGroupRejectsNonMember(t *testing.T) {
	_, f, nics := testFabric(t, 3, Config{})
	gid, _ := f.CreateGroup(f.Graph().Switches()[0], f.Graph().Hosts()[:2])
	if err := nics[2].AttachGroup(gid); err == nil {
		t.Error("non-member attach succeeded")
	}
}

// Multicast on a fat-tree must traverse every tree link exactly once per
// datagram: this is the bandwidth-optimality property of Insight 1.
func TestMulticastLinkOptimality(t *testing.T) {
	eng := sim.NewEngine(1)
	g, err := topology.TwoLevelFatTree(topology.FatTreeSpec{Hosts: 8, HostsPerLeaf: 4, Spines: 2})
	if err != nil {
		t.Fatal(err)
	}
	f := New(eng, g, Config{})
	hosts := g.Hosts()
	var spine topology.NodeID
	for _, sw := range g.Switches() {
		if g.Nodes[sw].Level == 2 {
			spine = sw
			break
		}
	}
	gid, err := f.CreateGroup(spine, hosts)
	if err != nil {
		t.Fatal(err)
	}
	delivered := 0
	for _, h := range hosts {
		nic := f.AttachNIC(h)
		nic.AttachGroup(gid)
		nic.Deliver = func(p *Packet) { delivered++ }
	}
	f.AttachNIC(hosts[0]).Inject(&Packet{Group: gid, PayloadBytes: 4096})
	eng.Run()
	if delivered != len(hosts)-1 {
		t.Fatalf("delivered %d, want %d", delivered, len(hosts)-1)
	}
	// Wire bytes: the datagram crosses each tree link exactly once. Tree
	// links: 8 host links + 2 leaf-spine links on the tree = 10 channels,
	// but the sender's host link is crossed once upward and the other 7
	// downward, and leaf0<->spine, spine->leaf1: with root on the spine the
	// tree has 8 host edges + 2 leaf-spine edges. Each edge used once.
	wire := uint64(4096 + HeaderBytes)
	want := 10 * wire
	if got := f.TotalWireBytes(); got != want {
		t.Fatalf("total wire bytes = %d, want %d (each tree link exactly once)", got, want)
	}
	// No channel carries the payload twice.
	if f.MaxChannelBytes() != wire {
		t.Fatalf("hottest channel carried %d bytes, want %d", f.MaxChannelBytes(), wire)
	}
}

func TestUnicastCrossesFatTree(t *testing.T) {
	eng := sim.NewEngine(1)
	g := topology.Testbed188()
	f := New(eng, g, Config{})
	hosts := g.Hosts()
	src, dst := hosts[0], hosts[187] // different leaves
	got := 0
	f.AttachNIC(dst).Deliver = func(p *Packet) { got++ }
	f.AttachNIC(src).Inject(&Packet{Dst: dst, Group: NoGroup, PayloadBytes: 4096})
	eng.Run()
	if got != 1 {
		t.Fatalf("cross-tree unicast delivered %d", got)
	}
}

func TestDropRate(t *testing.T) {
	eng, _, nics := testFabric(t, 2, Config{DropRate: 0.2})
	const k = 5000
	count := 0
	nics[1].Deliver = func(p *Packet) { count++ }
	for i := 0; i < k; i++ {
		nics[0].Inject(&Packet{Dst: nics[1].Host, Group: NoGroup, PayloadBytes: 64})
	}
	eng.Run()
	// Two channel traversals per packet; survival ≈ 0.8^2 = 0.64.
	rate := float64(count) / k
	if rate < 0.58 || rate > 0.70 {
		t.Fatalf("survival rate %.3f, want ≈0.64", rate)
	}
}

func TestDropsCounted(t *testing.T) {
	eng, f, nics := testFabric(t, 2, Config{DropRate: 1.0})
	nics[1].Deliver = func(p *Packet) { t.Error("packet delivered despite DropRate=1") }
	nics[0].Inject(&Packet{Dst: nics[1].Host, Group: NoGroup, PayloadBytes: 64})
	eng.Run()
	if f.TotalDropped != 1 {
		t.Fatalf("TotalDropped = %d, want 1", f.TotalDropped)
	}
}

func TestAdaptiveRoutingUsesAllSpines(t *testing.T) {
	eng := sim.NewEngine(7)
	g, err := topology.TwoLevelFatTree(topology.FatTreeSpec{Hosts: 8, HostsPerLeaf: 4, Spines: 4})
	if err != nil {
		t.Fatal(err)
	}
	f := New(eng, g, Config{AdaptiveRouting: true})
	hosts := g.Hosts()
	src, dst := hosts[0], hosts[7]
	f.AttachNIC(dst).Deliver = func(p *Packet) {}
	srcNIC := f.AttachNIC(src)
	for i := 0; i < 200; i++ {
		srcNIC.Inject(&Packet{Dst: dst, Group: NoGroup, PayloadBytes: 64})
	}
	eng.Run()
	// Each spine must have carried some packets.
	leaf := g.LeafOf(src)
	spinesUsed := 0
	for _, sw := range g.Switches() {
		if g.Nodes[sw].Level != 2 {
			continue
		}
		if f.ChannelStats(leaf, sw).Packets > 0 {
			spinesUsed++
		}
	}
	if spinesUsed != 4 {
		t.Fatalf("adaptive routing used %d spines, want 4", spinesUsed)
	}
}

func TestDeterministicECMPPinsFlow(t *testing.T) {
	eng := sim.NewEngine(7)
	g, _ := topology.TwoLevelFatTree(topology.FatTreeSpec{Hosts: 8, HostsPerLeaf: 4, Spines: 4})
	f := New(eng, g, Config{AdaptiveRouting: false})
	hosts := g.Hosts()
	src, dst := hosts[0], hosts[7]
	f.AttachNIC(dst).Deliver = func(p *Packet) {}
	srcNIC := f.AttachNIC(src)
	for i := 0; i < 100; i++ {
		srcNIC.Inject(&Packet{Dst: dst, Group: NoGroup, Flow: 42, PayloadBytes: 64})
	}
	eng.Run()
	leaf := g.LeafOf(src)
	spinesUsed := 0
	for _, sw := range g.Switches() {
		if g.Nodes[sw].Level == 2 && f.ChannelStats(leaf, sw).Packets > 0 {
			spinesUsed++
		}
	}
	if spinesUsed != 1 {
		t.Fatalf("deterministic ECMP spread one flow over %d spines", spinesUsed)
	}
}

func TestReorderJitterReorders(t *testing.T) {
	eng, _, nics := testFabric(t, 2, Config{ReorderJitter: 10 * sim.Microsecond})
	var order []uint64
	nics[1].Deliver = func(p *Packet) { order = append(order, p.Flow) } // Flow tags the send
	for i := 0; i < 100; i++ {
		nics[0].Inject(&Packet{Dst: nics[1].Host, Group: NoGroup, Flow: uint64(i), PayloadBytes: 64})
	}
	eng.Run()
	if len(order) != 100 {
		t.Fatalf("delivered %d", len(order))
	}
	inOrder := true
	for i := 1; i < len(order); i++ {
		if order[i] < order[i-1] {
			inOrder = false
			break
		}
	}
	if inOrder {
		t.Fatal("jitter configured but packets arrived perfectly in order")
	}
}

func TestInOrderWithoutJitter(t *testing.T) {
	eng, _, nics := testFabric(t, 2, Config{})
	var order []uint64
	nics[1].Deliver = func(p *Packet) { order = append(order, p.Flow) } // Flow tags the send
	for i := 0; i < 100; i++ {
		nics[0].Inject(&Packet{Dst: nics[1].Host, Group: NoGroup, Flow: uint64(i), PayloadBytes: 64})
	}
	eng.Run()
	for i := 1; i < len(order); i++ {
		if order[i] < order[i-1] {
			t.Fatal("single-path UD without jitter must deliver in order")
		}
	}
}

func TestCountersAndReset(t *testing.T) {
	eng, f, nics := testFabric(t, 2, Config{})
	nics[1].Deliver = func(p *Packet) {}
	nics[0].Inject(&Packet{Dst: nics[1].Host, Group: NoGroup, PayloadBytes: 1000})
	eng.Run()
	wire := uint64(1000 + HeaderBytes)
	if got := f.TotalWireBytes(); got != 2*wire {
		t.Fatalf("TotalWireBytes = %d, want %d", got, 2*wire)
	}
	if got := f.SwitchEgressBytes(); got != wire {
		t.Fatalf("SwitchEgressBytes = %d, want %d", got, wire)
	}
	if nics[0].Injected != 1 || nics[1].Received != 1 {
		t.Fatal("NIC counters wrong")
	}
	f.ResetCounters()
	if f.TotalWireBytes() != 0 || nics[0].Injected != 0 {
		t.Fatal("ResetCounters left residue")
	}
	if len(f.PerLinkBytes()) == 0 {
		t.Fatal("PerLinkBytes returned empty map")
	}
}

func TestHostLinkBandwidthOverride(t *testing.T) {
	// Host links at half bandwidth: serialization twice as long.
	eng := sim.NewEngine(1)
	g := topology.Star(2)
	f := New(eng, g, Config{LinkBandwidth: 25e9, HostLinkBandwidth: 12.5e9})
	nics := []*NIC{f.AttachNIC(g.Hosts()[0]), f.AttachNIC(g.Hosts()[1])}
	var at sim.Time
	nics[1].Deliver = func(p *Packet) { at = eng.Now() }
	nics[0].Inject(&Packet{Dst: nics[1].Host, Group: NoGroup, PayloadBytes: 4096})
	eng.Run()
	wire := float64(4096 + HeaderBytes)
	want := sim.Time(2*wire/12.5e9*1e9) + 2*250
	if at < want-4 || at > want+4 {
		t.Fatalf("delivery at %v, want ≈%v", at, want)
	}
}

// Property: with random small stars and payload sizes, every injected
// unicast packet is delivered exactly once when DropRate is zero, and
// conservation holds: injected == received.
func TestPropertyUnicastConservation(t *testing.T) {
	f := func(sizes []uint16, seed uint64) bool {
		eng := sim.NewEngine(seed)
		g := topology.Star(3)
		fb := New(eng, g, Config{})
		hosts := g.Hosts()
		n0, n1, n2 := fb.AttachNIC(hosts[0]), fb.AttachNIC(hosts[1]), fb.AttachNIC(hosts[2])
		recv := 0
		n1.Deliver = func(p *Packet) { recv++ }
		n2.Deliver = func(p *Packet) { recv++ }
		sent := 0
		for i, s := range sizes {
			dst := n1.Host
			if i%2 == 0 {
				dst = n2.Host
			}
			n0.Inject(&Packet{Dst: dst, Group: NoGroup, PayloadBytes: int(s) % 4097})
			sent++
		}
		eng.Run()
		return recv == sent
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

func TestMaxBacklogTracksCongestion(t *testing.T) {
	// Incast: three senders blast one receiver; the receiver's downlink
	// must accumulate backlog. A single packet leaves none.
	eng, f, nics := testFabric(t, 4, Config{})
	nics[0].Deliver = func(p *Packet) {}
	nics[1].Inject(&Packet{Dst: nics[0].Host, Group: NoGroup, PayloadBytes: 4096})
	eng.Run()
	if f.MaxBacklog() != 0 {
		t.Fatalf("single packet left backlog %v", f.MaxBacklog())
	}
	for i := 0; i < 100; i++ {
		for s := 1; s < 4; s++ {
			nics[s].Inject(&Packet{Dst: nics[0].Host, Group: NoGroup, PayloadBytes: 4096})
		}
	}
	eng.Run()
	if f.MaxBacklog() < 10*sim.Microsecond {
		t.Fatalf("incast backlog %v, want substantial queueing", f.MaxBacklog())
	}
	f.ResetCounters()
	if f.MaxBacklog() != 0 {
		t.Fatal("ResetCounters did not clear backlog")
	}
}

// --- scenario extension layer ------------------------------------------------

// uplinkOf returns the directed channel leaving host toward its switch.
func uplinkOf(t *testing.T, f *Fabric, host topology.NodeID) ChannelID {
	t.Helper()
	for id := 0; id < f.NumChannels(); id++ {
		from, _ := f.ChannelEnds(ChannelID(id))
		if from == host {
			return ChannelID(id)
		}
	}
	t.Fatalf("host %d has no uplink channel", host)
	return -1
}

func TestPortStatsMaxBacklogGauge(t *testing.T) {
	// The per-channel backlog gauge must be observable through ChannelStats:
	// an incast toward one host shows up on that host's downlink and only
	// there, making scenario hotspots measurable per port.
	eng, f, nics := testFabric(t, 4, Config{})
	nics[0].Deliver = func(p *Packet) {}
	for i := 0; i < 50; i++ {
		for s := 1; s < 4; s++ {
			nics[s].Inject(&Packet{Dst: nics[0].Host, Group: NoGroup, PayloadBytes: 4096})
		}
	}
	eng.Run()
	hub := f.Graph().Switches()[0]
	down := f.ChannelStats(hub, nics[0].Host)
	if down.MaxBacklog < 10*sim.Microsecond {
		t.Fatalf("victim downlink MaxBacklog = %v, want substantial queueing", down.MaxBacklog)
	}
	quietDown := f.ChannelStats(hub, nics[1].Host)
	if quietDown.MaxBacklog != 0 {
		t.Fatalf("idle downlink MaxBacklog = %v, want 0", quietDown.MaxBacklog)
	}
	if got, want := f.MaxBacklog(), down.MaxBacklog; got != want {
		t.Fatalf("fabric MaxBacklog = %v, want the hot channel's %v", got, want)
	}
}

func TestBandwidthScaleOverride(t *testing.T) {
	// Halving a host uplink's bandwidth must double its serialization time;
	// scale 1 must restore the exact baseline delivery time.
	deliveryAt := func(scale float64) sim.Time {
		eng, f, nics := testFabric(t, 2, Config{})
		var at sim.Time
		nics[1].Deliver = func(p *Packet) { at = eng.Now() }
		up := uplinkOf(t, f, nics[0].Host)
		if scale != 0 {
			f.SetBandwidthScale(up, scale)
		}
		nics[0].Inject(&Packet{Dst: nics[1].Host, Group: NoGroup, PayloadBytes: 4096})
		eng.Run()
		return at
	}
	base, restored := deliveryAt(0), deliveryAt(1)
	if base != restored {
		t.Fatalf("scale 1 delivery %v differs from baseline %v", restored, base)
	}
	slow := deliveryAt(0.5)
	// Serialization on the degraded hop doubles; the other hop and both
	// propagation delays are unchanged.
	bw := 25e9
	wire := sim.Time(float64(4096+64) / bw * 1e9)
	if diff := slow - base; diff < wire-2 || diff > wire+2 {
		t.Fatalf("0.5x scale added %v, want ≈ one extra wire time %v", diff, wire)
	}
}

func TestDropRateOverrideAndRestore(t *testing.T) {
	// SetDropRate(id, 1) takes the channel down: every traversal drops and
	// the reliability counters tick. Clearing the override restores
	// delivery on an otherwise lossless fabric.
	eng, f, nics := testFabric(t, 2, Config{})
	got := 0
	nics[1].Deliver = func(p *Packet) { got++ }
	up := uplinkOf(t, f, nics[0].Host)
	f.SetDropRate(up, 1)
	nics[0].Inject(&Packet{Dst: nics[1].Host, Group: NoGroup, PayloadBytes: 1024})
	eng.Run()
	if got != 0 || f.TotalDropped != 1 {
		t.Fatalf("downed link delivered %d packets, dropped %d; want 0 and 1", got, f.TotalDropped)
	}
	if s := f.ChannelStats(nics[0].Host, f.Graph().Switches()[0]); s.Drops != 1 {
		t.Fatalf("per-channel Drops = %d, want 1", s.Drops)
	}
	f.SetDropRate(up, -1) // restore the (zero) configured rate
	nics[0].Inject(&Packet{Dst: nics[1].Host, Group: NoGroup, PayloadBytes: 1024})
	eng.Run()
	if got != 1 {
		t.Fatalf("restored link delivered %d packets, want 1", got)
	}
}

func TestExtraLatencyOverride(t *testing.T) {
	eng, f, nics := testFabric(t, 2, Config{})
	var at sim.Time
	nics[1].Deliver = func(p *Packet) { at = eng.Now() }
	up := uplinkOf(t, f, nics[0].Host)
	nics[0].Inject(&Packet{Dst: nics[1].Host, Group: NoGroup, PayloadBytes: 1024})
	eng.Run()
	base := at
	f.SetExtraLatency(up, 5*sim.Microsecond)
	start := eng.Now()
	nics[0].Inject(&Packet{Dst: nics[1].Host, Group: NoGroup, PayloadBytes: 1024})
	eng.Run()
	if got, want := at-start, base+5*sim.Microsecond; got != want {
		t.Fatalf("delayed delivery after %v, want %v", got, want)
	}
	f.ClearOverrides(up)
	start = eng.Now()
	nics[0].Inject(&Packet{Dst: nics[1].Host, Group: NoGroup, PayloadBytes: 1024})
	eng.Run()
	if got := at - start; got != base {
		t.Fatalf("cleared override delivery after %v, want baseline %v", got, base)
	}
}

func TestBackgroundInjectionOccupiesChannels(t *testing.T) {
	// Background packets must contend for the same serializers as
	// collective traffic (delaying it), count on the background gauges, and
	// never reach a NIC's Deliver callback.
	quietAt := func(bg int) sim.Time {
		eng, f, nics := testFabric(t, 3, Config{})
		var at sim.Time
		delivered := 0
		nics[1].Deliver = func(p *Packet) { at, delivered = eng.Now(), delivered+1 }
		for i := 0; i < bg; i++ {
			// Tenant flow shares host 0's uplink with the measured packet.
			f.InjectBackground(nics[0].Host, nics[2].Host, 4096, uint64(i))
		}
		nics[0].Inject(&Packet{Dst: nics[1].Host, Group: NoGroup, PayloadBytes: 1024})
		eng.Run()
		if delivered != 1 {
			t.Fatalf("measured packet delivered %d times, want 1", delivered)
		}
		if f.BackgroundInjected != uint64(bg) || f.BackgroundDelivered != uint64(bg) {
			t.Fatalf("background counters injected=%d delivered=%d, want %d each",
				f.BackgroundInjected, f.BackgroundDelivered, bg)
		}
		if f.BackgroundBytes != uint64(bg*4096) {
			t.Fatalf("BackgroundBytes = %d, want %d", f.BackgroundBytes, bg*4096)
		}
		return at
	}
	if base, loaded := quietAt(0), quietAt(10); loaded <= base {
		t.Fatalf("10 background packets did not delay delivery (%v vs %v)", loaded, base)
	}
}
