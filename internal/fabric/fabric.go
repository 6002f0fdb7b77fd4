// Package fabric is a deterministic packet-level network simulator. It
// models the parts of a lossless RDMA fabric that the paper's protocol and
// evaluation depend on:
//
//   - store-and-forward switching on a topology.Graph with per-channel
//     serialization (bandwidth) and per-hop propagation latency, so that
//     congestion, incast and receive-path bottlenecks emerge naturally;
//   - hardware multicast: switches replicate a datagram along a spanning
//     tree, one copy per link — the property that makes the paper's
//     Allgather bandwidth-optimal;
//   - unicast multipath routing, either deterministic (flow hash) or
//     adaptive (per-packet random uplink), the latter reordering packets
//     exactly as §III-B anticipates for next-generation fabrics;
//   - Bernoulli fabric drops (link-layer corruption, §III-C) so the
//     reliability slow path has something to recover from;
//   - per-port byte/packet counters, mirroring the switch counters the
//     paper reads for the Figure 12 traffic-reduction experiment.
//
// A hop's landing fires at the (time, sequence number) its booking gives it.
// At a congested switch port the hop waits in the port's FIFO rather than
// in the engine until a hop ahead of it lands (hold.go); a held hop counts
// as scheduled in Packet.refs and the engine's Scheduled and Pending.
package fabric

import (
	"fmt"

	"repro/internal/sim"
	"repro/internal/topology"
)

// GroupID names a multicast group. Negative means unicast.
type GroupID int

// NoGroup marks a packet as unicast.
const NoGroup GroupID = -1

// Packet is one datagram on the wire. Payload is opaque to the fabric; the
// verbs layer stores its own header structure there.
type Packet struct {
	Src     topology.NodeID
	Dst     topology.NodeID // destination host (unicast only)
	Group   GroupID         // multicast group, or NoGroup
	Flow    uint64          // flow label for deterministic ECMP hashing
	Payload any
	// Background marks non-collective tenant traffic injected through
	// InjectBackground: it occupies channels and counters like any other
	// packet but is never handed to a NIC's Deliver callback.
	Background bool
	// Reduce routes the packet up an in-network reduction tree instead of
	// toward Dst; the root forwards one result per ReduceChunk to Dst.
	Reduce      ReduceGroupID
	ReduceChunk uint64
	// PayloadBytes is the user data size; WireBytes (payload + header) is
	// what occupies link capacity and counters.
	PayloadBytes int
	// refs counts the scheduled hops carrying the packet: arrivals, held
	// hops and jittered deliveries. A multicast packet is one object on
	// every branch of its tree, so it has one ref per branch in flight.
	refs int32
}

// packetPool is the fabric's free list of packets, and the only place a
// packet comes from: a train makes one per segment (see Train). A packet
// is the fabric's alone. Every handler that a scheduled hop fires ends in
// landed, and the hop that drops refs to zero files the packet back,
// Payload still attached and every other field zeroed: the last tree
// branch to land, the host delivery (NIC.Deliver has returned), the root
// absorbing a reduce contribution, or a drop. made counts the packets the
// pool has allocated.
type packetPool struct {
	free []*Packet
	made int
}

func (p *packetPool) get() *Packet {
	if n := len(p.free); n > 0 {
		pkt := p.free[n-1]
		p.free[n-1] = nil
		p.free = p.free[:n-1]
		return pkt
	}
	p.made++
	return &Packet{Group: NoGroup}
}

func (p *packetPool) put(pkt *Packet) {
	*pkt = Packet{Group: NoGroup, Payload: pkt.Payload}
	p.free = append(p.free, pkt)
}

// landed retires one scheduled hop of pkt, after its handler's work; the
// last one files the packet back.
func (f *Fabric) landed(pkt *Packet) {
	if pkt.refs--; pkt.refs == 0 {
		f.pool.put(pkt)
	}
}

// HeaderBytes is the per-packet wire overhead (LRH+BTH+GRH+ICRC...).
const HeaderBytes = 64

// Config parameterizes the fabric.
type Config struct {
	// LinkBandwidth is the capacity of every channel in bytes/second.
	// 200 Gbit/s = 25e9. Zero defaults to 25e9.
	LinkBandwidth float64
	// LinkLatency is per-hop propagation plus switch pipeline delay.
	// Zero defaults to 250 ns (short copper + cut-through switch).
	LinkLatency sim.Time
	// HostLinkBandwidth optionally overrides bandwidth on host-switch
	// channels (NIC injection/reception rate). Zero means LinkBandwidth.
	HostLinkBandwidth float64
	// MTU is the maximum payload per packet. Zero defaults to 4096.
	MTU int
	// DropRate is the independent probability that any single channel
	// traversal corrupts the packet (fabric drop). The paper cites BERs of
	// 1e-12..1e-15; tests crank this up to exercise the recovery path.
	DropRate float64
	// AdaptiveRouting selects a random shortest-path candidate per packet
	// instead of hashing the flow, introducing reordering.
	AdaptiveRouting bool
	// ReorderJitter, when nonzero, adds uniform random [0, ReorderJitter)
	// latency to each final-hop delivery, emulating out-of-order arrival
	// within a single path (e.g., spraying inside trunk groups).
	ReorderJitter sim.Time
}

func (c Config) withDefaults() Config {
	if c.LinkBandwidth == 0 {
		c.LinkBandwidth = 25e9
	}
	if c.HostLinkBandwidth == 0 {
		c.HostLinkBandwidth = c.LinkBandwidth
	}
	if c.LinkLatency == 0 {
		c.LinkLatency = 250 * sim.Nanosecond
	}
	if c.MTU == 0 {
		c.MTU = 4096
	}
	return c
}

// PortStats counts traffic on one directed channel (an egress port).
type PortStats struct {
	Packets uint64
	Bytes   uint64 // wire bytes, including headers
	Drops   uint64 // packets corrupted while crossing this channel
	// MaxBacklog is the worst queueing delay observed at this egress port:
	// how far nextFree ran ahead of the clock when a packet was enqueued.
	// Incast congestion (the §IV-A motivation for the broadcast sequencer)
	// and scenario-injected hotspots show up here.
	MaxBacklog sim.Time
	// Busy accumulates serialization time booked on this channel — the
	// virtual time its serializer spent occupied. Busy over the run span
	// is the channel's utilization; telemetry ranks channels by it.
	Busy sim.Time
}

// channel is one direction of a link: a serializing resource. baseBw is the
// configured capacity; bw is the effective capacity after any scenario
// override (bw == baseBw when no override is active, so the quiet path
// computes bit-identical serialization times). serCache memoizes the last
// serialization time by wire size, dropping the FP division from the
// common same-size-packet case without changing a single bit of the result
// (a reciprocal would round differently in the last ulp and move goldens).
// The endpoints are NodeIDs stored as int32: the channels, two per link,
// are the bulk of a fabric's memory, and the narrow fields keep them small.
type channel struct {
	from, to int32   // topology.NodeIDs
	serSize  int32   // wire size the cached serialization time is for
	hops     int32   // the channel's hop landings queued in the engine
	bw       float64 // effective bytes/sec
	baseBw   float64 // configured bytes/sec
	serTime  sim.Time
	extraLat sim.Time
	// dropOverride replaces Config.DropRate on this channel when >= 0.
	dropOverride float64
	nextFree     sim.Time
	stats        PortStats
}

// NIC is the fabric attachment point of one host. The verbs layer sets
// Deliver to receive packets; Deliver runs at packet arrival time.
type NIC struct {
	Host    topology.NodeID
	f       *Fabric
	Deliver func(pkt *Packet)
	// groups[gid] is set while this NIC is attached to the group (receives
	// multicast for it); grown on attach.
	groups []bool
	// Injected/Received count packets through this NIC for diagnostics.
	Injected uint64
	Received uint64
}

// Fabric is a live simulated network bound to an engine and a topology.
type Fabric struct {
	eng *sim.Engine
	g   *topology.Graph
	rt  *topology.RoutingTable
	cfg Config
	rng *sim.RNG

	// Pre-built sim.Handler instances for the fabric event kinds, so the
	// per-hop scheduling path is closure-free and allocation-free.
	arriveH  sim.Handler
	alightH  sim.Handler
	deliverH sim.Handler

	// chans[2*linkID+dir]: dir 0 = A->B, dir 1 = B->A.
	chans []channel
	// portChan[portBase[node]+port] is the index in chans of the channel
	// leaving node through port (see egress).
	portBase []int32
	portChan []int32
	// nics[node] is the host's NIC, nil until attached.
	nics         []*NIC
	pool         packetPool
	trains       []*Train // free list of NewTrain
	trainsMade   int      // trains NewTrain has allocated
	groups       []*topology.MulticastTree
	reduceGroups []*reduceGroup
	// fifos[c] is switch port c's FIFO of held hops, made when the port
	// first needs one; their hops wait in chunks carved from heldSlab,
	// heldChunks of them so far, and recycled through freeHeld.
	fifos      []*portFIFO
	heldSlab   []heldChunk
	heldChunks int
	freeHeld   *heldChunk

	// TotalDropped counts fabric drops across all channels.
	TotalDropped uint64
	// Background-traffic counters (packets injected via InjectBackground).
	BackgroundInjected  uint64
	BackgroundDelivered uint64
	BackgroundBytes     uint64 // payload bytes injected
}

// New builds a fabric over graph g, routing on the table g memoizes: the
// first fabric on a graph computes it, every later one shares it.
func New(eng *sim.Engine, g *topology.Graph, cfg Config) *Fabric {
	cfg = cfg.withDefaults()
	f := &Fabric{
		eng:  eng,
		g:    g,
		rt:   g.Routing(),
		cfg:  cfg,
		rng:  eng.SplitRNG(),
		nics: make([]*NIC, len(g.Nodes)),
	}
	f.arriveH = (*arriveHandler)(f)
	f.alightH = (*alightHandler)(f)
	f.deliverH = (*deliverHandler)(f)
	f.chans = make([]channel, 2*len(g.Links))
	for _, l := range g.Links {
		bwAB, bwBA := cfg.LinkBandwidth, cfg.LinkBandwidth
		if g.Nodes[l.A].Kind == topology.Host || g.Nodes[l.B].Kind == topology.Host {
			bwAB, bwBA = cfg.HostLinkBandwidth, cfg.HostLinkBandwidth
		}
		a, b := int32(l.A), int32(l.B)
		f.chans[2*l.ID] = channel{from: a, to: b, bw: bwAB, baseBw: bwAB, serSize: -1, dropOverride: -1}
		f.chans[2*l.ID+1] = channel{from: b, to: a, bw: bwBA, baseBw: bwBA, serSize: -1, dropOverride: -1}
	}
	f.portBase = make([]int32, len(g.Nodes))
	f.portChan = make([]int32, 0, 2*len(g.Links))
	for node, adj := range g.Adj {
		f.portBase[node] = int32(len(f.portChan))
		for _, nb := range adj {
			c := 2 * nb.Link
			if g.Links[nb.Link].A != topology.NodeID(node) {
				c++
			}
			f.portChan = append(f.portChan, int32(c))
		}
	}
	return f
}

// egress returns the index in chans of the channel leaving node through
// port; the channel's link is the index halved.
func (f *Fabric) egress(node topology.NodeID, port int) int {
	return int(f.portChan[int(f.portBase[node])+port])
}

// Config returns the effective (defaulted) configuration.
func (f *Fabric) Config() Config { return f.cfg }

// Graph returns the underlying topology.
func (f *Fabric) Graph() *topology.Graph { return f.g }

// Engine returns the simulation engine driving this fabric.
func (f *Fabric) Engine() *sim.Engine { return f.eng }

// AttachNIC registers (or returns the existing) NIC for a host.
func (f *Fabric) AttachNIC(host topology.NodeID) *NIC {
	if f.g.Nodes[host].Kind != topology.Host {
		panic(fmt.Sprintf("fabric: AttachNIC(%d): not a host", host))
	}
	if nic := f.nics[host]; nic != nil {
		return nic
	}
	nic := &NIC{Host: host, f: f}
	f.nics[host] = nic
	return nic
}

// CreateGroup builds a multicast group over members, rooted at the given
// switch. Use round-robin roots across spines to spread subgroup trees.
func (f *Fabric) CreateGroup(root topology.NodeID, members []topology.NodeID) (GroupID, error) {
	mt, err := f.g.BuildMulticastTree(root, members)
	if err != nil {
		return NoGroup, err
	}
	id := GroupID(len(f.groups))
	f.groups = append(f.groups, mt)
	return id, nil
}

// AttachGroup subscribes a NIC to a multicast group. Only hosts that are
// members of the group's tree may attach.
func (n *NIC) AttachGroup(gid GroupID) error {
	mt := n.f.groups[gid]
	if !mt.OnTree(n.Host) {
		return fmt.Errorf("fabric: host %d is not a member of group %d", n.Host, gid)
	}
	for len(n.groups) <= int(gid) {
		n.groups = append(n.groups, false)
	}
	n.groups[gid] = true
	return nil
}

// attached reports whether the NIC is subscribed to gid.
func (n *NIC) attached(gid GroupID) bool { return int(gid) < len(n.groups) && n.groups[gid] }

// MaxPayload returns the fabric MTU (maximum packet payload bytes).
func (f *Fabric) MaxPayload() int { return f.cfg.MTU }

// Inject sends one packet of at most one MTU from this NIC as a one-segment
// Train, and returns when it finishes serializing onto the host uplink.
// The packet the fabric carries is its own, a copy of pkt's addressing and
// Payload: pkt never enters the fabric.
func (n *NIC) Inject(pkt *Packet) sim.Time {
	if pkt.PayloadBytes > n.f.cfg.MTU {
		panic(fmt.Sprintf("fabric: payload %d exceeds MTU %d", pkt.PayloadBytes, n.f.cfg.MTU))
	}
	tr := n.NewTrain()
	tr.Dst, tr.Group, tr.Flow, tr.Bytes = pkt.Dst, pkt.Group, pkt.Flow, pkt.PayloadBytes
	tr.Reduce, tr.ReduceChunk, tr.Header = pkt.Reduce, pkt.ReduceChunk, (*packetHeader)(pkt)
	return n.InjectTrain(tr)
}

// packetHeader is the Segmenter of a packet sent with Inject.
type packetHeader Packet

func (h *packetHeader) Segment(pkt *Packet, _ int) { pkt.Payload = h.Payload }

// wireBytes is the link occupancy of the packet.
func (f *Fabric) wireBytes(pkt *Packet) int { return pkt.PayloadBytes + HeaderBytes }

// serialization returns the wire time of size bytes on the channel,
// memoizing the last (size, time) pair: back-to-back traffic on a channel
// is overwhelmingly same-sized (MTU chunks one way, acks the other), so the
// common case skips the division entirely — and a cache hit is bit-exact,
// where a precomputed 1e9/bw reciprocal would round differently in the
// last ulp and shift event times.
func (ch *channel) serialization(size int) sim.Time {
	if size == int(ch.serSize) {
		return ch.serTime
	}
	t := sim.Time(float64(size) / ch.bw * 1e9)
	ch.serSize, ch.serTime = int32(size), t
	return t
}

// transmit serializes pkt onto the channel leaving switch node via port,
// then schedules arrival processing at the peer or holds it (see hold). It
// returns the serialization completion time on that channel. A host's
// uplink is booked by its trains instead (see Train).
func (f *Fabric) transmit(pkt *Packet, node topology.NodeID, port int) sim.Time {
	c := f.egress(node, port)
	ch := &f.chans[c]
	if !f.book(ch, f.wireBytes(pkt)) {
		return ch.nextFree
	}
	arrival := ch.nextFree + f.cfg.LinkLatency + ch.extraLat
	pkt.refs++
	if ch.hops < holdDepth || !f.hold(c, arrival, pkt) {
		ch.hops++
		f.eng.AtHandler(arrival, f.arriveH, uint64(ch.to), c, pkt)
	}
	return ch.nextFree
}

// book serializes size wire bytes onto ch after everything already booked
// there, counts them, and draws the channel's fabric drop: it reports
// whether the packet survives the crossing. A dropped packet still occupied
// the channel. A scenario override replaces the global drop rate.
func (f *Fabric) book(ch *channel, size int) bool {
	serialize := ch.serialization(size)
	start := ch.nextFree
	now := f.eng.Now()
	if start < now {
		start = now
	} else if backlog := start - now; backlog > ch.stats.MaxBacklog {
		ch.stats.MaxBacklog = backlog
	}
	ch.nextFree = start + serialize
	ch.stats.Packets++
	ch.stats.Bytes += uint64(size)
	ch.stats.Busy += serialize

	rate := f.cfg.DropRate
	if ch.dropOverride >= 0 {
		rate = ch.dropOverride
	}
	if rate > 0 && f.rng.Bernoulli(rate) {
		ch.stats.Drops++
		f.TotalDropped++
		return false
	}
	return true
}

// arriveHandler dispatches a packet's landing at a node, which queues the
// next hop held at the channel it crossed; arg0 is the node, arg1 the
// channel, obj the *Packet.
type arriveHandler Fabric

func (h *arriveHandler) OnEvent(_ *sim.Engine, _ sim.Handle, arg0 uint64, arg1 int, obj any) {
	f, pkt := (*Fabric)(h), obj.(*Packet)
	f.chans[arg1].hops--
	if f.fifos != nil && f.fifos[arg1] != nil {
		f.release(arg1)
	}
	f.arrive(pkt, topology.NodeID(arg0), arg1>>1)
	f.landed(pkt)
}

// deliverHandler completes a jittered final-hop delivery; arg0 is the host,
// obj the *Packet.
type deliverHandler Fabric

func (h *deliverHandler) OnEvent(_ *sim.Engine, _ sim.Handle, arg0 uint64, _ int, obj any) {
	f, pkt := (*Fabric)(h), obj.(*Packet)
	if nic := f.nics[arg0]; nic != nil {
		f.deliverNow(nic, pkt)
	}
	f.landed(pkt)
}

// arrive processes a packet landing at node after crossing link.
func (f *Fabric) arrive(pkt *Packet, node topology.NodeID, link int) {
	if f.g.Nodes[node].Kind == topology.Host {
		f.deliverToHost(pkt, node)
		return
	}
	if pkt.Reduce != NoReduceGroup {
		f.routeReduce(pkt, node)
		return
	}
	if pkt.Group != NoGroup {
		f.forwardMulticast(pkt, node, link)
		return
	}
	f.forwardUnicast(pkt, node, link)
}

// ecmpHash is the deterministic multipath hash over (flow, src, dst).
func ecmpHash(flow uint64, src, dst topology.NodeID) uint64 {
	h := flow*0x9E3779B97F4A7C15 + uint64(src)*0x517CC1B727220A95 + uint64(dst)
	return h ^ (h >> 29)
}

func (f *Fabric) forwardUnicast(pkt *Packet, sw topology.NodeID, ingress int) {
	cands := f.rt.Candidates(sw, pkt.Dst)
	if len(cands) == 0 {
		panic(fmt.Sprintf("fabric: switch %d has no route to %d", sw, pkt.Dst))
	}
	var port int
	switch {
	case len(cands) == 1:
		port = cands[0]
	case f.cfg.AdaptiveRouting:
		port = cands[f.rng.Intn(len(cands))]
	default:
		port = cands[ecmpHash(pkt.Flow, pkt.Src, pkt.Dst)%uint64(len(cands))]
	}
	f.transmit(pkt, sw, port)
}

func (f *Fabric) forwardMulticast(pkt *Packet, sw topology.NodeID, ingress int) {
	mt := f.groups[pkt.Group]
	ports := mt.TreePorts[sw]
	if len(ports) == 0 {
		// A multicast packet reached a switch outside the tree: indicates a
		// tree-construction bug; fail loudly.
		panic(fmt.Sprintf("fabric: multicast packet for group %d at off-tree switch %d", pkt.Group, sw))
	}
	for _, p := range ports {
		if f.egress(sw, p)>>1 == ingress {
			continue // never reflect back toward the sender
		}
		f.transmit(pkt, sw, p)
	}
}

func (f *Fabric) deliverToHost(pkt *Packet, host topology.NodeID) {
	if pkt.Background {
		f.BackgroundDelivered++
		return
	}
	nic := f.nics[host]
	if nic == nil {
		return // host without a NIC silently drops (e.g. non-participants)
	}
	if pkt.Group != NoGroup && !nic.attached(pkt.Group) {
		return // on the tree for forwarding reasons but not attached
	}
	if j := f.cfg.ReorderJitter; j > 0 {
		pkt.refs++
		f.eng.AfterHandler(sim.Time(f.rng.Intn(int(j))), f.deliverH, uint64(host), 0, pkt)
		return
	}
	f.deliverNow(nic, pkt)
}

func (f *Fabric) deliverNow(nic *NIC, pkt *Packet) {
	nic.Received++
	if nic.Deliver != nil {
		nic.Deliver(pkt)
	}
}

// --- dynamic channel overrides (scenario extension layer) ------------------
//
// The scenario subsystem perturbs a live fabric through these handles: each
// directed channel can have its bandwidth scaled, extra latency added, or
// its drop rate replaced, and every override is restorable mid-simulation.
// With no override active the transmit path computes bit-identical results
// to the static configuration, so a "quiet" scenario does not move a single
// event.

// ChannelID identifies one directed channel: 2*linkID for the A->B
// direction of topology link linkID, 2*linkID+1 for B->A.
type ChannelID int

// NumChannels returns the number of directed channels (2 per link).
func (f *Fabric) NumChannels() int { return len(f.chans) }

// ChannelEnds returns the endpoints of a directed channel, transmit side
// first.
func (f *Fabric) ChannelEnds(id ChannelID) (from, to topology.NodeID) {
	ch := &f.chans[id]
	return topology.NodeID(ch.from), topology.NodeID(ch.to)
}

// ChannelBacklog returns the current queueing delay on the channel: how far
// its serializer is booked past the present.
func (f *Fabric) ChannelBacklog(id ChannelID) sim.Time {
	if d := f.chans[id].nextFree - f.eng.Now(); d > 0 {
		return d
	}
	return 0
}

// SetBandwidthScale sets the channel's effective capacity to scale times
// its configured bandwidth (1 restores full speed). Packets already
// serialized keep their times; only future transmissions see the change.
func (f *Fabric) SetBandwidthScale(id ChannelID, scale float64) {
	if scale <= 0 {
		panic(fmt.Sprintf("fabric: bandwidth scale %v must be positive (use SetDropRate(id, 1) for an outage)", scale))
	}
	ch := &f.chans[id]
	ch.serSize = -1 // invalidate the memoized serialization time
	if scale == 1 {
		ch.bw = ch.baseBw
		return
	}
	ch.bw = ch.baseBw * scale
}

// SetExtraLatency adds d to every future traversal of the channel on top of
// the configured link latency (0 restores the baseline).
func (f *Fabric) SetExtraLatency(id ChannelID, d sim.Time) {
	if d < 0 {
		panic(fmt.Sprintf("fabric: negative extra latency %v", d))
	}
	f.setExtraLat(int(id), d)
}

// DropRateOverride returns the channel's current drop-rate override, or a
// negative value when none is set (the global Config.DropRate applies).
// Injectors that stack on the same channel snapshot it before perturbing
// so their restore puts back what they found, not the global default.
func (f *Fabric) DropRateOverride(id ChannelID) float64 {
	return f.chans[id].dropOverride
}

// SetDropRate replaces Config.DropRate on this channel: 0 makes it
// lossless, 1 takes it down entirely (every traversal drops), and a
// negative rate clears the override, restoring the global configuration.
func (f *Fabric) SetDropRate(id ChannelID, rate float64) {
	if rate > 1 {
		rate = 1
	}
	if rate < 0 {
		rate = -1
	}
	f.chans[id].dropOverride = rate
}

// ClearOverrides restores the channel's configured bandwidth, latency and
// drop behavior.
func (f *Fabric) ClearOverrides(id ChannelID) {
	ch := &f.chans[id]
	ch.bw = ch.baseBw
	ch.serSize = -1
	ch.dropOverride = -1
	f.setExtraLat(int(id), 0)
}

// UnicastPath returns the directed channels a unicast flow traverses from
// src host to dst host under deterministic ECMP — the static path the flow
// label pins. With AdaptiveRouting enabled the actual per-packet path is
// random; the returned path is then one representative shortest path.
// Scenario-level congestion control uses it to watch a flow's queues.
func (f *Fabric) UnicastPath(src, dst topology.NodeID, flow uint64) []ChannelID {
	if f.g.Nodes[src].Kind != topology.Host || f.g.Nodes[dst].Kind != topology.Host {
		panic(fmt.Sprintf("fabric: UnicastPath(%d, %d): endpoints must be hosts", src, dst))
	}
	var path []ChannelID
	node := src
	for node != dst {
		var port int
		if f.g.Nodes[node].Kind == topology.Host {
			port = 0 // the host's single uplink
		} else {
			cands := f.rt.Candidates(node, dst)
			if len(cands) == 0 {
				panic(fmt.Sprintf("fabric: switch %d has no route to %d", node, dst))
			}
			port = cands[0]
			if len(cands) > 1 {
				port = cands[ecmpHash(flow, src, dst)%uint64(len(cands))]
			}
		}
		c := f.egress(node, port)
		path = append(path, ChannelID(c))
		node = topology.NodeID(f.chans[c].to)
	}
	return path
}

// InjectBackground sends one non-collective packet from src toward dst,
// occupying the same channels (and the same serialization slots) as
// collective traffic — the packet-injection hook the multi-tenant scenarios
// stand on. It leaves src as a one-segment background Train. Both
// endpoints must be hosts, and neither needs a NIC: the packet is only
// counted, on injection and on delivery. Returns the time the packet
// finishes serializing onto src's uplink.
func (f *Fabric) InjectBackground(src, dst topology.NodeID, payloadBytes int, flow uint64) sim.Time {
	if f.g.Nodes[src].Kind != topology.Host || f.g.Nodes[dst].Kind != topology.Host {
		panic(fmt.Sprintf("fabric: background flow %d->%d endpoints must be hosts", src, dst))
	}
	if payloadBytes > f.cfg.MTU {
		panic(fmt.Sprintf("fabric: background payload %d exceeds MTU %d", payloadBytes, f.cfg.MTU))
	}
	tr := f.newTrain()
	tr.Dst, tr.Flow, tr.Bytes, tr.Background = dst, flow, payloadBytes, true
	wire := f.inject(src, tr, &f.BackgroundInjected)
	f.BackgroundBytes += uint64(payloadBytes)
	return wire
}

// --- counters -------------------------------------------------------------

// ChannelStats returns stats for the directed channel from -> to over the
// first link connecting them.
func (f *Fabric) ChannelStats(from, to topology.NodeID) PortStats {
	for li, l := range f.g.Links {
		if l.A == from && l.B == to {
			return f.chans[2*li].stats
		}
		if l.B == from && l.A == to {
			return f.chans[2*li+1].stats
		}
	}
	return PortStats{}
}

// SwitchEgressBytes sums wire bytes transmitted out of every switch port —
// the quantity the paper measures with switch performance counters in
// Figure 12 ("traffic across all switch ports").
func (f *Fabric) SwitchEgressBytes() uint64 {
	var total uint64
	for i := range f.chans {
		ch := &f.chans[i]
		if f.g.Nodes[ch.from].Kind == topology.Switch {
			total += ch.stats.Bytes
		}
	}
	return total
}

// SwitchPortBytes sums traffic over every switch port in both directions —
// the quantity the paper's Figure 12 reads from the SX6036 performance
// counters. A channel between two switches crosses two switch ports (one
// TX, one RX) and counts twice; a host-switch channel counts once.
func (f *Fabric) SwitchPortBytes() uint64 {
	var total uint64
	for i := range f.chans {
		ch := &f.chans[i]
		if f.g.Nodes[ch.from].Kind == topology.Switch {
			total += ch.stats.Bytes
		}
		if f.g.Nodes[ch.to].Kind == topology.Switch {
			total += ch.stats.Bytes
		}
	}
	return total
}

// TotalWireBytes sums bytes over every channel, including host injection.
func (f *Fabric) TotalWireBytes() uint64 {
	var total uint64
	for i := range f.chans {
		total += f.chans[i].stats.Bytes
	}
	return total
}

// MaxBacklog returns the worst egress queueing delay observed on any
// switch port — the congestion signature of simultaneous multicast roots.
func (f *Fabric) MaxBacklog() sim.Time {
	var max sim.Time
	for i := range f.chans {
		ch := &f.chans[i]
		if f.g.Nodes[ch.from].Kind == topology.Switch && ch.stats.MaxBacklog > max {
			max = ch.stats.MaxBacklog
		}
	}
	return max
}

// ResetCounters zeroes all channel statistics (between experiment phases).
func (f *Fabric) ResetCounters() {
	for i := range f.chans {
		f.chans[i].stats = PortStats{}
	}
	f.TotalDropped = 0
	f.BackgroundInjected, f.BackgroundDelivered, f.BackgroundBytes = 0, 0, 0
	for _, nic := range f.nics {
		if nic != nil {
			nic.Injected, nic.Received = 0, 0
		}
	}
}
