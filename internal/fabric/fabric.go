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
	ID      uint64
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
	// pooled marks a packet born in NIC.NewPacket or InjectBackground: the
	// fabric takes it back once it has been delivered.
	pooled bool
}

// packetPool is the fabric's free list of unicast packets. A pool-born
// packet belongs to whoever holds it from NewPacket until Inject, then to
// the fabric, which lends it to NIC.Deliver for the length of that call and
// files it back — Payload still attached, every other field zeroed. A
// contribution absorbed at an in-network reduction's root is filed the same
// way (the aggregation state keeps a count, not the packet). Multicast
// packets (one object on every tree branch), packets the caller allocated
// itself and dropped packets never enter the pool. made counts the packets
// the pool has allocated.
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
	return &Packet{Group: NoGroup, pooled: true}
}

func (p *packetPool) put(pkt *Packet) {
	if !pkt.pooled || pkt.Group != NoGroup {
		return
	}
	*pkt = Packet{Group: NoGroup, Payload: pkt.Payload, pooled: true}
	p.free = append(p.free, pkt)
}

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
	// HeaderBytes is per-packet wire overhead (LRH+BTH+GRH+ICRC...).
	// Zero defaults to 64.
	HeaderBytes int
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
	if c.HeaderBytes == 0 {
		c.HeaderBytes = 64
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
type channel struct {
	from, to topology.NodeID
	bw       float64 // effective bytes/sec
	baseBw   float64 // configured bytes/sec
	serSize  int     // wire size the cached serialization time is for
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
	// pktSeq numbers injections on a keyed fabric, whose packet IDs are
	// host<<32|seq.
	pktSeq uint64
}

// Fabric is a live simulated network bound to an engine and a topology.
type Fabric struct {
	eng *sim.Engine
	g   *topology.Graph
	rt  *topology.RoutingTable
	cfg Config
	rng *sim.RNG

	// Pre-built sim.Handler instances for the fabric event kinds, so the
	// per-hop scheduling path is closure-free and allocation-free. bookH
	// exists only on a keyed fabric (see keyed.go).
	arriveH  sim.Handler
	deliverH sim.Handler
	bookH    sim.Handler

	// part holds the dispatch-keying state once EnablePartition switched
	// the fabric to the keyed pipeline; nil means confined.
	part *partition

	// chans[2*linkID+dir]: dir 0 = A->B, dir 1 = B->A.
	chans []channel
	// nics[node] is the host's NIC, nil until attached.
	nics         []*NIC
	pool         packetPool
	groups       []*topology.MulticastTree
	reduceGroups []*reduceGroup

	nextPktID uint64
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
	f.deliverH = (*deliverHandler)(f)
	f.chans = make([]channel, 2*len(g.Links))
	for _, l := range g.Links {
		bwAB, bwBA := cfg.LinkBandwidth, cfg.LinkBandwidth
		if g.Nodes[l.A].Kind == topology.Host || g.Nodes[l.B].Kind == topology.Host {
			bwAB, bwBA = cfg.HostLinkBandwidth, cfg.HostLinkBandwidth
		}
		f.chans[2*l.ID] = channel{from: l.A, to: l.B, bw: bwAB, baseBw: bwAB, serSize: -1, dropOverride: -1}
		f.chans[2*l.ID+1] = channel{from: l.B, to: l.A, bw: bwBA, baseBw: bwBA, serSize: -1, dropOverride: -1}
	}
	return f
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

// NewPacket returns a zeroed unicast packet (Group NoGroup) from the
// fabric's pool for the caller to fill and Inject. Its Payload is whatever
// the packet last carried, or nil: a transport keeps its header object
// there and reuses it.
func (n *NIC) NewPacket() *Packet { return n.f.pool.get() }

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

// DetachGroup unsubscribes the NIC. Packets for the group still traverse
// the tree but are not delivered locally.
func (n *NIC) DetachGroup(gid GroupID) {
	if n.attached(gid) {
		n.groups[gid] = false
	}
}

// MaxPayload returns the fabric MTU (maximum packet payload bytes).
func (f *Fabric) MaxPayload() int { return f.cfg.MTU }

// Inject sends a packet from this NIC and returns the virtual time at which
// the packet finishes serializing onto the host uplink (the wire time a
// send completion would be reported by real hardware). The packet's Src is
// overwritten with the NIC's host. Payload size must not exceed the MTU:
// segmentation is the transport layer's job, exactly as with real verbs.
func (n *NIC) Inject(pkt *Packet) sim.Time {
	if pkt.PayloadBytes > n.f.cfg.MTU {
		panic(fmt.Sprintf("fabric: payload %d exceeds MTU %d", pkt.PayloadBytes, n.f.cfg.MTU))
	}
	if pkt.PayloadBytes < 0 {
		panic("fabric: negative payload size")
	}
	pkt.Src = n.Host
	if pkt.Group != NoGroup {
		mt := n.f.groups[pkt.Group]
		if !mt.OnTree(n.Host) {
			panic(fmt.Sprintf("fabric: host %d multicasting to group %d it is not attached to", n.Host, pkt.Group))
		}
	}
	n.Injected++
	if n.f.part != nil {
		return n.injectPartitioned(pkt)
	}
	pkt.ID = n.f.nextPktID
	n.f.nextPktID++
	// The host's single port is port 0; transmit up the host link.
	return n.f.transmit(pkt, n.Host, 0)
}

// wireBytes is the link occupancy of the packet.
func (f *Fabric) wireBytes(pkt *Packet) int { return pkt.PayloadBytes + f.cfg.HeaderBytes }

// serialization returns the wire time of size bytes on the channel,
// memoizing the last (size, time) pair: back-to-back traffic on a channel
// is overwhelmingly same-sized (MTU chunks one way, acks the other), so the
// common case skips the division entirely — and a cache hit is bit-exact,
// where a precomputed 1e9/bw reciprocal would round differently in the
// last ulp and shift event times.
func (ch *channel) serialization(size int) sim.Time {
	if size == ch.serSize {
		return ch.serTime
	}
	t := sim.Time(float64(size) / ch.bw * 1e9)
	ch.serSize, ch.serTime = size, t
	return t
}

// transmit serializes pkt onto the channel leaving node via port, then
// schedules arrival processing at the peer. It returns the serialization
// completion time on that channel.
func (f *Fabric) transmit(pkt *Packet, node topology.NodeID, port int) sim.Time {
	if f.part != nil {
		// Keyed hops go through book/dispatch; reaching the confined path
		// means a switch arrival slipped past the keyed pipeline.
		panic(fmt.Sprintf("fabric: confined transmit at node %d port %d on a keyed fabric", node, port))
	}
	nb := f.g.Adj[node][port]
	ch := f.channelFor(node, nb.Link)
	size := f.wireBytes(pkt)
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

	// Fabric drop: the packet occupies the channel but never arrives. A
	// scenario override replaces the global rate on this channel.
	rate := f.cfg.DropRate
	if ch.dropOverride >= 0 {
		rate = ch.dropOverride
	}
	if rate > 0 && f.rng.Bernoulli(rate) {
		ch.stats.Drops++
		f.TotalDropped++
		return ch.nextFree
	}

	arrival := ch.nextFree + f.cfg.LinkLatency + ch.extraLat
	f.eng.AtHandler(arrival, f.arriveH, uint64(nb.Peer), nb.Link, pkt)
	return ch.nextFree
}

// arriveHandler dispatches a packet's landing at a node; arg0 is the node,
// arg1 the link it crossed, obj the *Packet.
type arriveHandler Fabric

func (h *arriveHandler) OnEvent(_ *sim.Engine, _ sim.Handle, arg0 uint64, arg1 int, obj any) {
	(*Fabric)(h).arrive(obj.(*Packet), topology.NodeID(arg0), arg1)
}

// deliverHandler completes a jittered final-hop delivery; arg0 is the host,
// obj the *Packet.
type deliverHandler Fabric

func (h *deliverHandler) OnEvent(_ *sim.Engine, _ sim.Handle, arg0 uint64, _ int, obj any) {
	f := (*Fabric)(h)
	if nic := f.nics[arg0]; nic != nil {
		f.deliverNow(nic, obj.(*Packet))
	}
}

// channelFor returns the directed channel leaving `from` over link `link`.
func (f *Fabric) channelFor(from topology.NodeID, link int) *channel {
	l := f.g.Links[link]
	if l.A == from {
		return &f.chans[2*link]
	}
	return &f.chans[2*link+1]
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
		if f.g.Adj[sw][p].Link == ingress {
			continue // never reflect back toward the sender
		}
		f.transmit(pkt, sw, p)
	}
}

func (f *Fabric) deliverToHost(pkt *Packet, host topology.NodeID) {
	if pkt.Background {
		f.BackgroundDelivered++
		f.pool.put(pkt)
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
	f.pool.put(pkt)
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
	return ch.from, ch.to
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
	f.assertConfined(id, "SetBandwidthScale")
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
	f.assertConfined(id, "SetExtraLatency")
	f.chans[id].extraLat = d
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
	f.assertConfined(id, "SetDropRate")
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
	ch.extraLat = 0
	ch.dropOverride = -1
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
		nb := f.g.Adj[node][port]
		if f.g.Links[nb.Link].A == node {
			path = append(path, ChannelID(2*nb.Link))
		} else {
			path = append(path, ChannelID(2*nb.Link+1))
		}
		node = nb.Peer
	}
	return path
}

// InjectBackground sends one non-collective packet from src toward dst,
// occupying the same channels (and the same serialization slots) as
// collective traffic — the packet-injection hook the multi-tenant scenarios
// stand on. Both endpoints must be hosts; dst needs no NIC, the packet is
// only counted on delivery. Returns the time the packet finishes
// serializing onto src's uplink.
func (f *Fabric) InjectBackground(src, dst topology.NodeID, payloadBytes int, flow uint64) sim.Time {
	if f.g.Nodes[src].Kind != topology.Host || f.g.Nodes[dst].Kind != topology.Host {
		panic(fmt.Sprintf("fabric: background flow %d->%d endpoints must be hosts", src, dst))
	}
	if payloadBytes > f.cfg.MTU {
		panic(fmt.Sprintf("fabric: background payload %d exceeds MTU %d", payloadBytes, f.cfg.MTU))
	}
	if payloadBytes < 0 {
		panic("fabric: negative background payload size")
	}
	if f.part != nil {
		panic("fabric: background traffic requires the confined fabric (EnablePartition refuses scenarios; this fabric was keyed first)")
	}
	pkt := f.pool.get()
	pkt.Src, pkt.Dst, pkt.Flow = src, dst, flow
	pkt.PayloadBytes, pkt.Background = payloadBytes, true
	pkt.ID = f.nextPktID
	f.nextPktID++
	f.BackgroundInjected++
	f.BackgroundBytes += uint64(payloadBytes)
	return f.transmit(pkt, src, 0)
}

// assertConfined rejects a live per-channel override on a keyed fabric.
// EnablePartition refuses fabrics that already carry overrides, so the two
// features are mutually exclusive by construction; ClearOverrides stays
// allowed since it restores the exact baseline the keyed channels are known
// to hold.
func (f *Fabric) assertConfined(id ChannelID, op string) {
	if f.part == nil {
		return
	}
	ch := &f.chans[id]
	panic(fmt.Sprintf("fabric: %s on channel %d (%d->%d): live overrides require the confined fabric",
		op, id, ch.from, ch.to))
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

// PerLinkBytes returns the wire bytes per directed channel, keyed by
// "<from>-><to>#<link>" strings; used by traffic-distribution reports.
func (f *Fabric) PerLinkBytes() map[string]uint64 {
	m := make(map[string]uint64, len(f.chans))
	for i := range f.chans {
		ch := &f.chans[i]
		key := fmt.Sprintf("%d->%d#%d", ch.from, ch.to, i/2)
		m[key] = ch.stats.Bytes
	}
	return m
}

// MaxChannelBytes returns the hottest channel's byte count; the ratio of
// max to mean indicates load balance across trees/paths.
func (f *Fabric) MaxChannelBytes() uint64 {
	var max uint64
	for i := range f.chans {
		if b := f.chans[i].stats.Bytes; b > max {
			max = b
		}
	}
	return max
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
