// Partitioned (multi-shard) fabric execution.
//
// A confined fabric runs every hop on the primary shard: transmit() books a
// channel's serializer inline and schedules the next arrival on f.eng. A
// *partitioned* fabric gives every channel exactly one owning shard — the
// host's shard for host-adjacent channels (both directions, so a NIC, its
// uplink and its downlink always live together), a deterministic hash for
// switch-switch channels — and turns each hop into a *booking event* on the
// owner: identical serializer math, but scheduled through an explicit
// (time, order-key) so the firing order at equal times is a pure function
// of the key, never of shard count or barrier placement.
//
// The pipeline is active at every shard count, including one. That is the
// point: a single-shard partitioned run and an 8-shard partitioned run
// execute the same events with the same keys in the same order, so output
// bytes cannot depend on -shards. (A confined-at-1/partitioned-at-8 split
// would change event counts — multicast fan-out books K egress channels
// where the confined path schedules one switch arrival.)
//
// Routing decisions (ECMP hash, multicast tree ports) are pure functions
// of the packet and the static topology, so the dispatching shard computes
// the egress ports *at dispatch time* and addresses each booking directly
// to the egress channel's owner; no event ever fires on a shard that does
// not own the state it touches. Everything stochastic or globally stateful
// (drops, adaptive routing, reorder jitter, in-network reduction, live
// channel overrides) is refused up front by EnablePartition or panics if
// enabled later — those features stay on the confined path.
package fabric

import (
	"fmt"

	"repro/internal/sim"
	"repro/internal/topology"
)

// Dispatch-key layout. Every downstream event the partitioned pipeline
// schedules — bookings and final host arrivals alike — carries a 63-bit
// order key in the engine's reserved low sequence band:
//
//	key = S<<30 | srcChan<<12 | slot<<6 | egressIdx
//
// S is the dispatching shard's clock when the dispatch decision was
// made; leading with it reproduces the serial engine's
// scheduled-earlier-fires-earlier tie-break at equal delivery times.
// srcChan is the channel the packet is leaving (the one just booked;
// for injections, the host uplink), so distinct same-time dispatchers
// get distinct keys. slot numbers dispatches from one channel within
// one S tick — the owner shard is the channel's single writer, so a
// plain counter is race-free and shard-count-invariant. egressIdx
// separates a multicast fan-out's bookings (one dispatch, K egress
// channels, tree-port order).
const (
	keyIdxBits  = 6
	keySlotBits = 6
	keyChanBits = 18
	keyTimeBits = 33 // ~8.6 s of virtual time
)

// partition is the per-shard ownership state of a partitioned fabric.
type partition struct {
	hosts   Partition
	engines []*sim.Engine // engines[shard]
	// chanOwner[id] is the shard owning channel id's serializer state and
	// counters; bookings of that channel fire only on this shard's engine.
	chanOwner []int
	// Per-channel dispatch keying (written only by the channel's owner):
	// the (clock, delivery time) of the channel's most recent dispatch and
	// the number of dispatches already keyed at that exact pair. A burst
	// (one message segmented into hundreds of same-instant injections)
	// shares one clock but strictly increasing delivery times off the
	// serializer, so the slot stays 0; it only counts up in the degenerate
	// zero-serialization case, where two same-clock dispatches could
	// otherwise collide on (time, key).
	lastDispatch []sim.Time
	lastDeliver  []sim.Time
	slot         []uint32
}

// Partitioned reports whether the fabric runs the per-shard pipeline.
func (f *Fabric) Partitioned() bool { return f.part != nil }

// HostEngine returns the engine owning the host's shard: the engine all of
// the host's model state (NIC, verbs context, DPA threads, per-rank
// protocol timers) must schedule on. On a confined fabric every host lives
// on the primary engine.
func (f *Fabric) HostEngine(host topology.NodeID) *sim.Engine {
	if f.part == nil {
		return f.eng
	}
	return f.part.engines[f.part.hosts.Owner(host)]
}

// EnablePartition switches the fabric from confined (every hop on the
// primary shard) to partitioned (per-shard channel ownership) execution
// and reports whether it did. It must run on a pristine stack — before any
// NIC attaches, any packet flies or any clock ticks — and refuses, leaving
// the fabric confined, whenever a configured or installed feature needs
// state the partitioned pipeline cannot own per shard:
//
//   - fabric drops, adaptive routing or reorder jitter (shared RNG draws
//     whose order would depend on shard interleave);
//   - in-network reduction groups (switch-resident aggregation state);
//   - live channel overrides, or any event already scheduled (a scenario
//     has been installed — its injectors perturb channels mid-run);
//   - a shard group whose lookahead exceeds the link latency (a booking
//     dispatched one hop ahead could violate the conservative window).
//
// Enabling is idempotent; on a plain serial engine the partition has a
// single shard and every dispatch is local, but runs the same keyed
// pipeline, so results are byte-identical at every -shards value.
func (f *Fabric) EnablePartition() bool {
	if f.part != nil {
		return true
	}
	if f.nextPktID != 0 || f.BackgroundInjected != 0 {
		return false
	}
	for _, nic := range f.nics {
		if nic != nil {
			return false
		}
	}
	if f.cfg.DropRate > 0 || f.cfg.AdaptiveRouting || f.cfg.ReorderJitter != 0 {
		return false
	}
	if len(f.reduceGroups) != 0 {
		return false
	}
	for i := range f.chans {
		ch := &f.chans[i]
		if ch.bw != ch.baseBw || ch.extraLat != 0 || ch.dropOverride >= 0 {
			return false
		}
	}
	shards := 1
	grp := f.eng.Group()
	if grp != nil {
		if grp.Lookahead() > f.cfg.LinkLatency {
			return false
		}
		shards = grp.Shards()
	}
	if f.eng.Now() != 0 {
		return false
	}
	// Any pending event means someone (a scenario, a workload) already
	// scheduled against the confined layout.
	for i := 0; i < shards; i++ {
		e := f.eng
		if grp != nil {
			e = grp.Shard(i)
		}
		if e.Pending() != 0 || e.Now() != 0 {
			return false
		}
	}

	p := &partition{
		hosts:        PartitionHosts(f.g, shards),
		engines:      make([]*sim.Engine, shards),
		chanOwner:    make([]int, len(f.chans)),
		lastDispatch: make([]sim.Time, len(f.chans)),
		lastDeliver:  make([]sim.Time, len(f.chans)),
		slot:         make([]uint32, len(f.chans)),
	}
	for i := range p.engines {
		if grp != nil {
			p.engines[i] = grp.Shard(i)
		} else {
			p.engines[i] = f.eng
		}
	}
	for i := range f.chans {
		ch := &f.chans[i]
		switch {
		case f.g.Nodes[ch.from].Kind == topology.Host:
			p.chanOwner[i] = p.hosts.Owner(ch.from)
		case f.g.Nodes[ch.to].Kind == topology.Host:
			p.chanOwner[i] = p.hosts.Owner(ch.to)
		default:
			p.chanOwner[i] = int(ch.from) % shards
		}
	}
	f.bookH = (*bookHandler)(f)
	f.pools = make([]packetPool, shards)
	f.part = p
	return true
}

// chanID returns the directed channel leaving `from` over link `link`.
func (f *Fabric) chanIDFor(from topology.NodeID, link int) ChannelID {
	if f.g.Links[link].A == from {
		return ChannelID(2 * link)
	}
	return ChannelID(2*link + 1)
}

// dispatchKey derives the order key for the next dispatch from src at the
// engine's current clock, delivering at `at`; see the layout above. The
// overflow panics are loud guards on the layout's budget, not reachable by
// the workloads the repository runs (S caps at ~8.6 s of virtual time).
func (f *Fabric) dispatchKey(e *sim.Engine, src ChannelID, at sim.Time) uint64 {
	now := e.Now()
	if uint64(now) >= 1<<keyTimeBits {
		panic(fmt.Sprintf("fabric: dispatch at %v overflows the %d-bit order-key time field", now, keyTimeBits))
	}
	if int(src) >= 1<<keyChanBits {
		panic(fmt.Sprintf("fabric: channel %d overflows the %d-bit order-key channel field", src, keyChanBits))
	}
	p := f.part
	if p.lastDispatch[src] != now || p.lastDeliver[src] != at {
		p.lastDispatch[src] = now
		p.lastDeliver[src] = at
		p.slot[src] = 0
	}
	slot := p.slot[src]
	p.slot[src]++
	if slot >= 1<<keySlotBits {
		panic(fmt.Sprintf("fabric: channel %d->%d dispatched %d times at %v for delivery at %v, overflowing the %d-bit order-key slot field",
			f.chans[src].from, f.chans[src].to, slot+1, now, at, keySlotBits))
	}
	return uint64(now)<<(keyChanBits+keySlotBits+keyIdxBits) |
		uint64(src)<<(keySlotBits+keyIdxBits) |
		uint64(slot)<<keyIdxBits
}

// sendOrdered schedules a keyed pipeline event on the owner shard: locally
// through the engine's reserved low band, across shards through the
// mailbox. Both paths file the event under the same (time, key), so
// co-locating two owners on one shard changes no bytes.
func (f *Fabric) sendOrdered(e *sim.Engine, owner int, at sim.Time, key uint64, h sim.Handler, arg0 uint64, arg1 int, obj any) {
	if e.Group() == nil || owner == e.ShardIndex() {
		e.AtOrdered(at, key, h, arg0, arg1, obj)
		return
	}
	e.Send(owner, at, key, h, arg0, arg1, obj)
}

// bookHandler fires a booking: serialize pkt onto the channel leaving node
// via port, then dispatch the packet's next step. arg0 is the node, arg1
// the port, obj the *Packet.
type bookHandler Fabric

func (h *bookHandler) OnEvent(e *sim.Engine, _ sim.Handle, arg0 uint64, arg1 int, obj any) {
	f := (*Fabric)(h)
	node := topology.NodeID(arg0)
	nb := f.g.Adj[node][arg1]
	id := f.chanIDFor(node, nb.Link)
	_, arrival := f.book(e, id, obj.(*Packet))
	f.dispatch(e, obj.(*Packet), id, nb.Peer, nb.Link, arrival)
}

// book runs the confined transmit()'s serializer math on the owner shard:
// same start = max(nextFree, now), same backlog/stats accounting, bit for
// bit. It returns the serialization completion time and the peer arrival
// time. Drops never occur here — EnablePartition refused lossy configs and
// the override setters panic on a partitioned fabric.
func (f *Fabric) book(e *sim.Engine, id ChannelID, pkt *Packet) (nextFree, arrival sim.Time) {
	if want := f.part.chanOwner[id]; e.ShardIndex() != want {
		panic(fmt.Sprintf("fabric: channel %d (%d->%d) booked on shard %d but owned by shard %d",
			id, f.chans[id].from, f.chans[id].to, e.ShardIndex(), want))
	}
	ch := &f.chans[id]
	size := f.wireBytes(pkt)
	serialize := ch.serialization(size)
	start := ch.nextFree
	now := e.Now()
	if start < now {
		start = now
	} else if backlog := start - now; backlog > ch.stats.MaxBacklog {
		ch.stats.MaxBacklog = backlog
	}
	ch.nextFree = start + serialize
	ch.stats.Packets++
	ch.stats.Bytes += uint64(size)
	ch.stats.Busy += serialize
	return ch.nextFree, ch.nextFree + f.cfg.LinkLatency + ch.extraLat
}

// dispatch routes pkt's next step after it finishes crossing `from` and
// lands on node at `at`. A host gets its arrival event (delivery runs on
// the host's own shard); a switch gets one booking per egress channel,
// each addressed to that channel's owner — the routing decision is pure,
// so it is made here, on the dispatching shard, not on an intermediate
// event.
func (f *Fabric) dispatch(e *sim.Engine, pkt *Packet, from ChannelID, node topology.NodeID, link int, at sim.Time) {
	key := f.dispatchKey(e, from, at)
	if f.g.Nodes[node].Kind == topology.Host {
		f.sendOrdered(e, f.part.hosts.Owner(node), at, key, f.arriveH, uint64(node), link, pkt)
		return
	}
	if pkt.Reduce != NoReduceGroup {
		// CreateReduceGroup errors on a partitioned fabric; a reduce packet
		// here means a stale ReduceGroupID crossed fabrics.
		panic(fmt.Sprintf("fabric: reduce packet on partitioned fabric at switch %d", node))
	}
	if pkt.Group != NoGroup {
		mt := f.groups[pkt.Group]
		ports := mt.TreePorts[node]
		if len(ports) == 0 {
			panic(fmt.Sprintf("fabric: multicast packet for group %d at off-tree switch %d", pkt.Group, node))
		}
		idx := uint64(0)
		for _, p := range ports {
			nb := f.g.Adj[node][p]
			if nb.Link == link {
				continue // never reflect back toward the sender
			}
			if idx >= 1<<keyIdxBits {
				panic(fmt.Sprintf("fabric: multicast fan-out at switch %d overflows the %d-bit order-key egress field", node, keyIdxBits))
			}
			egress := f.chanIDFor(node, nb.Link)
			f.sendOrdered(e, f.part.chanOwner[egress], at, key|idx, f.bookH, uint64(node), p, pkt)
			idx++
		}
		return
	}
	cands := f.rt.Candidates(node, pkt.Dst)
	if len(cands) == 0 {
		panic(fmt.Sprintf("fabric: switch %d has no route to %d", node, pkt.Dst))
	}
	port := cands[0]
	if len(cands) > 1 {
		// Adaptive routing is refused by EnablePartition; deterministic ECMP
		// is a pure function of the packet, safe to evaluate here.
		port = cands[ecmpHash(pkt.Flow, pkt.Src, pkt.Dst)%uint64(len(cands))]
	}
	nb := f.g.Adj[node][port]
	egress := f.chanIDFor(node, nb.Link)
	f.sendOrdered(e, f.part.chanOwner[egress], at, key, f.bookH, uint64(node), port, pkt)
}

// injectPartitioned is NIC.Inject's partitioned tail: book the host uplink
// inline on the host's own shard (the caller's engine by construction —
// verbs contexts are built on HostEngine), then dispatch toward the peer.
// Packet IDs are per-NIC (host in the high bits) so no cross-shard counter
// is shared; the ID is a diagnostic tag, nothing routes or orders on it.
func (n *NIC) injectPartitioned(pkt *Packet) sim.Time {
	f := n.f
	e := f.part.engines[f.part.hosts.Owner(n.Host)]
	pkt.ID = uint64(n.Host)<<32 | n.pktSeq
	n.pktSeq++
	nb := f.g.Adj[n.Host][0]
	id := f.chanIDFor(n.Host, nb.Link)
	nextFree, arrival := f.book(e, id, pkt)
	f.dispatch(e, pkt, id, nb.Peer, nb.Link, arrival)
	return nextFree
}
