// The keyed fabric pipeline.
//
// A confined fabric runs every hop inline: transmit() books a channel's
// serializer and schedules the next arrival under the engine's own sequence
// counter. A *keyed* fabric (EnablePartition) turns each hop into a
// *booking event* instead: identical serializer math, but scheduled through
// AtOrdered under an explicit order key, so the firing order at equal times
// is a pure function of (time, key) rather than of scheduling order.
//
// Both pipelines produce the same arrival times, but not the same events:
// multicast fan-out books K egress channels where the confined path
// schedules one switch arrival, so which one a point runs shows up in its
// event counts (and hence in its digests).
//
// Routing decisions (ECMP hash, multicast tree ports) are pure functions
// of the packet and the static topology, so they are made at dispatch time
// and each booking is addressed directly to its egress channel. Everything
// stochastic or globally stateful (drops, adaptive routing, reorder jitter,
// in-network reduction, live channel overrides) is refused up front by
// EnablePartition or panics if enabled later — those features stay on the
// confined path.
package fabric

import (
	"fmt"

	"repro/internal/sim"
	"repro/internal/topology"
)

// Dispatch-key layout. Every downstream event the keyed pipeline
// schedules — bookings and final host arrivals alike — carries a 63-bit
// order key in the engine's reserved low sequence band:
//
//	key = S<<30 | srcChan<<12 | slot<<6 | egressIdx
//
// S is the engine's clock when the dispatch decision was made; leading
// with it reproduces the scheduled-earlier-fires-earlier tie-break at equal
// delivery times. srcChan is the channel the packet is leaving (the one
// just booked; for injections, the host uplink), so distinct same-time
// dispatchers get distinct keys. slot numbers dispatches from one channel
// within one S tick. egressIdx separates a multicast fan-out's bookings
// (one dispatch, K egress channels, tree-port order).
const (
	keyIdxBits  = 6
	keySlotBits = 6
	keyChanBits = 18
	keyTimeBits = 33 // ~8.6 s of virtual time
)

// partition is the dispatch-keying state of a keyed fabric: per channel,
// the (clock, delivery time) of its most recent dispatch and the number of
// dispatches already keyed at that exact pair. A burst (one message
// segmented into hundreds of same-instant injections) shares one clock but
// strictly increasing delivery times off the serializer, so the slot stays
// 0; it only counts up in the degenerate zero-serialization case, where two
// same-clock dispatches could otherwise collide on (time, key).
type partition struct {
	lastDispatch []sim.Time
	lastDeliver  []sim.Time
	slot         []uint32
}

// Partitioned reports whether the fabric runs the keyed pipeline.
func (f *Fabric) Partitioned() bool { return f.part != nil }

// EnablePartition switches the fabric from the confined pipeline to the
// keyed one and reports whether it did. It must run on a pristine stack —
// before any NIC attaches, any packet flies or any clock ticks — and
// refuses, leaving the fabric confined, whenever a configured or installed
// feature needs state the keyed pipeline does not carry:
//
//   - fabric drops, adaptive routing or reorder jitter (RNG draws);
//   - in-network reduction groups (switch-resident aggregation state);
//   - live channel overrides, or any event already scheduled (a scenario
//     has been installed — its injectors perturb channels mid-run).
//
// Enabling is idempotent.
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
	// Any pending event means someone (a scenario, a workload) already
	// scheduled against the confined layout.
	if f.eng.Now() != 0 || f.eng.Pending() != 0 {
		return false
	}
	f.part = &partition{
		lastDispatch: make([]sim.Time, len(f.chans)),
		lastDeliver:  make([]sim.Time, len(f.chans)),
		slot:         make([]uint32, len(f.chans)),
	}
	f.bookH = (*bookHandler)(f)
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
func (f *Fabric) dispatchKey(src ChannelID, at sim.Time) uint64 {
	now := f.eng.Now()
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

// bookHandler fires a booking: serialize pkt onto the channel leaving node
// via port, then dispatch the packet's next step. arg0 is the node, arg1
// the port, obj the *Packet.
type bookHandler Fabric

func (h *bookHandler) OnEvent(_ *sim.Engine, _ sim.Handle, arg0 uint64, arg1 int, obj any) {
	f := (*Fabric)(h)
	node := topology.NodeID(arg0)
	nb := f.g.Adj[node][arg1]
	id := f.chanIDFor(node, nb.Link)
	pkt := obj.(*Packet)
	_, arrival := f.book(id, pkt)
	f.dispatch(pkt, id, nb.Peer, nb.Link, arrival)
}

// book runs the confined transmit()'s serializer math: same start =
// max(nextFree, now), same backlog/stats accounting, bit for bit. It
// returns the serialization completion time and the peer arrival time.
// Drops never occur here — EnablePartition refused lossy configs and the
// override setters panic on a keyed fabric.
func (f *Fabric) book(id ChannelID, pkt *Packet) (nextFree, arrival sim.Time) {
	ch := &f.chans[id]
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
	return ch.nextFree, ch.nextFree + f.cfg.LinkLatency + ch.extraLat
}

// dispatch routes pkt's next step after it finishes crossing `from` and
// lands on node at `at`. A host gets its arrival event; a switch gets one
// booking per egress channel — the routing decision is pure, so it is made
// here, not on an intermediate event.
func (f *Fabric) dispatch(pkt *Packet, from ChannelID, node topology.NodeID, link int, at sim.Time) {
	key := f.dispatchKey(from, at)
	if f.g.Nodes[node].Kind == topology.Host {
		f.eng.AtOrdered(at, key, f.arriveH, uint64(node), link, pkt)
		return
	}
	if pkt.Reduce != NoReduceGroup {
		// CreateReduceGroup errors on a keyed fabric; a reduce packet here
		// means a stale ReduceGroupID crossed fabrics.
		panic(fmt.Sprintf("fabric: reduce packet on keyed fabric at switch %d", node))
	}
	if pkt.Group != NoGroup {
		mt := f.groups[pkt.Group]
		ports := mt.TreePorts[node]
		if len(ports) == 0 {
			panic(fmt.Sprintf("fabric: multicast packet for group %d at off-tree switch %d", pkt.Group, node))
		}
		idx := uint64(0)
		for _, p := range ports {
			if f.g.Adj[node][p].Link == link {
				continue // never reflect back toward the sender
			}
			if idx >= 1<<keyIdxBits {
				panic(fmt.Sprintf("fabric: multicast fan-out at switch %d overflows the %d-bit order-key egress field", node, keyIdxBits))
			}
			f.eng.AtOrdered(at, key|idx, f.bookH, uint64(node), p, pkt)
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
	f.eng.AtOrdered(at, key, f.bookH, uint64(node), port, pkt)
}

// injectPartitioned is NIC.Inject's keyed tail: book the host uplink
// inline, then dispatch toward the peer. Packet IDs on this path are
// per-NIC (host in the high bits); the ID is a diagnostic tag, nothing
// routes or orders on it.
func (n *NIC) injectPartitioned(pkt *Packet) sim.Time {
	f := n.f
	pkt.ID = uint64(n.Host)<<32 | n.pktSeq
	n.pktSeq++
	nb := f.g.Adj[n.Host][0]
	id := f.chanIDFor(n.Host, nb.Link)
	nextFree, arrival := f.book(id, pkt)
	f.dispatch(pkt, id, nb.Peer, nb.Link, arrival)
	return nextFree
}
