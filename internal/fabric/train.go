package fabric

import (
	"fmt"

	"repro/internal/sim"
	"repro/internal/topology"
)

// A Segmenter writes the transport header of a train's segments. Segment
// fills pkt, fresh from the pool with the train's addressing and its
// PayloadBytes set, as segment s of the message, when the fabric makes the
// segment's packet (see Train).
type Segmenter interface {
	Segment(pkt *Packet, s int)
}

// Train is one message of one or more MTU segments, injected as a whole:
// every message leaves a NIC this way. A NIC streams a message's segments
// back to back without host help, and so does InjectTrain: it books every
// segment on the host uplink at once, exactly as sending them one by one
// would. A one-segment message becomes its pooled packet there and then,
// and the train goes straight back. A longer one exists only as the train's
// arithmetic until each segment lands at the first hop; there the segment
// becomes a pooled packet and travels on as any other, and the train queues
// the arrival of the segment after it. In flight, a message therefore holds
// about one packet per hop instead of one per segment, one queued engine
// event instead of one per segment, and a train only while it has segments
// on the uplink.
//
// Trains come from NIC.NewTrain and go back to the fabric when their last
// surviving segment has a packet; nothing may hold one after InjectTrain.
type Train struct {
	Dst   topology.NodeID // destination host (unicast only)
	Group GroupID         // multicast group, or NoGroup
	Flow  uint64          // flow label for deterministic ECMP hashing
	// Reduce and ReduceChunk route each segment up an in-network reduction
	// tree, as the Packet fields of the same name do.
	Reduce      ReduceGroupID
	ReduceChunk uint64
	// Bytes is the message size: segment s carries the MTU's worth at
	// s*MTU, the last one the rest. An empty message is one empty segment.
	Bytes int
	// Header fills each segment's transport header. Like Packet.Payload it
	// stays with the train across reuse: a transport keeps its per-message
	// state there and overwrites it for the next message.
	Header Segmenter
	// Background marks tenant traffic (see Fabric.InjectBackground): its
	// segments carry no transport header, and Header is not called.
	Background bool

	src   topology.NodeID
	nsegs int
	// next is the segment whose arrival is queued, under sequence number
	// seq; the surviving segments after it hold the numbers after seq.
	next int
	seq  uint64
	// dropped lists the segments lost on the uplink, ascending; the ones
	// before dropped[skipped] are behind next.
	dropped []int
	skipped int
	// The uplink booking: segment s < nsegs-1 finishes serializing at
	// start + (s+1)*serFull, the last one at wire; each lands lat later.
	start, serFull, wire, lat sim.Time
	// peer and link are the far end of the uplink and the link it is.
	peer topology.NodeID
	link int
}

// NewTrain returns an empty train (Group NoGroup) from the fabric's free
// list for the caller to fill and InjectTrain. Its Header is whatever the
// train last carried, or nil.
func (n *NIC) NewTrain() *Train { return n.f.newTrain() }

// newTrain is NewTrain for a sender that needs no NIC.
func (f *Fabric) newTrain() *Train {
	if k := len(f.trains); k > 0 {
		tr := f.trains[k-1]
		f.trains[k-1] = nil
		f.trains = f.trains[:k-1]
		return tr
	}
	f.trainsMade++
	return &Train{Group: NoGroup}
}

// putTrain files a train whose segments all have packets or dropped back on
// the free list, empty for NewTrain but for its Header and the dropped
// list's capacity. InjectTrain sets every other field before reading it.
func (f *Fabric) putTrain(tr *Train) {
	tr.Dst, tr.Group, tr.Flow, tr.Bytes = 0, NoGroup, 0, 0
	tr.Reduce, tr.ReduceChunk, tr.Background = NoReduceGroup, 0, false
	tr.dropped, tr.skipped = tr.dropped[:0], 0
	f.trains = append(f.trains, tr)
}

// segBytes returns the payload size of segment s.
func (tr *Train) segBytes(s, mtu int) int { return min(mtu, tr.Bytes-s*mtu) }

// arrival returns when segment s lands at the far end of the uplink.
func (tr *Train) arrival(s int) sim.Time {
	done := tr.wire
	if s < tr.nsegs-1 {
		done = tr.start + sim.Time(s+1)*tr.serFull
	}
	return done + tr.lat
}

// survivor returns the first segment at or after s the uplink did not drop
// (nsegs when there is none). Successive calls must not decrease s.
func (tr *Train) survivor(s int) int {
	for tr.skipped < len(tr.dropped) && tr.dropped[tr.skipped] == s {
		tr.skipped++
		s++
	}
	return s
}

// InjectTrain sends tr's message from this NIC and returns the virtual time
// at which its last segment finishes serializing onto the host uplink (the
// wire time real hardware reports a send completion at). Every segment is
// booked on the uplink now, in order, as every later hop books a packet:
// the channel's serializer, counters, latency and drop draw. Each surviving
// segment gets its engine sequence number now, too, so the events it causes
// fire exactly where sending the segments one by one would put them.
func (n *NIC) InjectTrain(tr *Train) sim.Time { return n.f.inject(n.Host, tr, &n.Injected) }

// inject is InjectTrain from host src, which needs no NIC, counting each
// segment in *injected.
func (f *Fabric) inject(src topology.NodeID, tr *Train, injected *uint64) sim.Time {
	if tr.Bytes < 0 {
		panic("fabric: negative train size")
	}
	if tr.Group != NoGroup && !f.groups[tr.Group].OnTree(src) {
		panic(fmt.Sprintf("fabric: host %d multicasting to group %d it is not attached to", src, tr.Group))
	}
	mtu := f.cfg.MTU
	tr.src = src
	tr.nsegs = 1
	if tr.Bytes > mtu { // most messages fit one segment: skip the division
		tr.nsegs = (tr.Bytes + mtu - 1) / mtu
	}
	c := f.egress(src, 0) // the host's single uplink
	ch := &f.chans[c]
	tr.start = max(ch.nextFree, f.eng.Now())
	for s := 0; s < tr.nsegs; s++ {
		*injected++
		if !f.book(ch, tr.segBytes(s, mtu)+HeaderBytes) {
			tr.dropped = append(tr.dropped, s)
		}
		if s == 0 {
			tr.serFull = ch.nextFree - tr.start
		}
	}
	tr.wire = ch.nextFree
	tr.lat = f.cfg.LinkLatency + ch.extraLat
	tr.peer, tr.link = topology.NodeID(ch.to), c>>1
	wire := tr.wire
	switch survivors := tr.nsegs - len(tr.dropped); {
	case survivors == 0:
		f.putTrain(tr)
	case tr.nsegs == 1:
		// Holding a train until the first hop would keep a train and a
		// packet per datagram instead of one packet: it has no later
		// segment to queue.
		ch.hops++
		f.eng.AtHandler(tr.arrival(0), f.arriveH, uint64(tr.peer), c, f.packet(tr, 0))
		f.putTrain(tr)
	default:
		tr.seq = f.eng.Reserve(survivors)
		tr.next = tr.survivor(0)
		f.eng.AtReserved(tr.arrival(tr.next), tr.seq, f.alightH, uint64(tr.peer), tr.link, tr)
	}
	return wire
}

// packet makes segment s's packet, carried by the hop that lands it at the
// first switch.
func (f *Fabric) packet(tr *Train, s int) *Packet {
	pkt := f.pool.get()
	pkt.Src, pkt.Dst, pkt.Group, pkt.Flow = tr.src, tr.Dst, tr.Group, tr.Flow
	pkt.Reduce, pkt.ReduceChunk = tr.Reduce, tr.ReduceChunk
	pkt.PayloadBytes, pkt.Background = tr.segBytes(s, f.cfg.MTU), tr.Background
	pkt.refs = 1
	if !tr.Background {
		tr.Header.Segment(pkt, s)
	}
	return pkt
}

// alightHandler lands a longer train's next segment at the far end of the
// host uplink: the segment becomes a packet carried by that landing hop and
// arrives as any other, and the train queues the arrival of the segment
// after it — or, after the last one, goes back. arg0 is the node, arg1 the
// link, obj the *Train.
type alightHandler Fabric

func (h *alightHandler) OnEvent(_ *sim.Engine, _ sim.Handle, arg0 uint64, arg1 int, obj any) {
	f, tr := (*Fabric)(h), obj.(*Train)
	s := tr.next
	pkt := f.packet(tr, s)
	if tr.next = tr.survivor(s + 1); tr.next < tr.nsegs {
		tr.seq++
		f.eng.AtReserved(tr.arrival(tr.next), tr.seq, f.alightH, uint64(tr.peer), tr.link, tr)
	} else {
		f.putTrain(tr)
	}
	f.arrive(pkt, topology.NodeID(arg0), arg1)
	f.landed(pkt)
}
