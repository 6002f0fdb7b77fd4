package fabric

import (
	"fmt"

	"repro/internal/sim"
)

// DetachGroup unsubscribes the NIC. Packets for the group still traverse
// the tree but are not delivered locally.
func (n *NIC) DetachGroup(gid GroupID) {
	if n.attached(gid) {
		n.groups[gid] = false
	}
}

// Outstanding reports how many packets and trains the fabric has made and
// not taken back: both are zero once every message has landed.
func (f *Fabric) Outstanding() (packets, trains int) {
	return f.pool.made - len(f.pool.free), f.trainsMade - len(f.trains)
}

// injectPacket is the reference per-packet injector: it sends a pool
// packet, a copy of pkt, up the host uplink at once, as the fabric did
// before every message became a Train. TestTrainMatchesPerPacket checks
// trains against it; it shares only transmit with the code under test. The
// pool does not zero what it files back, so it writes every field.
func (n *NIC) injectPacket(pkt *Packet) sim.Time {
	p := n.f.pool.get(nil)
	p.Src, p.Dst, p.Group, p.Flow = n.Host, pkt.Dst, pkt.Group, pkt.Flow
	p.Reduce, p.ReduceChunk, p.Background = NoReduceGroup, 0, false
	p.Payload, p.PayloadBytes, p.refs = pkt.Payload, pkt.PayloadBytes, 0
	wire := n.f.transmit(p, n.f.egress(n.Host, 0))
	if p.refs == 0 { // dropped on the uplink: no hop carries it
		n.f.pool.put(p)
	}
	return wire
}

// Held reports how many hops wait in port FIFOs: zero at quiescence.
func (f *Fabric) Held() int {
	n := 0
	for c := range f.fifos {
		n += f.heldAt(c)
	}
	return n
}

// heldAt reports how many hops wait in channel c's FIFO.
func (f *Fabric) heldAt(c int) int {
	n := 0
	if q := f.fifos[c]; q != nil {
		for k, h := q.head, q.h; k != nil; k, h = k.next, 0 {
			if k == q.tail {
				n += q.t - h
				break
			}
			n += heldChunkLen - h
		}
	}
	return n
}

// PerLinkBytes returns the wire bytes per directed channel, keyed by
// "<from>-><to>#<link>" strings, for tests of the traffic distribution.
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
