package fabric

import "repro/internal/sim"

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
// trains against it; it shares only transmit with the code under test.
func (n *NIC) injectPacket(pkt *Packet) sim.Time {
	p := n.f.pool.get()
	p.Src, p.Dst, p.Group, p.Flow = n.Host, pkt.Dst, pkt.Group, pkt.Flow
	p.Payload, p.PayloadBytes = pkt.Payload, pkt.PayloadBytes
	n.Injected++
	wire := n.f.transmit(p, n.Host, 0)
	if p.refs == 0 { // dropped on the uplink: no hop carries it
		n.f.pool.put(p)
	}
	return wire
}
