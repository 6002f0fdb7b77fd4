package fabric

import "repro/internal/sim"

// A congested switch port keeps its waiting hops out of the engine. Once
// holdDepth hops of a port are queued in the engine (a port only briefly
// busy never gets that deep), its next hop takes its sequence number
// (Engine.Reserve) and waits in the port's FIFO; each landing of one of the
// port's hops queues the FIFO's head (Engine.AtReserved). A port books hops
// in ascending landing time, so the head is never due before the landing
// that queues it: every hop fires at the (time, seq) it was booked at. The
// port counts hops in the engine, not hops booked: a dropped hop lands
// nowhere. After a latency cut a hop may land before those ahead of it, so
// the port holds nothing more until it drains. Uplinks never hold: trains
// book them outside transmit, which only switches call.
const holdDepth = 8

// heldHop is a hop waiting in its port's FIFO: the landing it will queue.
type heldHop struct {
	at  sim.Time
	seq uint64
	pkt *Packet
}

// heldChunkLen is the slots in a chunk, and heldSlabLen the most chunks one
// allocation carves: a slab carves as many as were made before it.
const heldChunkLen, heldSlabLen = 64, 16

// heldChunk is a fixed run of FIFO slots; next is the chunk after it in its
// FIFO or on the free list.
type heldChunk struct {
	hops [heldChunkLen]heldHop
	next *heldChunk
}

// portFIFO is one port's held hops, oldest first: from slot h of chunk head
// to the slot before t of chunk tail (head is nil when it is empty). direct
// is set by a latency cut while hops of the port are in the engine, and
// cleared when the last of them lands.
type portFIFO struct {
	head, tail *heldChunk
	h, t       int
	direct     bool
}

// fifo returns channel c's FIFO, making it on first use.
func (f *Fabric) fifo(c int) *portFIFO {
	if f.fifos == nil {
		f.fifos = make([]*portFIFO, len(f.chans))
	}
	if f.fifos[c] == nil {
		f.fifos[c] = new(portFIFO)
	}
	return f.fifos[c]
}

// hold files the hop landing pkt at at in switch port c's FIFO, behind the
// port's hops queued in the engine, and reports whether it did.
func (f *Fabric) hold(c int, at sim.Time, pkt *Packet) bool {
	q := f.fifo(c)
	if q.direct {
		return false
	}
	if q.head == nil || q.t == heldChunkLen {
		k := f.freeHeld
		if k != nil {
			f.freeHeld, k.next = k.next, nil
		} else {
			if len(f.heldSlab) == 0 {
				f.heldSlab = make([]heldChunk, min(max(f.heldChunks, 1), heldSlabLen))
			}
			k, f.heldSlab, f.heldChunks = &f.heldSlab[0], f.heldSlab[1:], f.heldChunks+1
		}
		if q.head == nil {
			q.head, q.h = k, 0
		} else {
			q.tail.next = k
		}
		q.tail, q.t = k, 0
	}
	q.tail.hops[q.t] = heldHop{at, f.eng.Reserve(1), pkt}
	q.t++
	return true
}

// release queues the head of channel c's FIFO when one of the port's hops
// has landed, handing back a chunk it empties.
func (f *Fabric) release(c int) {
	q, ch := f.fifos[c], &f.chans[c]
	if q.head == nil {
		q.direct = q.direct && ch.hops > 0
		return
	}
	k := q.head
	hop := k.hops[q.h]
	k.hops[q.h].pkt = nil
	if q.h++; k == q.tail && q.h == q.t || q.h == heldChunkLen {
		q.head, q.h = k.next, 0
		k.next, f.freeHeld = f.freeHeld, k
		if k == q.tail {
			q.head, q.tail = nil, nil
		}
	}
	ch.hops++
	f.eng.AtReserved(hop.at, hop.seq, f.arriveH, uint64(ch.to), c, hop.pkt)
}

// setExtraLat sets channel c's extra latency. A cut while hops of the port
// are in the engine sends its hops past the FIFO until they have landed.
func (f *Fabric) setExtraLat(c int, d sim.Time) {
	ch := &f.chans[c]
	if d < ch.extraLat && ch.hops > 0 {
		f.fifo(c).direct = true
	}
	ch.extraLat = d
}
