package verbs

// rcWindow is what an RC QP has delivered of its peer's writes and sends,
// by the sequence number the peer's QP stamps on each: the model of an RC
// QP's PSN window. Messages still complete in the order their last segments
// land, so the window may hold delivered messages above a gap; it spans no
// more than the peer's outstanding messages, from its oldest unacknowledged
// one to its newest.
//
// A write whose segments land in order at base, the common case however
// long the message, takes no slot: the cursor next counts them, and the
// last one completes the message. Only a write with a gap, a two-sided
// send (which stages its bytes) or a message above base takes assembly
// state.
type rcWindow struct {
	// base is the oldest undelivered sequence number: every one below it
	// is delivered.
	base uint32
	// next counts the segments of write base that have landed in order,
	// from segment 0, while slots[0] is empty: segment next is the one it
	// waits for, and a lower one is a duplicate. A segment past a gap moves
	// them into assembly state in slots[0]; delivering base resets it.
	next uint32
	// slots[i] is sequence number base+i: nil while unseen or counted by
	// next, the message's assembly state while its segments land,
	// rcDelivered once delivered above base. It is grown on demand, so it
	// stays empty while messages arrive in order, and slots[0] is never
	// rcDelivered.
	slots ring[*assemblyState]
}

// rcDelivered is the slot of a message delivered above base.
var rcDelivered = &assemblyState{}

// slot returns the slot of sequence number base+off, growing the ring to
// hold it.
func (w *rcWindow) slot(off int) **assemblyState {
	for w.slots.len() <= off {
		w.slots.push(nil)
	}
	return w.slots.at(off)
}

// deliver records seq, at or above base, as delivered, and advances base
// past every delivered slot.
func (w *rcWindow) deliver(seq uint32) {
	if off := int(seq - w.base); off > 0 {
		*w.slot(off) = rcDelivered
		return
	}
	w.base++
	w.next = 0
	if w.slots.len() == 0 {
		return
	}
	w.slots.pop()
	for w.slots.len() > 0 && *w.slots.front() == rcDelivered {
		w.slots.pop()
		w.base++
	}
}

// forget returns seq's slot to unseen: the message was assembled but not
// delivered, and its sender will retransmit all of it.
func (w *rcWindow) forget(seq uint32) {
	*w.slots.at(int(seq - w.base)) = nil
}

// rcSegment files one arriving segment of an RC write or send in the QP's
// window. It reports ok false for a segment that changes nothing: a
// duplicate, or part of a message already delivered, whose retransmission
// raced our ack and is re-acked. Otherwise done reports the message
// complete, and st is its assembly state, or nil for a message that takes
// none: one of one segment, complete on arrival, or a write landing in
// order at base (a send takes state to stage its bytes).
func (qp *QP) rcSegment(src Addr, m *wireMsg) (st *assemblyState, done, ok bool) {
	w := &qp.window
	off := int32(m.seq - w.base) // serial-number arithmetic: wraps safely
	if off >= 0 && int(off) < w.slots.len() {
		st = *w.slots.at(int(off))
	}
	if off < 0 || st == rcDelivered {
		qp.sendAck(src, m.msgID)
		return nil, false, false
	}
	if m.nsegs == 1 {
		return nil, true, true
	}
	if st == nil {
		var prefix uint32 // a write's in-order segments, counted by next
		if off == 0 && m.op == wireWrite {
			switch seg := uint32(m.seg); {
			case seg < w.next:
				return nil, false, false // retransmission duplicate
			case seg == w.next:
				w.next++
				return nil, int(w.next) == m.nsegs, true
			}
			prefix, w.next = w.next, 0 // past a gap: the prefix moves into the slot
		}
		st = qp.ctx.newAssembly(m.nsegs)
		for i := range prefix {
			st.got[i] = true
		}
		st.have, st.bytes = int(prefix), int(prefix)*qp.ctx.MTU()
		*w.slot(int(off)) = st
	}
	if st.got[m.seg] {
		return nil, false, false // retransmission duplicate
	}
	st.got[m.seg] = true
	st.have++
	st.bytes += m.dataLen
	return st, st.have == m.nsegs, true
}

// deliverRC retires a message just delivered: its slot, its ack and its
// assembly state, if it took one.
func (qp *QP) deliverRC(src Addr, m *wireMsg, st *assemblyState) {
	qp.window.deliver(m.seq)
	qp.sendAck(src, m.msgID)
	if st != nil {
		qp.ctx.putAssembly(st)
	}
}
