package verbs

import (
	"fmt"

	"repro/internal/fabric"
	"repro/internal/sim"
	"repro/internal/topology"
)

// --- UD ---------------------------------------------------------------------

// PostSendUD transmits one datagram (payload <= MTU) from mr[offset:] to a
// unicast QP or a multicast group. The 32-bit immediate travels in the
// packet header and surfaces in the receiver's CQE — the protocol's PSN
// channel. A signaled send pushes an OpSend CQE locally once the datagram
// is handed to the NIC (sender-side completions on unreliable transports
// mean "accepted by hardware", not "delivered").
func (qp *QP) PostSendUD(wrID uint64, dst Addr, mr *MR, offset, length int, imm uint32, signaled bool) {
	if qp.Transport != UD {
		panic("verbs: PostSendUD on non-UD QP")
	}
	if length > qp.ctx.MTU() {
		panic(fmt.Sprintf("verbs: UD datagram %d exceeds MTU %d", length, qp.ctx.MTU()))
	}
	ms := &message{hdr: wireMsg{op: wireSendUD, imm: imm}, mr: mr, offset: offset}
	wire := qp.sendMessage(dst, ms, length)
	if signaled {
		// The send completion is reported once the datagram has left the
		// NIC (wire serialization done) — this is what paces batched send
		// workers against the link.
		qp.ctx.eng.AtHandler(wire, qp, wrID, length, nil)
	}
}

// OnEvent is the QP's event dispatch: with a *rcPending
// payload it is the retransmission timer firing; otherwise it is a signaled
// send completing its wire serialization (arg0 = WrID, arg1 = bytes).
func (qp *QP) OnEvent(_ *sim.Engine, _ sim.Handle, arg0 uint64, arg1 int, obj any) {
	if p, ok := obj.(*rcPending); ok {
		qp.retransmit(p)
		return
	}
	qp.sendCQ.Push(CQE{Op: OpSend, QPN: qp.N, WrID: arg0, Bytes: arg1})
}

// PostSendReduce transmits one contribution datagram into an in-network
// reduction group (SHARP-style): the fabric routes it up the group's tree,
// the root switch aggregates per chunkID, and one reduced result datagram
// is emitted toward dst (consuming a posted receive there, like any UD
// arrival). Only traffic and timing are modeled — values are not reduced.
func (qp *QP) PostSendReduce(wrID uint64, dst Addr, rg fabric.ReduceGroupID, chunkID uint64, mr *MR, offset, length int, imm uint32, signaled bool) {
	if qp.Transport != UD {
		panic("verbs: PostSendReduce on non-UD QP")
	}
	if length > qp.ctx.MTU() {
		panic(fmt.Sprintf("verbs: reduce datagram %d exceeds MTU %d", length, qp.ctx.MTU()))
	}
	ms := &message{hdr: wireMsg{op: wireSendUD, imm: imm}, reduce: rg, chunk: chunkID}
	wire := qp.sendMessage(Unicast(dst.Host, dst.QPN), ms, length)
	if signaled {
		qp.ctx.eng.AtHandler(wire, qp, wrID, length, nil)
	}
}

// receiveUD matches the datagram against the receive queue. No posted
// receive means an RNR drop — the failure mode the protocol's RNR barrier
// plus receive-worker scaling exists to avoid (§III-C).
func (qp *QP) receiveUD(m *wireMsg) {
	w, ok := qp.popRecv()
	if !ok {
		qp.RNRDrops++
		qp.ctx.RNRDrops++
		return
	}
	n := m.dataLen
	if n > w.length {
		n = w.length // truncate to the posted buffer, as UD does
	}
	w.mr.write(w.offset, m.data, n)
	qp.recvCQ.Push(CQE{
		Op: OpRecv, QPN: qp.N, WrID: w.wrID,
		Imm: m.imm, Bytes: n,
	})
}

// --- UC ---------------------------------------------------------------------

// PostWriteUC performs an RDMA Write with immediate over the UC transport:
// the message is segmented into MTU packets; the receiver places segments
// directly at rkey[roffset+seg*MTU] (zero-copy) and raises one
// OpRecvWriteImm CQE per *message* when the last segment lands. If any
// segment is lost the whole message evaporates (UC semantics) — no CQE,
// counted as verbs/uc_msg_dropped when telemetry is collected.
func (qp *QP) PostWriteUC(wrID uint64, mr *MR, offset, length int, rkey uint32, roffset int, imm uint32, signaled bool) {
	if qp.Transport != UC {
		panic("verbs: PostWriteUC on non-UC QP")
	}
	if !qp.connected {
		panic("verbs: UC QP not connected")
	}
	hdr := wireMsg{op: wireWrite, msgID: qp.ctx.allocMsgID(), rkey: rkey, roffset: roffset, imm: imm}
	wire := qp.sendMessage(qp.peer, &message{hdr: hdr, mr: mr, offset: offset}, length)
	if signaled {
		qp.ctx.eng.AtHandler(wire, qp, wrID, length, nil)
	}
}

// message is what every segment of a message repeats: the header of
// segment 0 and where the bytes live. It rides the message's fabric.Train
// as the train's Header and fills each segment's header when the fabric
// makes the segment's packet.
type message struct {
	hdr wireMsg // seg, dataLen and data are per segment; roffset is segment 0's
	// mr is the region holding the bytes, from offset on. nil means no
	// bytes, only sizes: sendMessage clears it for a region registered
	// without bytes (RegisterMR), so Segment does not call Slice per
	// segment only to get nil back.
	mr     *MR
	offset int
	mtu    int
	// A reduce contribution's reduction group and chunk, which route its
	// train up the group's tree.
	reduce fabric.ReduceGroupID
	chunk  uint64
}

// Segment implements fabric.Segmenter: it writes segment s into the wire
// header pkt carries, attaching one to a packet that has none.
func (ms *message) Segment(pkt *fabric.Packet, s int) {
	m, _ := pkt.Payload.(*wireMsg)
	if m == nil {
		m = new(wireMsg)
		pkt.Payload = m
	}
	*m = ms.hdr
	segOff := s * ms.mtu
	m.seg = s
	m.roffset += segOff
	m.dataLen = pkt.PayloadBytes
	if ms.mr != nil && m.dataLen > 0 {
		m.data = ms.mr.Slice(ms.offset+segOff, m.dataLen)
	}
}

// sendMessage sends ms, length bytes at ms.offset of ms.mr, to dst as one
// fabric.Train of MTU segments numbered from 0, and reports when the last
// one leaves the NIC. Every message a QP sends leaves here. The whole range
// is bounds-checked now, since a train of several segments reads their
// bytes only as they reach the first switch.
func (qp *QP) sendMessage(dst Addr, ms *message, length int) sim.Time {
	if length < 0 {
		panic(fmt.Sprintf("verbs: negative message length %d", length))
	}
	if ms.mr != nil && length > 0 {
		ms.mr.check(ms.offset, length)
	}
	ctx := qp.ctx
	tr := ctx.nic.NewTrain()
	tr.Dst, tr.Group, tr.Flow, tr.Bytes = dst.Host, dst.Group, uint64(qp.N), length
	tr.Reduce, tr.ReduceChunk = ms.reduce, ms.chunk
	h, ok := tr.Header.(*message)
	if !ok {
		h = new(message)
		tr.Header = h
	}
	*h = *ms
	if ms.mr != nil && ms.mr.Data == nil && !ms.mr.lazy {
		h.mr = nil // a region without bytes: Segment skips Slice
	}
	h.mtu = ctx.MTU()
	h.hdr.srcQPN, h.hdr.dstQPN = qp.N, dst.QPN
	// An empty message is one segment and still carries its immediate. Most
	// messages fit one segment, so they skip the division.
	h.hdr.nsegs = 1
	if length > h.mtu {
		h.hdr.nsegs = (length + h.mtu - 1) / h.mtu
	}
	return ctx.nic.InjectTrain(tr)
}

// assemblyKey identifies one in-flight UC message. QPNs and message ids are
// only unique per context, so the source host must be part of the key.
type assemblyKey struct {
	srcHost topology.NodeID
	srcQPN  QPN
	msgID   uint64
}

type assemblyState struct {
	got   []bool
	have  int
	bytes int
	data  []byte // two-sided RC payload staged until a receive WQE matches
}

// newAssembly returns empty assembly state for a message of nsegs segments,
// recycled when the context has one: its got bitmap keeps its capacity.
func (ctx *Context) newAssembly(nsegs int) *assemblyState {
	var st *assemblyState
	if n := len(ctx.freeAsm); n > 0 {
		st = ctx.freeAsm[n-1]
		ctx.freeAsm[n-1] = nil
		ctx.freeAsm = ctx.freeAsm[:n-1]
	} else {
		st = &assemblyState{}
	}
	st.got = cleared(st.got, nsegs)
	return st
}

// cleared returns n false flags, in b's backing array when it is big enough.
func cleared(b []bool, n int) []bool {
	if cap(b) < n {
		return make([]bool, n)
	}
	b = b[:n]
	clear(b)
	return b
}

// putAssembly recycles the state of a completed message once it has been
// consumed; nothing may hold st afterwards.
func (ctx *Context) putAssembly(st *assemblyState) {
	*st = assemblyState{got: st.got[:0]}
	ctx.freeAsm = append(ctx.freeAsm, st)
}

// segment files one arriving segment of a UC message and returns the
// message's assembly state, complete when have == m.nsegs, or nil for a
// duplicate. A message still in assembly is by construction not complete,
// so a hit on the entry the previous segment used skips the lookup.
func (qp *QP) segment(src Addr, m *wireMsg) *assemblyState {
	key := assemblyKey{srcHost: src.Host, srcQPN: m.srcQPN, msgID: m.msgID}
	st := qp.lastAsm
	if st == nil || key != qp.lastKey {
		st = qp.assembly[key]
		if st == nil {
			st = qp.ctx.newAssembly(m.nsegs)
			if qp.assembly == nil {
				qp.assembly = make(map[assemblyKey]*assemblyState)
			}
			qp.assembly[key] = st
		}
		qp.lastKey, qp.lastAsm = key, st
	}
	if st.got[m.seg] {
		return nil
	}
	st.got[m.seg] = true
	st.have++
	st.bytes += m.dataLen
	if st.have == m.nsegs {
		delete(qp.assembly, key)
		qp.lastAsm = nil
	}
	return st
}

// receiveWrite handles one UC/RC write segment on the receiver.
func (qp *QP) receiveWrite(src Addr, m *wireMsg) {
	mr := qp.lastMR
	if mr == nil || mr.Key != m.rkey {
		var ok bool
		if mr, ok = qp.ctx.LookupMR(m.rkey); !ok {
			panic(fmt.Sprintf("verbs: write to unknown rkey %d on host %d", m.rkey, qp.ctx.Host))
		}
		qp.lastMR = mr
	}
	var st *assemblyState
	var done, ok bool
	if qp.Transport == RC {
		st, done, ok = qp.rcSegment(src, m)
	} else if st = qp.segment(src, m); st != nil {
		done, ok = st.have == m.nsegs, true
	}
	if !ok {
		return
	}
	mr.write(m.roffset, m.data, m.dataLen)
	if !done {
		return
	}
	qp.recvCQ.Push(CQE{
		Op: OpRecvWriteImm, QPN: qp.N,
		Imm: m.imm, Bytes: qp.msgBytes(st, m),
	})
	if qp.Transport == RC {
		qp.deliverRC(src, m, st)
	} else {
		qp.ctx.putAssembly(st)
	}
}

// msgBytes is the size of a complete message: its assembled bytes, or,
// when it took no assembly state, its full segments before the one that
// completed it, the last.
func (qp *QP) msgBytes(st *assemblyState, m *wireMsg) int {
	if st == nil {
		return (m.nsegs-1)*qp.ctx.MTU() + m.dataLen
	}
	return st.bytes
}

// --- RC ---------------------------------------------------------------------

type rcPending struct {
	wrID     uint64
	msgID    uint64
	seq      uint32 // writes and sends only
	dst      Addr
	op       wireOp
	mr       *MR
	offset   int
	length   int
	rkey     uint32
	roffset  int
	imm      uint32
	signaled bool
	retries  int
	// posted is when the WR entered the send queue; the ack that retires it
	// closes the completion-latency observation.
	posted sim.Time
	// timer is the armed retransmission timeout. Engine events are pooled,
	// and the Handle's generation check makes cancelling a timer that
	// already fired — an ack racing its own retransmission — a guaranteed
	// no-op even after the event's recycling.
	timer sim.Handle
	// read bookkeeping (requester side): readGot flags the response
	// segments landed, sized by the first of them, and readSegs counts them
	isRead   bool
	readDst  *MR
	readOff  int
	readGot  []bool
	readSegs int
	readRecv int
}

// newPending returns a recycled (or new) rcPending set to v, which has no
// readGot: a recycled one keeps its read bitmap's capacity.
func (ctx *Context) newPending(v rcPending) *rcPending {
	var p *rcPending
	if n := len(ctx.freePending); n > 0 {
		p = ctx.freePending[n-1]
		ctx.freePending[n-1] = nil
		ctx.freePending = ctx.freePending[:n-1]
	} else {
		p = new(rcPending)
	}
	got := p.readGot
	*p = v
	p.readGot = got
	return p
}

// putPending recycles a retired request: acked, its read complete, or
// failed with OpErr. It has left ctx.pending and its timer is cancelled or
// has fired; a stale retransmit event that still names it is a no-op,
// because retransmit checks identity, not just the message id.
func (ctx *Context) putPending(p *rcPending) {
	*p = rcPending{readGot: p.readGot[:0]}
	ctx.freePending = append(ctx.freePending, p)
}

// PostSendRC sends a two-sided reliable message; the receiver must have a
// posted receive WQE large enough for it.
func (qp *QP) PostSendRC(wrID uint64, mr *MR, offset, length int, imm uint32, signaled bool) {
	qp.mustRC()
	qp.startRC(qp.ctx.newPending(rcPending{wrID: wrID, dst: qp.peer, op: wireSendRC, mr: mr, offset: offset,
		length: length, imm: imm, signaled: signaled}))
}

// PostWriteRC performs a reliable RDMA Write with immediate.
func (qp *QP) PostWriteRC(wrID uint64, mr *MR, offset, length int, rkey uint32, roffset int, imm uint32, signaled bool) {
	qp.mustRC()
	qp.startRC(qp.ctx.newPending(rcPending{wrID: wrID, dst: qp.peer, op: wireWrite, mr: mr, offset: offset,
		length: length, rkey: rkey, roffset: roffset, imm: imm, signaled: signaled}))
}

// PostReadRC fetches length bytes from the peer's rkey[roffset] into
// local[localOff]. Completion surfaces as an OpRead CQE. This is the
// primitive the slow-path fetch layer uses to repair dropped chunks.
func (qp *QP) PostReadRC(wrID uint64, local *MR, localOff int, rkey uint32, roffset, length int) {
	qp.mustRC()
	qp.startRC(qp.ctx.newPending(rcPending{wrID: wrID, dst: qp.peer, op: wireReadReq,
		rkey: rkey, roffset: roffset, length: length,
		isRead: true, readDst: local, readOff: localOff, signaled: true}))
}

func (qp *QP) mustRC() {
	if qp.Transport != RC {
		panic("verbs: RC operation on non-RC QP")
	}
	if !qp.connected {
		panic("verbs: RC QP not connected")
	}
}

func (qp *QP) startRC(p *rcPending) {
	ctx := qp.ctx
	p.posted = ctx.eng.Now()
	p.msgID = ctx.allocMsgID()
	if p.op != wireReadReq { // the responder tracks no reads
		p.seq = qp.sendSeq
		qp.sendSeq++
	}
	if ctx.pending == nil {
		ctx.pending = make(map[uint64]*rcPending)
	}
	ctx.pending[p.msgID] = p
	wire := qp.transmitRC(p)
	qp.armRetransmit(p, wire)
}

// transmitRC sends (or resends) the message's segments. The sequence number
// and message id are stable across retransmissions so that the receiver's
// window (and requester-side read reassembly) accumulate progress across
// retries — the moral equivalent of hardware go-back-N making forward
// progress.
func (qp *QP) transmitRC(p *rcPending) sim.Time {
	if p.op == wireReadReq {
		// A 16-byte request; the p.length bytes it asks for ride in its
		// header, and armRetransmit budgets their wire time.
		hdr := wireMsg{op: wireReadReq, msgID: p.msgID, rkey: p.rkey, roffset: p.roffset, readLen: p.length}
		return qp.sendMessage(p.dst, &message{hdr: hdr}, 16)
	}
	hdr := wireMsg{op: p.op, seq: p.seq, msgID: p.msgID, rkey: p.rkey, roffset: p.roffset, imm: p.imm}
	return qp.sendMessage(p.dst, &message{hdr: hdr, mr: p.mr, offset: p.offset}, p.length)
}

// armRetransmit schedules the retransmission timer. The clock starts when
// the last segment has left the NIC (hardware measures ack timeouts from
// transmission, not from software posting — otherwise deep send queues
// would fire spurious retransmit storms), plus exponential backoff across
// retries.
func (qp *QP) armRetransmit(p *rcPending, wire sim.Time) {
	ctx := qp.ctx
	transfer := sim.Time(float64(p.length) / ctx.f.Config().LinkBandwidth * 2e9)
	rto := retransmitTimeout + transfer
	rto <<= uint(p.retries) // exponential backoff
	deadline := wire + rto
	if now := ctx.eng.Now(); deadline < now {
		deadline = now + rto
	}
	p.timer = ctx.eng.AtHandler(deadline, qp, 0, 0, p)
}

func (qp *QP) retransmit(p *rcPending) {
	if qp.ctx.pending[p.msgID] != p {
		return // retired (and maybe recycled) while the timer was in flight
	}
	p.retries++
	if p.retries > maxRetries {
		delete(qp.ctx.pending, p.msgID)
		qp.sendCQ.Push(CQE{Op: OpErr, QPN: qp.N, WrID: p.wrID})
		qp.ctx.putPending(p)
		return
	}
	qp.Retransmits++
	wire := qp.transmitRC(p)
	qp.armRetransmit(p, wire)
}

func (qp *QP) sendAck(dst Addr, msgID uint64) {
	qp.sendMessage(dst, &message{hdr: wireMsg{op: wireAck, msgID: msgID}}, 8)
}

func (qp *QP) receiveAck(m *wireMsg) {
	p, ok := qp.ctx.pending[m.msgID]
	if !ok {
		return // duplicate ack after retransmission
	}
	delete(qp.ctx.pending, m.msgID)
	p.timer.Cancel()
	qp.ctx.complLat.Observe(qp.ctx.eng.Now() - p.posted)
	if p.signaled && !p.isRead {
		qp.sendCQ.Push(CQE{Op: OpSend, QPN: qp.N, WrID: p.wrID, Bytes: p.length})
	}
	qp.ctx.putPending(p)
}

// receiveReadReq serves an incoming RDMA Read on the responder: stream the
// requested range back as read-response segments. The NIC serves reads
// without software involvement — no CQE on the responder.
func (qp *QP) receiveReadReq(src Addr, m *wireMsg) {
	mr, ok := qp.ctx.LookupMR(m.rkey)
	if !ok {
		panic(fmt.Sprintf("verbs: read of unknown rkey %d on host %d", m.rkey, qp.ctx.Host))
	}
	// Segment s answers at roffset s*MTU of the requester's buffer.
	qp.sendMessage(src, &message{hdr: wireMsg{op: wireReadResp, msgID: m.msgID}, mr: mr, offset: m.roffset}, m.readLen)
}

// receiveReadResp accumulates read-response segments on the requester.
func (qp *QP) receiveReadResp(m *wireMsg) {
	var p *rcPending
	if q, ok := qp.ctx.pending[m.msgID]; ok && q.isRead {
		p = q
	} else {
		return // response to a superseded (retransmitted) read
	}
	if len(p.readGot) == 0 {
		p.readGot = cleared(p.readGot, m.nsegs)
	}
	if p.readGot[m.seg] {
		return
	}
	p.readGot[m.seg] = true
	p.readSegs++
	p.readRecv += m.dataLen
	p.readDst.write(p.readOff+m.roffset, m.data, m.dataLen)
	if p.readSegs == m.nsegs {
		delete(qp.ctx.pending, m.msgID)
		p.timer.Cancel()
		qp.sendCQ.Push(CQE{Op: OpRead, QPN: qp.N, WrID: p.wrID, Bytes: p.readRecv})
		qp.ctx.putPending(p)
	}
}

// receive is the per-QP packet demultiplexer.
func (qp *QP) receive(pkt *fabric.Packet, m *wireMsg) {
	src := Addr{Host: pkt.Src, QPN: m.srcQPN, Group: fabric.NoGroup}
	switch m.op {
	case wireSendUD:
		qp.receiveUD(m)
	case wireWrite:
		qp.receiveWrite(src, m)
	case wireSendRC:
		qp.receiveSendSegment(src, m)
	case wireAck:
		qp.receiveAck(m)
	case wireReadReq:
		qp.receiveReadReq(src, m)
	case wireReadResp:
		qp.receiveReadResp(m)
	default:
		panic("verbs: unknown wire op")
	}
}

// receiveSendSegment reassembles two-sided RC messages and delivers each
// into a posted receive. RC with an empty RQ would RNR-NAK; the
// retransmission timer covers that case, so the message is dropped, unacked
// and forgotten, and the sender retries until a receive is posted.
func (qp *QP) receiveSendSegment(src Addr, m *wireMsg) {
	st, done, ok := qp.rcSegment(src, m)
	if !ok {
		return
	}
	data := m.data // a one-segment message is delivered straight from its packet
	if st != nil {
		if m.data != nil {
			mtu := qp.ctx.MTU()
			if st.data == nil {
				st.data = make([]byte, m.nsegs*mtu)
			}
			copy(st.data[m.seg*mtu:], m.data)
		}
		if !done {
			return
		}
		data = st.data
	}
	w, ok := qp.popRecv()
	if !ok {
		qp.RNRDrops++
		qp.ctx.RNRDrops++
		if st != nil {
			qp.window.forget(m.seq)
			qp.ctx.putAssembly(st)
		}
		return
	}
	n := min(qp.msgBytes(st, m), w.length)
	if data != nil {
		w.mr.write(w.offset, data, n)
	}
	qp.recvCQ.Push(CQE{
		Op: OpRecv, QPN: qp.N, WrID: w.wrID,
		Imm: m.imm, Bytes: n,
	})
	qp.deliverRC(src, m, st)
}
