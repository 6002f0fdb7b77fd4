package core

import (
	"encoding/binary"
	"fmt"

	"repro/internal/dpa"
	"repro/internal/sim"
	"repro/internal/topology"
	"repro/internal/verbs"
)

// ctrl message types, encoded in the high nibble of the immediate.
const (
	ctrlBarrier  = 1 // arg = dissemination round
	ctrlActivate = 2 // chain token: receiver becomes the next root
	ctrlFinal    = 3 // final-handshake packet from the right neighbor
	ctrlFetchReq = 4 // payload: missing chunk ranges
	ctrlFetchAck = 5 // left neighbor has every requested chunk
)

// encodeCtrl packs (type, arg, opSeq) into a 32-bit immediate:
// [31:28] type, [27:16] arg, [15:0] sequence.
func encodeCtrl(typ, arg, seq int) uint32 {
	if typ < 0 || typ > 15 || arg < 0 || arg > 0xFFF || seq < 0 {
		panic("core: ctrl field out of range")
	}
	return uint32(typ)<<28 | uint32(arg)<<16 | uint32(seq&0xFFFF)
}

func decodeCtrl(imm uint32) (typ, arg, seq int) {
	return int(imm >> 28), int(imm >> 16 & 0xFFF), int(imm & 0xFFFF)
}

const (
	ctrlSlotBytes = 4096 // one receive slot: enough for ~500 fetch ranges
	ctrlSlots     = 64   // pre-posted receives per control QP
)

// Rank is the per-process runtime: verbs resources, worker threads, and
// the state of the in-flight collective.
type Rank struct {
	comm *Communicator
	id   int
	host topology.NodeID
	ctx  *verbs.Context
	// eng is the fabric's engine: all of the rank's protocol events
	// (dispatch, timers, batch posts) run here.
	eng *sim.Engine

	appThread *dpa.Thread
	txThread  *dpa.Thread

	// Fast path, one entry per subgroup.
	dataQPs []*verbs.QP
	rxWkrs  []*dpa.Worker // rxWkrs[s] serves subgroup s's receive CQ
	staging []*verbs.MR

	// Control plane.
	ctrlCQ   *verbs.CQ
	ctrl     map[int]*verbs.QP // peer rank -> RC QP
	qpPeer   map[verbs.QPN]int // local ctrl QPN -> peer rank
	txCQ     *verbs.CQ
	sendSlot *verbs.MR // one marshaling slot per payload type (see sendCtrl)
	slotMRs  map[verbs.QPN]*verbs.MR

	// Fetch ring RC QPs are the ctrl QPs to ring neighbors; reads target
	// the neighbor's receive MR whose rkey is exchanged at init (cached
	// per operation).
	op *opState

	// queued ctrl messages for operations that have not started locally.
	pendingCtrl []ctrlMsg

	// mrCache caches buffer registrations by size (§V-A initialization
	// optimizations).
	mrCache map[int]*verbs.MR

	// Stats aggregated across operations.
	TotalRNRDrops uint64
}

type ctrlMsg struct {
	typ, arg, seq int
	from          int
	payload       []byte
}

func newRank(c *Communicator, id int, host topology.NodeID) (*Rank, error) {
	cfg := c.cfg
	node := c.cl.Node(host)
	r := &Rank{
		comm:    c,
		id:      id,
		host:    host,
		ctx:     node.Ctx,
		eng:     node.Ctx.Engine(),
		ctrl:    make(map[int]*verbs.QP),
		qpPeer:  make(map[verbs.QPN]int),
		slotMRs: make(map[verbs.QPN]*verbs.MR),
		mrCache: make(map[int]*verbs.MR),
		ctrlCQ:  &verbs.CQ{},
		txCQ:    &verbs.CQ{},
	}
	r.appThread = node.CPU.AllocThreads(1)[0]
	r.txThread = node.CPU.AllocThreads(1)[0]

	// Receive workers: the host's shared ones, or one per subgroup on its
	// own thread. Allocating their threads after app and tx keeps each
	// thread's place on its core, and so its DPA contention.
	rxProfile := dpa.RecvProfile(cfg.RxOnDPA, verbs.UD)
	if cfg.ArbitratedRx {
		var err error
		if r.rxWkrs, err = node.RxArbiters(cfg.Subgroups, cfg.RxOnDPA, rxProfile); err != nil {
			return nil, err
		}
	} else {
		rxChip := node.CPU
		if cfg.RxOnDPA {
			rxChip = node.DPA()
		}
		for _, th := range rxChip.AllocThreads(cfg.Subgroups) {
			r.rxWkrs = append(r.rxWkrs, dpa.NewWorker(r.eng, th, rxProfile))
		}
	}

	// Fast-path QPs: one per subgroup, each with its own CQ, served either
	// by a dedicated worker or by the host's shared arbiter.
	for s := 0; s < cfg.Subgroups; s++ {
		cq := &verbs.CQ{}
		// Send completions go to the TX worker's CQ, receive completions to
		// the subgroup CQ: flow-direction parallelism (§IV-B).
		qp := r.ctx.NewQP(verbs.UD, r.txCQ, cq, cfg.RQDepth)
		if err := qp.AttachMcast(c.groups[s]); err != nil {
			return nil, fmt.Errorf("core: rank %d subgroup %d: %w", id, s, err)
		}
		r.dataQPs = append(r.dataQPs, qp)
		s := s
		r.rxWkrs[s].Serve(cq, func(e verbs.CQE) { r.handleData(s, e) })
		r.staging = append(r.staging, r.registerBuf(cfg.RQDepth*c.chunk))
	}

	// Control workers.
	dpa.NewWorker(r.eng, r.appThread, dpa.TaskDispatch).Serve(r.ctrlCQ, r.handleCtrl)
	dpa.NewWorker(r.eng, r.txThread, dpa.SendPost).Serve(r.txCQ, r.handleTxComp)

	r.sendSlot = r.ctx.RegisterMRLazy(2 * ctrlSlotBytes)
	return r, nil
}

// registerBuf registers a buffer of the given size, with real bytes when
// the communicator runs in verification mode.
func (r *Rank) registerBuf(size int) *verbs.MR {
	if r.comm.cfg.VerifyData {
		return r.ctx.RegisterMRData(make([]byte, size))
	}
	return r.ctx.RegisterMR(size)
}

// cachedMR returns a (possibly shared) registration of the given size,
// modeling the registration cache of §V-A. Buffers are reused across
// operations of the same size.
func (r *Rank) cachedMR(size int) *verbs.MR {
	if mr, ok := r.mrCache[size]; ok {
		return mr
	}
	mr := r.registerBuf(size)
	r.mrCache[size] = mr
	return mr
}

// prepostCtrl fills a control QP's receive queue with slot buffers.
// Control buffers always carry real bytes — fetch-request payloads must be
// parseable regardless of the data-verification mode — but lazily: only the
// slow path ever sends a payload, and most control QPs never see one.
func (r *Rank) prepostCtrl(qp *verbs.QP) {
	mr := r.ctx.RegisterMRLazy(ctrlSlots * ctrlSlotBytes)
	r.slotMRs[qp.N] = mr
	for i := 0; i < ctrlSlots; i++ {
		if !qp.PostRecv(uint64(i), mr, i*ctrlSlotBytes, ctrlSlotBytes) {
			panic("core: control RQ shallower than ctrlSlots")
		}
	}
}

// sendCtrl transmits a small reliable control message to a peer rank.
// payload may be nil. The send is unsignaled: control-path completions are
// not interesting, reliability is the transport's job.
func (r *Rank) sendCtrl(peer, typ, arg int, payload []byte) {
	qp, ok := r.ctrl[peer]
	if !ok {
		panic(fmt.Sprintf("core: rank %d has no control QP to %d", r.id, peer))
	}
	n := len(payload)
	if n > ctrlSlotBytes {
		panic("core: control payload exceeds slot")
	}
	// Only fetch requests and acks carry a payload, and a rank has at most
	// one of each in flight (it asks again only once answered), so each
	// type has one slot, re-read by retransmissions until delivery.
	off := 0
	if typ == ctrlFetchAck {
		off = ctrlSlotBytes
	}
	copy(r.sendSlot.Slice(off, n), payload)
	qp.PostSendRC(0, r.sendSlot, off, n, encodeCtrl(typ, arg, r.opSeqFor()), false)
}

// opSeqFor returns the sequence number stamped on outgoing messages: the
// current operation's.
func (r *Rank) opSeqFor() int {
	if r.op == nil {
		panic("core: control send with no active operation")
	}
	return r.op.seq & 0xFFFF
}

// handleCtrl runs on the app worker for every control-plane completion.
func (r *Rank) handleCtrl(e verbs.CQE) {
	if e.Op == verbs.OpRead || e.Op == verbs.OpErr {
		r.handleFetchReadCQE(e)
		return
	}
	if e.Op != verbs.OpRecv {
		return // stray send completion; ctrl sends are unsignaled
	}
	peer, ok := r.qpPeer[e.QPN]
	if !ok {
		panic("core: ctrl completion on unknown QP")
	}
	typ, arg, seq := decodeCtrl(e.Imm)
	mr, off := r.slotMRs[e.QPN], int(e.WrID)*ctrlSlotBytes
	var payload []byte
	if e.Bytes > 0 {
		payload = append([]byte(nil), mr.Slice(off, e.Bytes)...)
		mr.Release(off)
	}
	// Re-post the consumed slot immediately.
	r.ctrl[peer].PostRecv(e.WrID, mr, off, ctrlSlotBytes)

	msg := ctrlMsg{typ: typ, arg: arg, seq: seq, from: peer, payload: payload}
	r.deliverCtrl(msg)
}

// deliverCtrl dispatches a control message to the active operation, or
// queues it if that operation has not started locally yet (messages can
// arrive from ranks that are ahead of us).
func (r *Rank) deliverCtrl(m ctrlMsg) {
	if r.op == nil || !r.op.begun || m.seq != r.op.seq&0xFFFF {
		r.pendingCtrl = append(r.pendingCtrl, m)
		return
	}
	r.op.handleCtrl(m)
}

// OnEvent runs the rank's deferred operation dispatch (the app-thread
// task-queue handoff scheduled by Communicator.start).
func (r *Rank) OnEvent(_ *sim.Engine, _ sim.Handle, _ uint64, _ int, _ any) {
	r.op.begin()
	r.drainPendingCtrl()
}

// drainPendingCtrl replays queued messages that belong to the (newly
// started) current operation.
func (r *Rank) drainPendingCtrl() {
	if len(r.pendingCtrl) == 0 {
		return
	}
	var rest []ctrlMsg
	for _, m := range r.pendingCtrl {
		if r.op != nil && r.op.begun && m.seq == r.op.seq&0xFFFF {
			r.op.handleCtrl(m)
		} else {
			rest = append(rest, m)
		}
	}
	r.pendingCtrl = rest
}

// left is the rank's left ring neighbor.
func (r *Rank) left() int { p := r.comm.Size(); return (r.id - 1 + p) % p }

// marshalRanges encodes [start,end) chunk ranges for a fetch request.
func marshalRanges(ranges [][2]int) []byte {
	buf := make([]byte, 4+8*len(ranges))
	binary.LittleEndian.PutUint32(buf, uint32(len(ranges)))
	for i, rg := range ranges {
		binary.LittleEndian.PutUint32(buf[4+8*i:], uint32(rg[0]))
		binary.LittleEndian.PutUint32(buf[8+8*i:], uint32(rg[1]))
	}
	return buf
}

func unmarshalRanges(b []byte) ([][2]int, error) {
	if len(b) < 4 {
		return nil, fmt.Errorf("core: short fetch payload")
	}
	n := int(binary.LittleEndian.Uint32(b))
	if len(b) < 4+8*n {
		return nil, fmt.Errorf("core: truncated fetch payload (%d ranges, %d bytes)", n, len(b))
	}
	out := make([][2]int, n)
	for i := 0; i < n; i++ {
		out[i][0] = int(binary.LittleEndian.Uint32(b[4+8*i:]))
		out[i][1] = int(binary.LittleEndian.Uint32(b[8+8*i:]))
	}
	return out, nil
}
