package core

import (
	"fmt"

	"repro/internal/bitmap"
	"repro/internal/dpa"
	"repro/internal/sim"
	"repro/internal/telemetry"
	"repro/internal/verbs"
)

type opKind uint8

const (
	kindBroadcast opKind = iota
	kindAllgather
	kindBarrier
)

func (k opKind) String() string {
	switch k {
	case kindBroadcast:
		return "broadcast"
	case kindAllgather:
		return "allgather"
	default:
		return "barrier"
	}
}

// opState is the per-rank state of the current collective. Each rank has
// one, reset in place by startOp, so an operation allocates no op state.
type opState struct {
	r    *Rank
	seq  int
	kind opKind
	root int // broadcast root rank (ignored for allgather)

	n     int // send-buffer bytes per root
	chunk int // fragmentation unit
	cpr   int // chunks per root
	total int // chunks in the whole operation
	roots int // number of transmitting ranks

	sendMR *verbs.MR
	recvMR *verbs.MR

	bm        *bitmap.Bitmap
	remaining int
	dmaOut    int
	// dmaDone retires one staging copy. One closure per rank, handed to
	// every DMA enqueue, so a received chunk allocates nothing.
	dmaDone func()

	isRoot    bool
	begun     bool
	pendAct   bool // activation token arrived before our barrier finished
	txStarted bool
	txDone    bool
	rxDone    bool
	finalRecv bool
	done      bool

	// TX progress.
	txNext int

	// Slow path.
	cutoff      sim.Handle
	recovering  bool
	fetchWait   bool // request sent to the left neighbor, ack pending
	fetchReads  [][2]int
	fetchOut    int
	deferredReq []ctrlMsg
	recovered   int

	// Dissemination barrier.
	barRound int
	barGot   []bool

	// Timestamps for the Figure 10 critical-path breakdown.
	tStart   sim.Time
	tBarrier sim.Time
	tTxStart sim.Time
	tTxDone  sim.Time
	tRxDone  sim.Time
	tDone    sim.Time
}

// newOpState returns a rank's op state with the storage that outlives one
// operation: the bitmap and the DMA completion closure.
func newOpState(r *Rank) *opState {
	op := &opState{r: r, bm: &bitmap.Bitmap{}}
	op.dmaDone = func() {
		op.dmaOut--
		op.maybeRxDone()
	}
	return op
}

// rec traces a phase transition (no-op when tracing is off).
func (op *opState) rec(phase, detail string) {
	op.r.comm.cfg.Tracer.Record(op.r.eng.Now(), op.r.id, op.seq, phase, detail)
	if m := op.r.comm.cfg.Metrics; m != nil {
		m.Counter("core", "phase_total", "phase="+phase, telemetry.Stable).Add(1)
	}
}

// recf is rec with a formatted detail, built only when a tracer keeps it.
func (op *opState) recf(phase, format string, args ...int) {
	detail := ""
	if op.r.comm.cfg.Tracer != nil {
		a := make([]any, len(args))
		for i, v := range args {
			a[i] = v
		}
		detail = fmt.Sprintf(format, a...)
	}
	op.rec(phase, detail)
}

// psn/immediate encoding: [31:24] low bits of the operation sequence (the
// "collective ID" of the paper's footnote 3), [23:0] the chunk PSN.
const maxPSNChunks = 1 << 24

func (op *opState) encPSN(psn int) uint32 {
	return uint32(op.seq&0xFF)<<24 | uint32(psn)
}

func decPSN(imm uint32) (seqLow, psn int) {
	return int(imm >> 24), int(imm & 0xFFFFFF)
}

// chunkSrc returns the root rank that owns global chunk psn.
func (op *opState) chunkSrc(psn int) int {
	if op.kind == kindBroadcast {
		return op.root
	}
	return psn / op.cpr
}

// chunkByte returns the byte range [off, off+len) of chunk psn in the
// receive buffer.
func (op *opState) chunkByte(psn int) (off, length int) {
	src := op.chunkSrc(psn)
	local := psn
	if op.kind == kindAllgather {
		local = psn % op.cpr
	}
	off = local * op.chunk
	length = op.n - off
	if length > op.chunk {
		length = op.chunk
	}
	if op.kind == kindAllgather {
		off += src * op.n
	}
	return off, length
}

// subgroupOf maps a root-local chunk index to its multicast subgroup.
func (op *opState) subgroupOf(local int) int { return local % op.r.comm.cfg.Subgroups }

// ranksPerChain returns R0, the length of each broadcast chain.
func (op *opState) ranksPerChain() int {
	p := op.r.comm.Size()
	m := op.r.comm.cfg.Chains
	return (p + m - 1) / m
}

// chainHead reports whether this rank starts its chain unprompted.
func (op *opState) chainHead() bool {
	return op.kind == kindAllgather && op.r.id%op.ranksPerChain() == 0
}

// chainNext returns the rank to activate after this one finishes
// multicasting, or -1 at the end of the chain.
func (op *opState) chainNext() int {
	if op.kind != kindAllgather {
		return -1
	}
	r0 := op.ranksPerChain()
	next := op.r.id + 1
	if next%r0 == 0 || next >= op.r.comm.Size() {
		return -1
	}
	return next
}

// begin runs on the app thread once the operation is dispatched: register
// buffers, pre-post receives, copy local data, then enter the RNR barrier.
func (op *opState) begin() {
	r := op.r
	op.tStart = r.eng.Now()
	op.rec(telemetry.PhaseDispatch, op.kind.String())

	// Pre-post the receive queues (UD fast path) before synchronizing, so
	// no multicast datagram can find an empty RQ (§III-C RNR avoidance).
	if op.kind != kindBarrier && r.comm.cfg.Transport == verbs.UD {
		op.prepostData()
	}

	// Local shard: an allgather rank copies its own send buffer into its
	// slot of the receive buffer without touching the network; a broadcast
	// root owns every chunk from the start.
	switch {
	case op.kind == kindBarrier:
		op.remaining = 0
	case op.kind == kindAllgather:
		base := r.id * op.cpr
		for l := 0; l < op.cpr; l++ {
			op.bm.Set(base + l)
		}
		op.remaining = op.total - op.cpr
		op.dmaOut++
		if op.sendMR.Data != nil && op.recvMR.Data != nil {
			copy(op.recvMR.Data[r.id*op.n:r.id*op.n+op.n], op.sendMR.Data[:op.n])
		}
		r.ctx.DMA().Enqueue(op.n, op.dmaDone)
	case op.isRoot:
		for l := 0; l < op.cpr; l++ {
			op.bm.Set(l)
		}
		op.remaining = 0
		if op.sendMR != op.recvMR && op.sendMR.Data != nil && op.recvMR.Data != nil {
			copy(op.recvMR.Data[:op.n], op.sendMR.Data[:op.n])
		}
	default:
		op.remaining = op.total
	}

	op.startBarrier()
}

// prepostData fills each subgroup QP's receive queue with staging slots.
func (op *opState) prepostData() {
	r := op.r
	cfg := r.comm.cfg
	for s := 0; s < cfg.Subgroups; s++ {
		expected := op.expectedChunks(s)
		if expected > cfg.RQDepth {
			expected = cfg.RQDepth
		}
		for slot := 0; slot < expected; slot++ {
			if !r.dataQPs[s].PostRecv(uint64(slot), r.staging[s], slot*op.chunk, op.chunk) {
				break // RQ still holds surplus receives from a previous op
			}
		}
	}
}

// expectedChunks returns how many chunks this rank will receive on
// subgroup s.
func (op *opState) expectedChunks(s int) int {
	perRoot := 0
	subgroups := op.r.comm.cfg.Subgroups
	for l := s; l < op.cpr; l += subgroups {
		perRoot++
	}
	senders := op.roots
	if op.isRoot {
		senders-- // never receives its own multicast
	}
	return perRoot * senders
}

// --- barrier ----------------------------------------------------------------

// startBarrier begins the dissemination barrier that implements RNR
// synchronization: ceil(log2 P) rounds; in round k the rank signals
// (id + 2^k) mod P and waits for (id - 2^k) mod P.
func (op *opState) startBarrier() {
	p := op.r.comm.Size()
	rounds := 0
	for d := 1; d < p; d *= 2 {
		rounds++
	}
	if cap(op.barGot) < rounds {
		op.barGot = make([]bool, rounds)
	} else {
		op.barGot = op.barGot[:rounds]
		clear(op.barGot)
	}
	op.barRound = 0
	op.begun = true
	if rounds == 0 {
		op.barrierDone()
		return
	}
	op.r.sendCtrl((op.r.id+1)%p, ctrlBarrier, 0, nil)
	op.advanceBarrier()
}

func (op *opState) onBarrierMsg(round int) {
	if round < len(op.barGot) {
		op.barGot[round] = true
	}
	op.advanceBarrier()
}

func (op *opState) advanceBarrier() {
	p := op.r.comm.Size()
	for op.barRound < len(op.barGot) && op.barGot[op.barRound] {
		op.barRound++
		if op.barRound < len(op.barGot) {
			d := 1 << op.barRound
			op.r.sendCtrl((op.r.id+d)%p, ctrlBarrier, op.barRound, nil)
		}
	}
	if op.barRound == len(op.barGot) && op.tBarrier == 0 {
		op.barrierDone()
	}
}

// barrierDone transitions into the multicast phase: arm the cutoff timer,
// and start transmitting if this rank is an initial root.
func (op *opState) barrierDone() {
	op.tBarrier = op.r.eng.Now()
	op.rec(telemetry.PhaseBarrier, "")
	op.armCutoff()
	if op.isRoot && (op.kind == kindBroadcast || op.chainHead() || op.pendAct) {
		op.startTX()
	}
	// Degenerate cases (single rank, broadcast root) may already be done.
	op.maybeRxDone()
}

// --- TX ---------------------------------------------------------------------

// startTX begins the root datapath: fragment the send buffer and post
// multicast sends in doorbell batches, only the last send of each batch
// signaled (§V-A). The next batch is posted when that completion arrives,
// pacing injection at wire speed.
func (op *opState) startTX() {
	if op.txStarted {
		return
	}
	op.txStarted = true
	op.tTxStart = op.r.eng.Now()
	op.recf(telemetry.PhaseTxStart, "%d chunks", op.cpr)
	op.postBatch()
}

func (op *opState) postBatch() {
	r := op.r
	cfg := r.comm.cfg
	b := cfg.SendBatch
	if rest := op.cpr - op.txNext; b > rest {
		b = rest
	}
	if b <= 0 {
		op.txComplete()
		return
	}
	t := r.eng.Now()
	for i := 0; i < b; i++ {
		local := op.txNext
		op.txNext++
		signaled := 0
		if i == b-1 {
			signaled = 1
		}
		t = r.txThread.Run(dpa.SendPost, t)
		r.eng.AtHandler(t, op, uint64(local), signaled, nil)
	}
}

// Event kinds dispatched through opState.OnEvent (arg1 on the cutoff path).
const opEvCutoff = -1

// OnEvent is the op's closure-free timer dispatch: the per-chunk TX posts
// (arg0 = local chunk index, arg1 = signaled flag) and the receive cutoff
// (arg1 == opEvCutoff).
func (op *opState) OnEvent(_ *sim.Engine, _ sim.Handle, arg0 uint64, arg1 int, _ any) {
	if arg1 == opEvCutoff {
		op.startRecovery()
		return
	}
	op.postChunk(int(arg0), arg1 == 1)
}

// postChunk injects one multicast chunk on its subgroup QP.
func (op *opState) postChunk(local int, signaled bool) {
	r := op.r
	s := op.subgroupOf(local)
	off := local * op.chunk
	length := op.n - off
	if length > op.chunk {
		length = op.chunk
	}
	psn := local
	if op.kind == kindAllgather {
		psn = r.id*op.cpr + local
	}
	imm := op.encPSN(psn)
	qp := r.dataQPs[s]
	if r.comm.cfg.Transport == verbs.UD {
		qp.PostSendUD(uint64(local), verbs.Multicast(r.comm.groups[s]), op.sendMR, off, length, imm, signaled)
		return
	}
	roff, _ := op.chunkByte(psn)
	qp.PostWriteUC(uint64(local), op.sendMR, off, length, op.recvMR.Key, roff, imm, signaled)
}

// handleTxComp runs on the TX worker for each signaled send completion:
// post the next batch, or finish the send path.
func (r *Rank) handleTxComp(e verbs.CQE) {
	op := r.op
	if op == nil || !op.txStarted || op.txDone {
		return
	}
	if op.txNext < op.cpr {
		op.postBatch()
		return
	}
	op.txComplete()
}

// txComplete marks the send path finished and passes the chain activation
// token to the successor root (§IV-A).
func (op *opState) txComplete() {
	if op.txDone {
		return
	}
	op.txDone = true
	op.tTxDone = op.r.eng.Now()
	op.rec(telemetry.PhaseTxDone, "")
	if next := op.chainNext(); next >= 0 {
		op.recf(telemetry.PhaseActivate, "-> rank %d", next)
		op.r.sendCtrl(next, ctrlActivate, 0, nil)
	}
	op.checkDone()
}

// --- RX ---------------------------------------------------------------------

// handleData runs on a receive worker for every fast-path completion.
func (r *Rank) handleData(s int, e verbs.CQE) {
	op := r.op
	switch e.Op {
	case verbs.OpRecv: // UD datagram into the staging ring
		if op != nil && r.comm.cfg.Transport == verbs.UD {
			// Re-post the consumed slot first (keeping the RQ primed), then
			// account the chunk.
			slot := int(e.WrID)
			r.dataQPs[s].PostRecv(e.WrID, r.staging[s], slot*op.chunk, op.chunk)
			seqLow, psn := decPSN(e.Imm)
			if seqLow != op.seq&0xFF {
				return // stale datagram from a previous collective
			}
			op.chunkArrivedUD(s, slot, psn, e.Bytes)
		}
	case verbs.OpRecvWriteImm: // UC zero-copy placement
		if op == nil {
			return
		}
		seqLow, psn := decPSN(e.Imm)
		if seqLow != op.seq&0xFF {
			return
		}
		op.chunkArrived(psn)
	}
}

// chunkArrivedUD accounts a UD chunk: bitmap update plus the non-blocking
// staging-to-user DMA copy (step 4 of Figure 6).
func (op *opState) chunkArrivedUD(s, slot, psn, bytes int) {
	if psn >= op.total {
		panic(fmt.Sprintf("core: PSN %d out of range (%d chunks)", psn, op.total))
	}
	if !op.bm.Set(psn) {
		return // duplicate (e.g. multicast raced the fetch path)
	}
	op.remaining--
	off, length := op.chunkByte(psn)
	if length > bytes {
		length = bytes
	}
	// The copy content is taken now (the slot is re-posted); the DMA engine
	// charges the bandwidth/latency and defers completion accounting.
	if st := op.r.staging[s]; st.Data != nil && op.recvMR.Data != nil {
		copy(op.recvMR.Data[off:off+length], st.Data[slot*op.chunk:slot*op.chunk+length])
	}
	op.dmaOut++
	op.r.ctx.DMA().Enqueue(length, op.dmaDone)
	op.serveDeferred()
	op.maybeRxDone()
}

// chunkArrived accounts a UC chunk already placed zero-copy in the user
// buffer by the NIC.
func (op *opState) chunkArrived(psn int) {
	if psn >= op.total {
		panic(fmt.Sprintf("core: PSN %d out of range (%d chunks)", psn, op.total))
	}
	if !op.bm.Set(psn) {
		return
	}
	op.remaining--
	op.serveDeferred()
	op.maybeRxDone()
}

// maybeRxDone fires the receive-complete transition: every chunk present
// and all staging copies drained.
func (op *opState) maybeRxDone() {
	if op.rxDone || op.remaining != 0 || op.dmaOut != 0 || op.fetchOut != 0 {
		return
	}
	if op.tBarrier == 0 {
		return // never complete before RNR synchronization
	}
	op.rxDone = true
	op.tRxDone = op.r.eng.Now()
	op.rec(telemetry.PhaseRxDone, "")
	op.cutoff.Cancel()
	// Final handshake: tell the left neighbor we have everything.
	if op.r.comm.Size() > 1 {
		op.recf(telemetry.PhaseFinal, "-> rank %d", op.r.left())
		op.r.sendCtrl(op.r.left(), ctrlFinal, 0, nil)
	} else {
		op.finalRecv = true
	}
	op.serveDeferred()
	op.checkDone()
}

// checkDone completes the operation when the receive path, send path and
// final handshake have all finished.
func (op *opState) checkDone() {
	if op.done || !op.rxDone || !op.finalRecv {
		return
	}
	if op.isRoot && !op.txDone {
		return
	}
	op.done = true
	op.tDone = op.r.eng.Now()
	op.rec(telemetry.PhaseDone, "")
	r := op.r
	for _, qp := range r.dataQPs {
		qp.GCAssembly()
	}
	r.TotalRecovered += op.recovered
	r.comm.rankDone(r)
}

// handleCtrl dispatches control-plane messages for this operation.
func (op *opState) handleCtrl(m ctrlMsg) {
	switch m.typ {
	case ctrlBarrier:
		op.onBarrierMsg(m.arg)
	case ctrlActivate:
		if !op.isRoot {
			panic("core: activation token delivered to a non-root")
		}
		if op.tBarrier == 0 {
			op.pendAct = true // predecessor outpaced our barrier tail
			return
		}
		op.startTX()
	case ctrlFinal:
		op.finalRecv = true
		op.checkDone()
	case ctrlFetchReq:
		op.onFetchReq(m)
	case ctrlFetchAck:
		op.onFetchAck(m)
	default:
		panic(fmt.Sprintf("core: unknown ctrl type %d", m.typ))
	}
}
