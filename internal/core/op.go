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
)

func (k opKind) String() string {
	if k == kindBroadcast {
		return "broadcast"
	}
	return "allgather"
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
	dmaOut    int      // staging copies not yet retired (see stage)
	dmaQueued bool     // one of them has its completion queued
	dmaAt     sim.Time // the newest copy's completion, when it is not queued
	dmaSeq    uint64   // and its reserved sequence number

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
	tTxDone  sim.Time
	tRxDone  sim.Time
	tDone    sim.Time
}

// newOpState returns a rank's op state with the storage that outlives one
// operation: the bitmap.
func newOpState(r *Rank) *opState {
	return &opState{r: r, bm: &bitmap.Bitmap{}}
}

// rec records a phase transition (no-op when telemetry is off).
func (op *opState) rec(phase, detail string) {
	if reg := op.r.comm.reg; reg != nil {
		reg.Record(op.r.eng.Now(), op.r.id, op.seq, phase, detail)
		reg.Counter("core", "phase_total", "phase="+phase).Add(1)
	}
}

// recf is rec with a formatted detail, built only when a registry keeps it.
func (op *opState) recf(phase, format string, args ...int) {
	if op.r.comm.reg == nil {
		return
	}
	a := make([]any, len(args))
	for i, v := range args {
		a[i] = v
	}
	op.rec(phase, fmt.Sprintf(format, a...))
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

// chunkRange returns the byte range [off, off+len) of root-local chunk
// local in its root's send buffer.
func (op *opState) chunkRange(local int) (off, length int) {
	off = local * op.chunk
	return off, min(op.n-off, op.chunk)
}

// chunkByte returns the byte range [off, off+len) of chunk psn in the
// receive buffer, where an allgather places root src's buffer at src*n.
func (op *opState) chunkByte(psn int) (off, length int) {
	if op.kind == kindBroadcast {
		return op.chunkRange(psn)
	}
	off, length = op.chunkRange(psn % op.cpr)
	return off + psn/op.cpr*op.n, length
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

	// Pre-post the receive queues before synchronizing, so no multicast
	// datagram can find an empty RQ (§III-C RNR avoidance).
	op.prepostData()

	// Local shard: an allgather rank copies its own send buffer into its
	// slot of the receive buffer without touching the network; a broadcast
	// root owns every chunk from the start.
	switch {
	case op.kind == kindAllgather:
		base := r.id * op.cpr
		for l := 0; l < op.cpr; l++ {
			op.bm.Set(base + l)
		}
		op.remaining = op.total - op.cpr
		if op.sendMR.Data != nil && op.recvMR.Data != nil {
			copy(op.recvMR.Data[r.id*op.n:r.id*op.n+op.n], op.sendMR.Data[:op.n])
		}
		op.stage(op.n)
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
	op.recf(telemetry.PhaseTxStart, "%d chunks", op.cpr)
	op.postBatch()
}

func (op *opState) postBatch() {
	r := op.r
	b := min(sendBatch, op.cpr-op.txNext)
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

// Event kinds dispatched through opState.OnEvent (arg1 off the TX path).
const (
	opEvCutoff = -1
	opEvDMA    = -2
)

// OnEvent is the op's closure-free timer dispatch: the per-chunk TX posts
// (arg0 = local chunk index, arg1 = signaled flag), the receive cutoff
// (arg1 == opEvCutoff) and the queued staging-copy completion
// (arg1 == opEvDMA).
func (op *opState) OnEvent(_ *sim.Engine, _ sim.Handle, arg0 uint64, arg1 int, _ any) {
	switch arg1 {
	case opEvCutoff:
		if op.dmaOut != 0 && !op.dmaQueued {
			op.settleCopies() // the timer no longer keeps the engine busy
		}
		op.startRecovery()
	case opEvDMA:
		op.copyDone()
	default:
		op.postChunk(int(arg0), arg1 == 1)
	}
}

// postChunk injects one multicast chunk on its subgroup QP.
func (op *opState) postChunk(local int, signaled bool) {
	r := op.r
	s := op.subgroupOf(local)
	off, length := op.chunkRange(local)
	psn := local
	if op.kind == kindAllgather {
		psn = r.id*op.cpr + local
	}
	r.dataQPs[s].PostSendUD(uint64(local), verbs.Multicast(r.comm.groups[s]), op.sendMR, off, length, op.encPSN(psn), signaled)
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

// handleData runs on a receive worker for every fast-path completion: a
// UD datagram in the staging ring.
func (r *Rank) handleData(s int, e verbs.CQE) {
	op := r.op
	if op == nil {
		return
	}
	// Re-post the consumed slot first (keeping the RQ primed), then account
	// the chunk.
	slot := int(e.WrID)
	r.dataQPs[s].PostRecv(e.WrID, r.staging[s], slot*op.chunk, op.chunk)
	seqLow, psn := decPSN(e.Imm)
	if seqLow != op.seq&0xFF {
		return // stale datagram from a previous collective
	}
	op.chunkArrived(s, slot, psn, e.Bytes)
}

// chunkArrived accounts a chunk: bitmap update plus the non-blocking
// staging-to-user DMA copy (step 4 of Figure 6).
func (op *opState) chunkArrived(s, slot, psn, bytes int) {
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
	op.stage(length)
	op.serveDeferred()
	op.maybeRxDone()
}

// stage books the staging-to-user copy of n bytes on the host's DMA engine.
// A completion only takes its copy off dmaOut, which maybeRxDone alone
// reads, so it matters only as the op's last outstanding copy once the rest
// of maybeRxDone's condition holds. An op therefore queues at most one
// completion; every other copy waits under a reserved number, the newest
// in dmaAt/dmaSeq, until settleCopies folds it or queues it. While the
// cutoff timer is pending, no copy is queued before the rest of the
// condition holds: the timer keeps the engine from running dry under the
// held numbers, and settles them when it fires. Otherwise the first copy
// is queued, and the newest takes its place when it fires. Every copy
// keeps the (at, seq) an event of its own would have had.
func (op *opState) stage(n int) {
	at := op.r.ctx.DMA().Book(n)
	op.dmaOut++
	if op.dmaOut == 1 && !op.cutoff.Active() {
		op.dmaQueued = true
		op.r.eng.AtHandler(at, op, 0, opEvDMA, nil)
		return
	}
	op.dmaAt, op.dmaSeq = at, op.r.eng.Reserve(1)
}

// copyDone runs when the queued staging-copy completion fires. The DMA
// engine completes copies in booking order, so the newest is still due.
func (op *opState) copyDone() {
	op.dmaOut--
	op.dmaQueued = false
	if op.dmaOut != 0 && !op.cutoff.Active() {
		op.settleCopies() // queues the newest: maybeRxDone cannot pass
		return
	}
	op.maybeRxDone()
}

// settleCopies resolves the held copies while none is queued: every copy
// booked before the newest is folded, and so is the newest if an event of
// its own would already have fired; otherwise it is queued.
func (op *opState) settleCopies() {
	eng := op.r.eng
	if !eng.After(op.dmaAt, op.dmaSeq) {
		eng.Fold(op.dmaOut)
		op.dmaOut = 0
		return
	}
	eng.Fold(op.dmaOut - 1)
	op.dmaOut = 1
	op.dmaQueued = true
	eng.AtReserved(op.dmaAt, op.dmaSeq, op, 0, opEvDMA, nil)
}

// maybeRxDone fires the receive-complete transition: every chunk present
// and all staging copies drained (held copies are settled first; see
// stage).
func (op *opState) maybeRxDone() {
	if op.rxDone || op.remaining != 0 || op.fetchOut != 0 {
		return
	}
	if op.tBarrier == 0 {
		return // never complete before RNR synchronization
	}
	if op.dmaOut != 0 && !op.dmaQueued {
		op.settleCopies()
	}
	if op.dmaOut != 0 {
		return
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
	op.r.comm.rankDone(op.r)
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
