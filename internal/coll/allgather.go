package coll

import (
	"fmt"

	"repro/internal/dpa"
	"repro/internal/sim"
	"repro/internal/verbs"
)

// --- ring allgather ----------------------------------------------------------

// ringAGState is the per-rank ring Allgather state machine: P-1 steps; at
// step k the rank writes block (id-k) mod P to its right neighbor and waits
// for block (id-k-1) mod P from its left neighbor. This is the NCCL/UCC
// large-message algorithm the paper uses as its Allgather baseline.
type ringAGState struct {
	p      *peer
	d      *opDriver
	n      int
	recvMR *verbs.MR
	step   int
	// The ring is not pairwise-symmetric: the left neighbor can run ahead
	// and deliver step k+1's block before our step-k send completes, so
	// progress is tracked with counters, not per-step booleans.
	recvd int
	sent  int
	fin   bool
}

// StartRingAllgather begins a non-blocking ring Allgather of n bytes per
// rank; cb fires when every rank completes.
func (t *Team) StartRingAllgather(n int, cb func(*Result)) error {
	if err := t.checkIdle(n); err != nil {
		return err
	}
	d := t.newDriver("ring-allgather", n, (t.Size()-1)*n, cb)
	size := t.Size()
	for _, p := range t.peers {
		st := &ringAGState{p: p, d: d, n: n, recvMR: p.buf(n * size)}
		if t.cfg.VerifyData {
			fillPattern(st.recvMR.Data[p.id*n:(p.id+1)*n], p.id, t.seq)
		}
		p.op = st
		if size == 1 {
			st.fin = true
			p.eng.AfterHandler(0, d, 0, 0, p)
			continue
		}
		st.sendStep()
	}
	t.assertSymmetricKeys()
	return nil
}

func (st *ringAGState) sendStep() {
	t := st.p.team
	size := t.Size()
	block := (st.p.id - st.step + size) % size
	right := (st.p.id + 1) % size
	qp := t.qpTo(st.p.id, right)
	// Posting cost on the progress thread, then the zero-copy write. The QP
	// is resolved here, at scheduling time, so lazy QP creation order (and
	// with it QPN/flow assignment) is unchanged from the closure days.
	post := st.p.thread.Run(dpa.SendPost, st.p.eng.Now())
	st.p.eng.AtHandler(post, st, uint64(block), 0, qp)
}

// OnEvent posts the scheduled ring write: arg0 is the block, obj the QP.
func (st *ringAGState) OnEvent(_ *sim.Engine, _ sim.Handle, arg0 uint64, _ int, obj any) {
	t := st.p.team
	block := int(arg0)
	obj.(*verbs.QP).PostWriteRC(arg0, st.recvMR, block*st.n, st.n,
		st.recvMR.Key, block*st.n, t.encImm(block), true)
}

func (st *ringAGState) handle(e verbs.CQE) {
	t := st.p.team
	switch e.Op {
	case verbs.OpRecvWriteImm:
		if _, ok := t.checkSeq(e.Imm); !ok {
			return
		}
		st.recvd++
	case verbs.OpSend:
		st.sent++
	case verbs.OpErr:
		panic("coll: ring allgather transport error")
	default:
		return
	}
	for !st.fin && st.recvd > st.step && st.sent > st.step {
		st.step++
		if st.step == t.Size()-1 {
			st.fin = true
			st.d.rankDone(st.p)
			return
		}
		st.sendStep()
	}
}

func (st *ringAGState) done() bool { return st.fin }

// --- linear allgather ---------------------------------------------------------

// linearAGState sends the rank's block directly to every other rank: the
// Ω(N·(P-1)) send-path scheme of Insight 1.
type linearAGState struct {
	p       *peer
	d       *opDriver
	n       int
	recvMR  *verbs.MR
	sent    int
	recved  int
	fin     bool
	pending int
}

// StartLinearAllgather begins a non-blocking linear (direct) Allgather.
func (t *Team) StartLinearAllgather(n int, cb func(*Result)) error {
	if err := t.checkIdle(n); err != nil {
		return err
	}
	d := t.newDriver("linear-allgather", n, (t.Size()-1)*n, cb)
	size := t.Size()
	for _, p := range t.peers {
		st := &linearAGState{p: p, d: d, n: n, recvMR: p.buf(n * size)}
		if t.cfg.VerifyData {
			fillPattern(st.recvMR.Data[p.id*n:(p.id+1)*n], p.id, t.seq)
		}
		p.op = st
		if size == 1 {
			st.fin = true
			p.eng.AfterHandler(0, d, 0, 0, p)
			continue
		}
		st.postAll()
	}
	t.assertSymmetricKeys()
	return nil
}

func (st *linearAGState) postAll() {
	t := st.p.team
	size := t.Size()
	post := st.p.eng.Now()
	for q := 1; q < size; q++ {
		dst := (st.p.id + q) % size
		qp := t.qpTo(st.p.id, dst)
		post = st.p.thread.Run(dpa.SendPost, post)
		st.p.eng.AtHandler(post, st, uint64(st.p.id), 0, qp)
		st.pending++
	}
}

// OnEvent posts the rank's block to one destination: obj is the QP.
func (st *linearAGState) OnEvent(_ *sim.Engine, _ sim.Handle, arg0 uint64, _ int, obj any) {
	t := st.p.team
	block := int(arg0)
	obj.(*verbs.QP).PostWriteRC(arg0, st.recvMR, block*st.n, st.n,
		st.recvMR.Key, block*st.n, t.encImm(block), true)
}

func (st *linearAGState) handle(e verbs.CQE) {
	t := st.p.team
	switch e.Op {
	case verbs.OpRecvWriteImm:
		if _, ok := t.checkSeq(e.Imm); !ok {
			return
		}
		st.recved++
	case verbs.OpSend:
		st.sent++
	case verbs.OpErr:
		panic("coll: linear allgather transport error")
	default:
		return
	}
	if st.recved == t.Size()-1 && st.sent == st.pending && !st.fin {
		st.fin = true
		st.d.rankDone(st.p)
	}
}

func (st *linearAGState) done() bool { return st.fin }

// --- recursive doubling allgather ----------------------------------------------

// rdAGState implements recursive doubling: log2(P) rounds, exchanging
// doubling block ranges with partner id XOR 2^k. Requires a power-of-two
// team size.
type rdAGState struct {
	p      *peer
	d      *opDriver
	n      int
	recvMR *verbs.MR
	round  int
	rounds int
	got    bool
	sent   bool
	fin    bool
}

// StartRecursiveDoublingAllgather begins a non-blocking recursive-doubling
// Allgather; the team size must be a power of two.
func (t *Team) StartRecursiveDoublingAllgather(n int, cb func(*Result)) error {
	size := t.Size()
	if size&(size-1) != 0 {
		return fmt.Errorf("coll: recursive doubling needs power-of-two ranks, have %d", size)
	}
	if err := t.checkIdle(n); err != nil {
		return err
	}
	d := t.newDriver("rd-allgather", n, (size-1)*n, cb)
	rounds := 0
	for 1<<rounds < size {
		rounds++
	}
	for _, p := range t.peers {
		st := &rdAGState{p: p, d: d, n: n, rounds: rounds, recvMR: p.buf(n * size)}
		if t.cfg.VerifyData {
			fillPattern(st.recvMR.Data[p.id*n:(p.id+1)*n], p.id, t.seq)
		}
		p.op = st
		if size == 1 {
			st.fin = true
			p.eng.AfterHandler(0, d, 0, 0, p)
			continue
		}
		st.exchange()
	}
	t.assertSymmetricKeys()
	return nil
}

// exchange sends the contiguous block range this rank currently owns to its
// round partner.
func (st *rdAGState) exchange() {
	t := st.p.team
	dist := 1 << st.round
	partner := st.p.id ^ dist
	qp := t.qpTo(st.p.id, partner)
	post := st.p.thread.Run(dpa.SendPost, st.p.eng.Now())
	st.p.eng.AtHandler(post, st, uint64(st.round), 0, qp)
}

// OnEvent posts the scheduled round exchange: arg0 is the round, obj the
// QP. The round only advances once this post's own send completes, so the
// offsets derived here match what scheduling time would have computed.
func (st *rdAGState) OnEvent(_ *sim.Engine, _ sim.Handle, arg0 uint64, _ int, obj any) {
	t := st.p.team
	round := int(arg0)
	dist := 1 << round
	// The owned range after k rounds starts at (id &^ (2^k - 1)) blocks.
	off := (st.p.id &^ (dist - 1)) * st.n
	obj.(*verbs.QP).PostWriteRC(arg0, st.recvMR, off, dist*st.n,
		st.recvMR.Key, off, t.encImm(round), true)
}

func (st *rdAGState) handle(e verbs.CQE) {
	t := st.p.team
	switch e.Op {
	case verbs.OpRecvWriteImm:
		if tag, ok := t.checkSeq(e.Imm); !ok || tag != st.round {
			return
		}
		st.got = true
	case verbs.OpSend:
		st.sent = true
	case verbs.OpErr:
		panic("coll: recursive doubling transport error")
	default:
		return
	}
	if st.got && st.sent {
		st.got, st.sent = false, false
		st.round++
		if st.round == st.rounds {
			st.fin = true
			st.d.rankDone(st.p)
			return
		}
		st.exchange()
	}
}

func (st *rdAGState) done() bool { return st.fin }

// checkIdle validates team state before starting an operation.
func (t *Team) checkIdle(n int) error {
	if n <= 0 {
		return fmt.Errorf("coll: non-positive size %d", n)
	}
	for _, p := range t.peers {
		if p.op != nil && !p.op.done() {
			return fmt.Errorf("coll: rank %d busy (%T)", p.id, p.op)
		}
	}
	return nil
}

// assertSymmetricKeys verifies the registration-order invariant all remote
// writes rely on.
func (t *Team) assertSymmetricKeys() {
	base := -1
	for _, p := range t.peers {
		var key int
		switch st := p.op.(type) {
		case *ringAGState:
			key = int(st.recvMR.Key)
		case *linearAGState:
			key = int(st.recvMR.Key)
		case *rdAGState:
			key = int(st.recvMR.Key)
		case *bruckAGState:
			key = int(st.workMR.Key)
		default:
			return
		}
		if base < 0 {
			base = key
		} else if key != base {
			panic(fmt.Sprintf("coll: asymmetric rkeys (%d vs %d); host-sharing order diverged", base, key))
		}
	}
}

// --- Bruck allgather ------------------------------------------------------------

// bruckAGState implements the Bruck algorithm: ceil(log2 P) rounds for any
// P. In round k, rank r sends its first min(2^k, P-2^k) gathered blocks to
// rank (r - 2^k mod P) and receives as many from (r + 2^k mod P). Blocks
// accumulate in rotated order (rank's own block first) and are logically
// un-rotated at the end (the un-rotation copy is charged to the DMA engine).
type bruckAGState struct {
	p      *peer
	d      *opDriver
	n      int
	workMR *verbs.MR
	have   int // gathered blocks, in rotated order
	round  int
	// Bruck is not pairwise-symmetric: the rank we send to differs from
	// the one we receive from, so neighbors can run a round ahead. Early
	// arrivals are buffered per round rather than dropped.
	gotR  map[int]bool
	sentR map[int]bool
	fin   bool
}

// StartBruckAllgather begins a non-blocking Bruck Allgather: log-step like
// recursive doubling but valid for any team size.
func (t *Team) StartBruckAllgather(n int, cb func(*Result)) error {
	if err := t.checkIdle(n); err != nil {
		return err
	}
	d := t.newDriver("bruck-allgather", n, (t.Size()-1)*n, cb)
	size := t.Size()
	for _, p := range t.peers {
		st := &bruckAGState{
			p: p, d: d, n: n, have: 1, workMR: p.buf(n * size),
			gotR: make(map[int]bool), sentR: make(map[int]bool),
		}
		if t.cfg.VerifyData {
			// Rotated layout: own block sits at offset 0.
			fillPattern(st.workMR.Data[:n], p.id, t.seq)
		}
		p.op = st
		if size == 1 {
			st.fin = true
			p.eng.AfterHandler(0, d, 0, 0, p)
			continue
		}
		st.exchange()
	}
	t.assertSymmetricKeys()
	return nil
}

func (st *bruckAGState) exchange() {
	t := st.p.team
	size := t.Size()
	dist := 1 << st.round
	dst := (st.p.id - dist + size) % size
	qp := t.qpTo(st.p.id, dst)
	post := st.p.thread.Run(dpa.SendPost, st.p.eng.Now())
	st.p.eng.AtHandler(post, st, uint64(st.round), 0, qp)
}

// OnEvent posts the scheduled Bruck round: arg0 is the round, obj the QP.
// st.have cannot advance between scheduling and firing (advancing round k
// requires the send completion this very post produces), so the counts and
// offsets derived here equal the scheduling-time values.
func (st *bruckAGState) OnEvent(_ *sim.Engine, _ sim.Handle, arg0 uint64, _ int, obj any) {
	t := st.p.team
	round := int(arg0)
	blocks := 1 << round
	if rest := t.Size() - st.have; blocks > rest {
		blocks = rest
	}
	// Sent blocks land appended after the receiver's current blocks: the
	// receiver has the same count we do (lockstep rounds).
	obj.(*verbs.QP).PostWriteRC(arg0, st.workMR, 0, blocks*st.n,
		st.workMR.Key, st.have*st.n, t.encImm(round), true)
}

func (st *bruckAGState) handle(e verbs.CQE) {
	t := st.p.team
	switch e.Op {
	case verbs.OpRecvWriteImm:
		tag, ok := t.checkSeq(e.Imm)
		if !ok {
			return
		}
		st.gotR[tag] = true
	case verbs.OpSend:
		st.sentR[int(e.WrID)] = true
	case verbs.OpErr:
		panic("coll: bruck allgather transport error")
	default:
		return
	}
	st.advance()
}

func (st *bruckAGState) advance() {
	t := st.p.team
	for !st.fin && st.gotR[st.round] && st.sentR[st.round] {
		size := t.Size()
		dist := 1 << st.round
		gained := dist
		if rest := size - st.have; gained > rest {
			gained = rest
		}
		st.have += gained
		st.round++
		if st.have != size {
			st.exchange()
			continue
		}
		// Un-rotate into canonical order: a local memmove of the whole
		// buffer, charged to the DMA engine before completion.
		st.fin = true
		if t.cfg.VerifyData {
			rotated := append([]byte(nil), st.workMR.Data[:size*st.n]...)
			for b := 0; b < size; b++ {
				src := ((b-st.p.id)%size + size) % size
				copy(st.workMR.Data[b*st.n:(b+1)*st.n], rotated[src*st.n:(src+1)*st.n])
			}
		}
		st.p.node.Ctx.DMA().Enqueue(size*st.n, func() { st.d.rankDone(st.p) })
	}
}

func (st *bruckAGState) done() bool { return st.fin }
