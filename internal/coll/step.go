package coll

import (
	"fmt"

	"repro/internal/dpa"
	"repro/internal/sim"
	"repro/internal/verbs"
)

// rule is how a rank learns that it may post its next step.
type rule int

const (
	// countArrivals: step k waits for k arrivals and for the rank's own
	// writes of steps 0..k-1 to be acked. A count stands for "the writes
	// of steps 0..k-1 have landed" only where one cannot overtake another:
	// the ring's left neighbour posts step k only after its step k-1 write
	// was acked, and the linear scheme has a single step.
	countArrivals rule = iota
	// waitTags: as countArrivals, but step k waits for the writes tagged
	// 0..k-1 themselves. Recursive doubling and Bruck receive each round
	// from a different rank, so a later round's write may land first.
	waitTags
	// forwardTags: step k forwards chunk k once the writes tagged 0..k
	// have landed, without waiting for acks (the pipelined tree
	// broadcasts; the root holds every chunk from the start). A later
	// chunk may overtake an earlier one on the wire.
	forwardTags
)

// A schedule is one RC-write baseline as the step driver sees it: for
// step k, the ranks a rank writes to and the block it writes, plus the
// progress rule. The driver (stepOp) does the rest.
type schedule struct {
	kind string
	rule rule
	// init picks one rank's buffer, writes the verification pattern it
	// starts with, and sets the writes per step (fanout, default 1), a
	// tree's children (dst) and the arrivals a root starts with (have).
	init func(op *stepOp)
	// to returns the rank that write j of step k goes to.
	to func(op *stepOp, k, j int) int
	// block returns step k's write: local offset, length, remote offset
	// and the tag carried in the immediate.
	block func(op *stepOp, k int) (off, length, roff, tag int)
	// reduce runs each arrival's reduction on the progress thread before
	// the arrival counts (ring Reduce-Scatter).
	reduce bool
	// finish, when set, completes the rank instead of rankDone (Bruck's
	// un-rotation).
	finish func(op *stepOp)
}

// stepShape is what one RC-write op looks like to every rank.
type stepShape struct {
	n           int // block bytes: an Allgather block, a shard, a broadcast message
	chunk, root int // a tree broadcast's chunk bytes and root
	steps, want int // steps each rank posts; writes each rank receives
	send, recv  int // the Result's per-rank byte counts
}

// stepOp is one rank's part of an RC-write baseline.
type stepOp struct {
	p      *peer
	d      *opDriver
	mr     *verbs.MR
	dst    []int // a tree's children
	fanout int   // writes per step
	step   int   // steps posted
	have   int   // arrivals counted, or the prefix of arrived tags
	sent   int   // writes acked
	fin    bool
}

// start runs s as one op on every rank. Every rank writes into the same
// registration of its peers, so their keys must agree.
func (t *Team) start(s *schedule, sh stepShape, cb func(*Result)) error {
	if err := t.checkIdle(sh.n); err != nil {
		return err
	}
	d := t.newDriver(s.kind, sh.send, sh.recv, cb)
	d.s, d.stepShape = s, sh
	var key uint32
	for i, p := range t.peers {
		op := &stepOp{p: p, d: d, fanout: 1}
		s.init(op)
		if i == 0 {
			key = op.mr.Key
		} else if op.mr.Key != key {
			panic(fmt.Sprintf("coll: asymmetric rkeys (%d vs %d); host-sharing order diverged", key, op.mr.Key))
		}
		if s.rule != countArrivals {
			p.tags.Reset(sh.want)
		}
		p.op = op
		op.post()
		if op.complete() {
			// Nothing to send or receive (a single rank): complete
			// asynchronously, like every other rank of every op.
			op.fin = true
			p.eng.AfterHandler(0, d, 0, 0, p)
		}
	}
	return nil
}

// ready reports whether the rule lets the rank post its next step.
func (op *stepOp) ready() bool {
	k := op.step
	if op.d.s.rule == forwardTags {
		return op.have > k
	}
	return op.have >= k && op.sent >= k*op.fanout
}

func (op *stepOp) complete() bool {
	return op.step == op.d.steps && op.have == op.d.want && op.sent == op.d.steps*op.fanout
}

// post posts every step the rule allows, each write after the previous
// one's posting cost on the progress thread. The QP is resolved at
// scheduling time, which fixes the order of lazy QP creation.
func (op *stepOp) post() {
	p := op.p
	at := p.eng.Now()
	for op.step < op.d.steps && op.ready() {
		for j := 0; j < op.fanout; j++ {
			qp := p.team.qpTo(p.id, op.d.s.to(op, op.step, j))
			at = p.thread.Run(dpa.SendPost, at)
			p.eng.AtHandler(at, op, uint64(op.step), 0, qp)
		}
		op.step++
	}
}

// OnEvent is the op's timer: with a QP it posts a write of step arg0;
// without one, a reduction has finished on the progress thread.
func (op *stepOp) OnEvent(_ *sim.Engine, _ sim.Handle, arg0 uint64, _ int, obj any) {
	qp, ok := obj.(*verbs.QP)
	if !ok {
		op.have++
		op.advance()
		return
	}
	off, length, roff, tag := op.d.s.block(op, int(arg0))
	qp.PostWriteRC(arg0, op.mr, off, length, op.mr.Key, roff, op.p.team.encImm(tag), true)
}

func (op *stepOp) handle(e verbs.CQE) {
	p := op.p
	switch e.Op {
	case verbs.OpRecvWriteImm:
		tag, ok := p.team.checkSeq(e.Imm)
		if !ok {
			return
		}
		switch {
		case op.d.s.reduce:
			// Accumulate the partial shard: a memory-bound vector add on
			// the progress thread. Back-to-back arrivals serialize on the
			// thread and count in OnEvent as each finishes.
			cycles := float64(op.d.n) * p.node.CPU.Freq / reduceBandwidth
			p.eng.AtHandler(p.thread.RunCycles(cycles, cycles, p.eng.Now()), op, 0, 0, nil)
			return
		case op.d.s.rule == countArrivals:
			op.have++
		default:
			p.tags.Set(tag)
			for op.have < op.d.want && p.tags.Get(op.have) {
				op.have++
			}
		}
	case verbs.OpSend:
		op.sent++
	case verbs.OpErr:
		panic("coll: " + op.d.s.kind + " transport error")
	default:
		return
	}
	op.advance()
}

// advance posts what the last completion allowed and completes the rank
// once every step is posted and acked and every arrival is in.
func (op *stepOp) advance() {
	if op.fin {
		return
	}
	op.post()
	if !op.complete() {
		return
	}
	op.fin = true
	if op.d.s.finish != nil {
		op.d.s.finish(op)
		return
	}
	op.d.rankDone(op.p)
}

func (op *stepOp) kind() string { return op.d.s.kind }
