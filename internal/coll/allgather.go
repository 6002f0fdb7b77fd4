package coll

import (
	"fmt"
	"math/bits"
)

// gather gives a rank the P-block Allgather buffer, with its own block's
// verification pattern at block slot.
func (op *stepOp) gather(slot int) {
	n, t := op.d.n, op.p.team
	op.mr = op.p.buf(n * t.Size())
	if t.cfg.VerifyData {
		fillPattern(op.mr.Data[slot*n:(slot+1)*n], op.p.id, t.seq)
	}
}

func gatherOwn(op *stepOp) { op.gather(op.p.id) }

func toRight(op *stepOp, _, _ int) int { return (op.p.id + 1) % op.p.team.Size() }

// ringBlock is step k of a ring: block (id-k) mod P, in place.
func ringBlock(op *stepOp, k int) (off, length, roff, tag int) {
	size := op.p.team.Size()
	b := (op.p.id - k + size) % size
	return b * op.d.n, op.d.n, b * op.d.n, b
}

// ringAllgather: P-1 steps; at step k the rank writes block (id-k) mod P
// to its right neighbour and waits for block (id-k-1) mod P from its left.
// This is the NCCL/UCC large-message algorithm the paper uses as its
// Allgather baseline.
var ringAllgather = &schedule{kind: "ring-allgather", init: gatherOwn, to: toRight, block: ringBlock}

// linearAllgather writes the rank's block directly to every other rank in
// one step: the Ω(N·(P-1)) send-path scheme of Insight 1.
var linearAllgather = &schedule{
	kind: "linear-allgather",
	init: func(op *stepOp) {
		op.gather(op.p.id)
		op.fanout = op.p.team.Size() - 1
	},
	to: func(op *stepOp, _, j int) int { return (op.p.id + 1 + j) % op.p.team.Size() },
	block: func(op *stepOp, _ int) (off, length, roff, tag int) {
		return op.p.id * op.d.n, op.d.n, op.p.id * op.d.n, op.p.id
	},
}

// rdAllgather is recursive doubling: log2(P) rounds; in round k the rank
// writes the 2^k blocks it holds, which start at block id &^ (2^k - 1), to
// partner id XOR 2^k.
var rdAllgather = &schedule{
	kind: "rd-allgather", rule: waitTags, init: gatherOwn,
	to: func(op *stepOp, k, _ int) int { return op.p.id ^ 1<<k },
	block: func(op *stepOp, k int) (off, length, roff, tag int) {
		dist := 1 << k
		off = (op.p.id &^ (dist - 1)) * op.d.n
		return off, dist * op.d.n, off, k
	},
}

// bruckAllgather: ceil(log2 P) rounds for any P. Before round k the rank
// holds min(2^k, P) blocks in rotated order (its own first); it writes the
// first min(2^k, P-held) of them to rank id-2^k mod P, appended after that
// rank's held blocks, and receives as many from id+2^k mod P. The blocks
// are un-rotated at the end, a copy charged to the DMA engine.
var bruckAllgather = &schedule{
	kind: "bruck-allgather", rule: waitTags,
	init: func(op *stepOp) { op.gather(0) },
	to: func(op *stepOp, k, _ int) int {
		size := op.p.team.Size()
		return (op.p.id - 1<<k + size) % size
	},
	block: func(op *stepOp, k int) (off, length, roff, tag int) {
		held := min(1<<k, op.p.team.Size())
		return 0, min(1<<k, op.p.team.Size()-held) * op.d.n, held * op.d.n, k
	},
	finish: func(op *stepOp) {
		size, n, id := op.p.team.Size(), op.d.n, op.p.id
		if op.p.team.cfg.VerifyData {
			rotated := append([]byte(nil), op.mr.Data[:size*n]...)
			for b := 0; b < size; b++ {
				src := ((b-id)%size + size) % size
				copy(op.mr.Data[b*n:(b+1)*n], rotated[src*n:(src+1)*n])
			}
		}
		op.p.node.Ctx.DMA().Enqueue(size*n, func() { op.d.rankDone(op.p) })
	},
}

// gatherShape is an Allgather of n bytes per rank in steps steps.
func (t *Team) gatherShape(n, steps int) stepShape {
	return stepShape{n: n, steps: steps, want: steps, send: n, recv: (t.Size() - 1) * n}
}

// StartRingAllgather begins a non-blocking ring Allgather of n bytes per
// rank; cb fires when every rank completes.
func (t *Team) StartRingAllgather(n int, cb func(*Result)) error {
	return t.start(ringAllgather, t.gatherShape(n, t.Size()-1), cb)
}

// StartLinearAllgather begins a non-blocking linear (direct) Allgather.
func (t *Team) StartLinearAllgather(n int, cb func(*Result)) error {
	sh := t.gatherShape(n, 1)
	sh.want = t.Size() - 1
	return t.start(linearAllgather, sh, cb)
}

// StartRecursiveDoublingAllgather begins a non-blocking recursive-doubling
// Allgather; the team size must be a power of two.
func (t *Team) StartRecursiveDoublingAllgather(n int, cb func(*Result)) error {
	size := t.Size()
	if size&(size-1) != 0 {
		return fmt.Errorf("coll: recursive doubling needs power-of-two ranks, have %d", size)
	}
	return t.start(rdAllgather, t.gatherShape(n, bits.Len(uint(size-1))), cb)
}

// StartBruckAllgather begins a non-blocking Bruck Allgather: log-step like
// recursive doubling but valid for any team size.
func (t *Team) StartBruckAllgather(n int, cb func(*Result)) error {
	return t.start(bruckAllgather, t.gatherShape(n, bits.Len(uint(t.Size()-1))), cb)
}

// VerifyAllgather checks every rank's receive buffer for the most recent
// allgather (VerifyData mode only).
func (t *Team) VerifyAllgather(n int) error {
	if !t.cfg.VerifyData {
		return fmt.Errorf("coll: VerifyAllgather requires Config.VerifyData")
	}
	size := t.Size()
	for _, p := range t.peers {
		mr := p.mrCache[n*size]
		if mr == nil {
			return fmt.Errorf("coll: rank %d has no allgather buffer", p.id)
		}
		for src := 0; src < size; src++ {
			if err := checkPattern(mr.Data[src*n:(src+1)*n], src, t.seq); err != nil {
				return fmt.Errorf("rank %d shard %d: %w", p.id, src, err)
			}
		}
	}
	return nil
}
