package core

import (
	"fmt"

	"repro/internal/collective"
	"repro/internal/dpa"
)

// RankStats is the per-rank outcome of one collective, including the
// critical-path breakdown reported in Figure 10. It is the shared
// collective.RankStats extension.
type RankStats = collective.RankStats

// Result is the outcome of one collective across all ranks: the unified
// collective.Result, with the PerRank critical-path extension filled in.
type Result = collective.Result

// completion tracks the all-rank countdown of one in-flight operation. It
// hangs off the Communicator rather than living in closure-captured locals
// so a model-state capture (internal/snap) reaches it: a restore that
// rewinds an in-flight operation must rewind the countdown too, or the
// re-run ranks would decrement an exhausted counter and done would never
// re-fire. End is the clock at the last rank's completion.
type completion struct {
	remaining int
	res       *Result
	done      func(*Result)
}

// rankDone retires one rank from the current operation's countdown.
func (c *Communicator) rankDone(rk *Rank) {
	cp := c.compl
	cp.res.PerRank[rk.id] = rk.op.stats()
	rk.TotalRNRDrops = rk.ctx.RNRDrops
	cp.remaining--
	if cp.remaining == 0 {
		cp.res.End = rk.eng.Now()
		if cp.done != nil {
			cp.done(cp.res)
		}
	}
}

// startOp resets every rank's op state for a new operation and dispatches
// it onto the app threads. done runs once every rank has completed.
func (c *Communicator) startOp(kind opKind, root, n int, done func(*Result)) error {
	if n <= 0 {
		return fmt.Errorf("core: non-positive send size %d", n)
	}
	for _, r := range c.ranks {
		if r.op != nil && !r.op.done {
			return fmt.Errorf("core: rank %d still has an operation in flight", r.id)
		}
	}
	seq := c.nextSeq()
	p := c.Size()
	chunk := c.cfg.ChunkBytes
	cpr := (n + chunk - 1) / chunk
	total := cpr
	roots := 1
	switch kind {
	case kindAllgather:
		total = cpr * p
		roots = p
	}
	if total >= maxPSNChunks {
		return fmt.Errorf("core: %d chunks exceed the 24-bit PSN space", total)
	}

	res := &Result{
		Kind:      kind.String(),
		Seq:       seq,
		Ranks:     p,
		SendBytes: n,
		Start:     c.eng.Now(),
		PerRank:   make([]RankStats, p),
	}
	c.compl = &completion{remaining: p, res: res, done: done}
	for _, r := range c.ranks {
		op := r.op
		if op == nil {
			op = newOpState(r)
			r.op = op
		}
		// The previous operation is done on every rank, so nothing still
		// scheduled refers to its state: keep only the storage.
		*op = opState{
			r:       r,
			seq:     seq,
			kind:    kind,
			root:    root,
			n:       n,
			chunk:   chunk,
			cpr:     cpr,
			total:   total,
			roots:   roots,
			isRoot:  kind == kindAllgather || (kind == kindBroadcast && r.id == root),
			bm:      op.bm,
			dmaDone: op.dmaDone,
			barGot:  op.barGot[:0],
		}
		op.bm.Reset(total)
		recvBytes := n
		if kind == kindAllgather {
			recvBytes = n * p
		}
		op.recvMR = r.cachedMR(recvBytes)
		if op.isRoot {
			op.sendMR = r.cachedMR(n)
			if c.cfg.VerifyData {
				collective.FillPattern(op.sendMR.Data, r.id, seq)
			}
		}
		// Dispatch on the app thread (task-queue handoff cost, §IV-B).
		t := r.appThread.Run(dpa.TaskDispatch, c.eng.Now())
		r.eng.AtHandler(t, r, 0, 0, nil)
	}
	// Both the UC fast path and the recovery fetch ring rely on symmetric
	// rkeys for the receive buffers (registration order is identical on
	// every rank, as the registration cache of a real deployment would
	// guarantee via an out-of-band exchange).
	key := c.ranks[0].op.recvMR.Key
	for _, r := range c.ranks[1:] {
		if r.op.recvMR.Key != key {
			return fmt.Errorf("core: receive-buffer rkeys diverged (%d vs %d)", key, r.op.recvMR.Key)
		}
	}
	return nil
}

// stats snapshots the per-rank result of the finished operation.
func (op *opState) stats() RankStats {
	recvBytes := 0
	switch {
	case op.kind == kindAllgather:
		recvBytes = (op.roots - 1) * op.n
	case op.kind == kindBroadcast && op.r.id != op.root:
		recvBytes = op.n
	}
	s := RankStats{
		Rank:          op.r.id,
		BarrierTime:   op.tBarrier - op.tStart,
		Total:         op.tDone - op.tStart,
		Recovered:     op.recovered,
		RNRDrops:      op.r.ctx.RNRDrops - op.r.TotalRNRDrops,
		BytesReceived: recvBytes,
	}
	rxEnd := op.tRxDone
	if op.r.id == op.root && op.kind == kindBroadcast {
		rxEnd = op.tTxDone // the root's datapath phase is its send path
	}
	if rxEnd > op.tBarrier {
		s.McastTime = rxEnd - op.tBarrier
	}
	if op.tDone > rxEnd {
		s.FinalTime = op.tDone - rxEnd
	}
	for _, qp := range op.r.ctrl {
		s.Retransmits += qp.Retransmits
	}
	return s
}

// StartAllgather begins a non-blocking Allgather of n bytes per rank.
func (c *Communicator) StartAllgather(n int, done func(*Result)) error {
	return c.startOp(kindAllgather, -1, n, done)
}

// StartBroadcast begins a non-blocking Broadcast of n bytes from root.
func (c *Communicator) StartBroadcast(root, n int, done func(*Result)) error {
	if root < 0 || root >= c.Size() {
		return fmt.Errorf("core: root %d out of range", root)
	}
	return c.startOp(kindBroadcast, root, n, done)
}

// VerifyLast checks (in VerifyData mode) that every rank's receive buffer
// holds exactly the concatenation of all send buffers (allgather) or the
// root's buffer (broadcast) for the most recent operation.
func (c *Communicator) VerifyLast() error {
	if !c.cfg.VerifyData {
		return fmt.Errorf("core: VerifyLast requires Config.VerifyData")
	}
	for _, r := range c.ranks {
		op := r.op
		if op == nil || !op.done {
			return fmt.Errorf("core: rank %d has no completed operation", r.id)
		}
		switch op.kind {
		case kindAllgather:
			for src := 0; src < c.Size(); src++ {
				if err := collective.CheckPattern(op.recvMR.Data[src*op.n:(src+1)*op.n], src, op.seq); err != nil {
					return fmt.Errorf("core: rank %d, shard %d: %w", r.id, src, err)
				}
			}
		case kindBroadcast:
			if err := collective.CheckPattern(op.recvMR.Data[:op.n], op.root, op.seq); err != nil {
				return fmt.Errorf("core: rank %d: %w", r.id, err)
			}
		}
	}
	return nil
}
