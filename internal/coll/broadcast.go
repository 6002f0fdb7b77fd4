package coll

import (
	"fmt"

	"repro/internal/dpa"
	"repro/internal/sim"
	"repro/internal/verbs"
)

// treeBcastState drives a rank through a tree broadcast: receive chunks
// from the parent (the root already has them), forward each chunk to every
// child. With ChunkBytes >= n this degenerates to store-and-forward; with
// small chunks it pipelines.
type treeBcastState struct {
	p        *peer
	d        *opDriver
	n        int
	chunk    int
	chunks   int
	children []int
	buf      *verbs.MR
	have     int // chunks present locally
	sent     int // chunk forwards completed (send CQEs)
	fwd      int // chunk forwards posted
	isRoot   bool
	fin      bool
}

// knomialChildren returns the children of rank id in a k-nomial tree
// rooted at root (classic binomial generalization: virtual rank v's
// children are v + d·k^i for the digit positions below v's lowest nonzero
// digit).
func knomialChildren(id, root, size, radix int) []int {
	v := (id - root + size) % size
	// A node may have children at digit positions strictly below its lowest
	// nonzero base-k digit; the root (v = 0) at every position.
	limit := size
	if v != 0 {
		limit = 1
		for (v/limit)%radix == 0 {
			limit *= radix
		}
	}
	var children []int
	for pow := 1; pow < limit && pow < size; pow *= radix {
		for d := 1; d < radix; d++ {
			c := v + d*pow
			if c >= size {
				break
			}
			children = append(children, (c+root)%size)
		}
	}
	return children
}

// knomialParent returns the parent of id in the k-nomial tree (or -1 for
// the root).
func knomialParent(id, root, size, radix int) int {
	v := (id - root + size) % size
	if v == 0 {
		return -1
	}
	pow := 1
	for v%(pow*radix) == 0 {
		pow *= radix
	}
	digit := (v / pow) % radix
	parent := v - digit*pow
	return (parent + root) % size
}

// binaryChildren returns the children of id in a complete binary tree
// (heap layout) rooted at root.
func binaryChildren(id, root, size int) []int {
	v := (id - root + size) % size
	var children []int
	for _, c := range []int{2*v + 1, 2*v + 2} {
		if c < size {
			children = append(children, (c+root)%size)
		}
	}
	return children
}

// StartKnomialBroadcast begins a k-nomial tree broadcast: whole-message
// store-and-forward down a radix-k tree, the classic UCC/MPI algorithm
// whose depth is ceil(log_k P).
func (t *Team) StartKnomialBroadcast(root, n int, cb func(*Result)) error {
	return t.startTreeBcast("knomial-broadcast", root, n, n, cb, func(id int) []int {
		return knomialChildren(id, root, t.Size(), t.cfg.KnomialRadix)
	})
}

// StartBinaryTreeBroadcast begins a chunk-pipelined complete-binary-tree
// broadcast (NCCL-style): every internal node forwards each chunk to its
// two children, so the steady-state bottleneck is 2N on the send path and
// the startup latency is one chunk per level.
func (t *Team) StartBinaryTreeBroadcast(root, n int, cb func(*Result)) error {
	return t.startTreeBcast("binary-broadcast", root, n, t.cfg.ChunkBytes, cb, func(id int) []int {
		return binaryChildren(id, root, t.Size())
	})
}

// StartChainBroadcast begins a chunk-pipelined chain (each rank forwards to
// the next): send-path optimal among P2P schemes but with P-deep startup.
func (t *Team) StartChainBroadcast(root, n int, cb func(*Result)) error {
	size := t.Size()
	return t.startTreeBcast("chain-broadcast", root, n, t.cfg.ChunkBytes, cb, func(id int) []int {
		v := (id - root + size) % size
		if v == size-1 {
			return nil
		}
		return []int{(id + 1) % size}
	})
}

func (t *Team) startTreeBcast(kind string, root, n, chunk int, cb func(*Result), childrenOf func(int) []int) error {
	if root < 0 || root >= t.Size() {
		return fmt.Errorf("coll: root %d out of range", root)
	}
	if err := t.checkIdle(n); err != nil {
		return err
	}
	if chunk > n {
		chunk = n
	}
	d := t.newDriver(kind, n, n, cb)
	chunks := (n + chunk - 1) / chunk
	for _, p := range t.peers {
		st := &treeBcastState{
			p: p, d: d, n: n, chunk: chunk, chunks: chunks,
			children: childrenOf(p.id),
			buf:      p.buf(n),
			isRoot:   p.id == root,
		}
		p.op = st
		if st.isRoot {
			st.have = chunks
			if t.cfg.VerifyData {
				fillPattern(st.buf.Data, root, t.seq)
			}
			// Root pushes every chunk to every child, interleaved so the
			// children's pipelines fill evenly.
			st.forwardReady()
			if len(st.children) == 0 {
				st.fin = true
				p.eng.AfterHandler(0, d, 0, 0, p)
			}
		}
	}
	t.assertBcastKeys()
	return nil
}

// forwardReady posts forwards for every chunk that is present locally and
// not yet forwarded (fwd counts chunk·child pairs).
func (st *treeBcastState) forwardReady() {
	if len(st.children) == 0 {
		return
	}
	t := st.p.team
	post := st.p.eng.Now()
	for c := st.fwd / len(st.children); c < st.have; c++ {
		off := c * st.chunk
		length := st.n - off
		if length > st.chunk {
			length = st.chunk
		}
		for _, child := range st.children {
			qp := t.qpTo(st.p.id, child)
			post = st.p.thread.Run(dpa.SendPost, post)
			st.p.eng.AtHandler(post, st, uint64(c), length, qp)
			st.fwd++
		}
	}
}

// OnEvent posts one scheduled chunk forward: arg0 is the chunk index, arg1
// its length, obj the child's QP.
func (st *treeBcastState) OnEvent(_ *sim.Engine, _ sim.Handle, arg0 uint64, arg1 int, obj any) {
	t := st.p.team
	off := int(arg0) * st.chunk
	obj.(*verbs.QP).PostWriteRC(arg0, st.buf, off, arg1, st.buf.Key, off, t.encImm(int(arg0)), true)
}

func (st *treeBcastState) handle(e verbs.CQE) {
	t := st.p.team
	switch e.Op {
	case verbs.OpRecvWriteImm:
		if _, ok := t.checkSeq(e.Imm); !ok {
			return
		}
		// In-order arrival from the single parent: chunk st.have landed.
		st.have++
		st.forwardReady()
	case verbs.OpSend:
		st.sent++
	case verbs.OpErr:
		panic("coll: tree broadcast transport error")
	default:
		return
	}
	if st.fin {
		return
	}
	recvDone := st.isRoot || st.have == st.chunks
	sendDone := st.sent == st.chunks*len(st.children)
	if recvDone && sendDone {
		st.fin = true
		st.d.rankDone(st.p)
	}
}

func (st *treeBcastState) done() bool { return st.fin }

func (t *Team) assertBcastKeys() {
	base := -1
	for _, p := range t.peers {
		st, ok := p.op.(*treeBcastState)
		if !ok {
			return
		}
		if base < 0 {
			base = int(st.buf.Key)
		} else if int(st.buf.Key) != base {
			panic("coll: asymmetric broadcast buffer rkeys")
		}
	}
}

// VerifyBroadcast checks every rank's buffer against the root's pattern
// for the most recent tree broadcast (VerifyData mode only).
func (t *Team) VerifyBroadcast(root, n int) error {
	if !t.cfg.VerifyData {
		return fmt.Errorf("coll: VerifyBroadcast requires Config.VerifyData")
	}
	for _, p := range t.peers {
		mr := p.mrCache[n]
		if mr == nil {
			return fmt.Errorf("coll: rank %d has no broadcast buffer", p.id)
		}
		if err := checkPattern(mr.Data[:n], root, t.seq); err != nil {
			return fmt.Errorf("rank %d: %w", p.id, err)
		}
	}
	return nil
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
