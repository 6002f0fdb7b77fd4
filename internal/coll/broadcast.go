package coll

import "fmt"

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

// chainChildren returns the next rank of a chain rooted at root, if any.
func chainChildren(id, root, size int) []int {
	if (id-root+size)%size == size-1 {
		return nil
	}
	return []int{(id + 1) % size}
}

// tree sets up a rank of a tree broadcast with the given children: step k
// forwards chunk k to each of them.
func (op *stepOp) tree(children []int) {
	op.dst, op.fanout = children, len(children)
	op.mr = op.p.buf(op.d.n)
	if op.p.id == op.d.root {
		op.have = op.d.want
		if op.p.team.cfg.VerifyData {
			fillPattern(op.mr.Data, op.d.root, op.p.team.seq)
		}
	}
}

func toChild(op *stepOp, _, j int) int { return op.dst[j] }

// chunkBlock is chunk k of the broadcast, in place.
func chunkBlock(op *stepOp, k int) (off, length, roff, tag int) {
	off = k * op.d.chunk
	return off, min(op.d.chunk, op.d.n-off), off, k
}

// The tree broadcasts: every rank forwards each chunk, once it has it, to
// every child. With one chunk (k-nomial) this is store-and-forward; with
// small chunks it pipelines.
var (
	knomialBroadcast = &schedule{
		kind: "knomial-broadcast", rule: forwardTags, to: toChild, block: chunkBlock,
		init: func(op *stepOp) {
			t := op.p.team
			op.tree(knomialChildren(op.p.id, op.d.root, t.Size(), t.cfg.KnomialRadix))
		},
	}
	binaryBroadcast = &schedule{
		kind: "binary-broadcast", rule: forwardTags, to: toChild, block: chunkBlock,
		init: func(op *stepOp) { op.tree(binaryChildren(op.p.id, op.d.root, op.p.team.Size())) },
	}
	chainBroadcast = &schedule{
		kind: "chain-broadcast", rule: forwardTags, to: toChild, block: chunkBlock,
		init: func(op *stepOp) { op.tree(chainChildren(op.p.id, op.d.root, op.p.team.Size())) },
	}
)

// StartKnomialBroadcast begins a k-nomial tree broadcast: whole-message
// store-and-forward down a radix-k tree, the classic UCC/MPI algorithm
// whose depth is ceil(log_k P).
func (t *Team) StartKnomialBroadcast(root, n int, cb func(*Result)) error {
	return t.startTree(knomialBroadcast, root, n, n, cb)
}

// StartBinaryTreeBroadcast begins a chunk-pipelined complete-binary-tree
// broadcast (NCCL-style): every internal node forwards each chunk to its
// two children, so the steady-state bottleneck is 2N on the send path and
// the startup latency is one chunk per level.
func (t *Team) StartBinaryTreeBroadcast(root, n int, cb func(*Result)) error {
	return t.startTree(binaryBroadcast, root, n, t.cfg.ChunkBytes, cb)
}

// StartChainBroadcast begins a chunk-pipelined chain (each rank forwards to
// the next): send-path optimal among P2P schemes but with P-deep startup.
func (t *Team) StartChainBroadcast(root, n int, cb func(*Result)) error {
	return t.startTree(chainBroadcast, root, n, t.cfg.ChunkBytes, cb)
}

func (t *Team) startTree(s *schedule, root, n, chunk int, cb func(*Result)) error {
	if root < 0 || root >= t.Size() {
		return fmt.Errorf("coll: root %d out of range", root)
	}
	// At least one byte, so that a non-positive n reaches start's check.
	chunk = max(min(chunk, n), 1)
	chunks := (n + chunk - 1) / chunk
	return t.start(s, stepShape{n: n, chunk: chunk, root: root, steps: chunks, want: chunks, send: n, recv: n}, cb)
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
