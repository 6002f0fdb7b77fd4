package coll

import (
	"fmt"

	"repro/internal/dpa"
	"repro/internal/fabric"
	"repro/internal/sim"
	"repro/internal/verbs"
)

// ringReduceScatter is the classic ring Reduce-Scatter over a P·n working
// buffer: P-1 steps; at step k the rank writes shard (id-k) mod P
// (partially reduced) to its right neighbour and accumulates shard
// (id-k-1) mod P arriving from its left. The reduction is charged to the
// rank's progress thread at the memory-bound vector rate, and an arrival
// counts once it is reduced.
var ringReduceScatter = &schedule{
	kind: "ring-reduce-scatter", to: toRight, block: ringBlock, reduce: true,
	init: func(op *stepOp) { op.mr = op.p.buf(op.d.n * op.p.team.Size()) },
}

// StartRingReduceScatter begins a non-blocking ring Reduce-Scatter: each
// rank contributes P·n bytes and receives its n-byte reduced shard.
func (t *Team) StartRingReduceScatter(n int, cb func(*Result)) error {
	steps := t.Size() - 1
	return t.start(ringReduceScatter, stepShape{n: n, steps: steps, want: steps, send: steps * n, recv: steps * n}, cb)
}

// --- in-network-compute reduce-scatter -------------------------------------------

// incRSState is the SHARP-style Reduce-Scatter: every rank streams all P
// shards of its contribution up the fabric's reduction tree as datagrams;
// the tree root aggregates and emits one reduced result stream per shard
// to the shard's owner. The send path carries N(P-1) bytes per rank while
// the receive path carries only the rank's own shard — the complement of
// the multicast Allgather's profile (Insight 2).
type incRSState struct {
	p        *peer
	d        *opDriver
	n        int // shard bytes
	posted   int
	toPost   int
	received int
	expect   int
	fin      bool
	sendMR   *verbs.MR
	recvMR   *verbs.MR
	rg       fabric.ReduceGroupID
	// mtu and chunksPerShard are fixed per operation; cached here so the
	// per-chunk post events do not redo the divisions.
	mtu            int
	chunksPerShard int
	batchCont      func()
}

// StartINCReduceScatter begins a non-blocking in-network Reduce-Scatter.
// rg must be a fabric reduce group spanning exactly this team's hosts.
func (t *Team) StartINCReduceScatter(rg fabric.ReduceGroupID, n int, cb func(*Result)) error {
	if err := t.checkIdle(n); err != nil {
		return err
	}
	d := t.newDriver("inc-reduce-scatter", (t.Size()-1)*n, n, cb)
	size := t.Size()
	mtu := t.f.MaxPayload()
	chunksPerShard := (n + mtu - 1) / mtu
	for _, p := range t.peers {
		st := &incRSState{
			p: p, d: d, n: n,
			toPost:         chunksPerShard * size,
			expect:         chunksPerShard,
			mtu:            mtu,
			chunksPerShard: chunksPerShard,
			sendMR:         p.buf(n * size),
			recvMR:         p.buf(n),
		}
		p.op = st
		// The owner's shard results consume posted receives on the UD QP.
		for c := 0; c < chunksPerShard; c++ {
			off := c * mtu
			length := n - off
			if length > mtu {
				length = mtu
			}
			if !p.udQP.PostRecv(uint64(c), st.recvMR, off, length) {
				return fmt.Errorf("coll: INC receive queue exhausted")
			}
		}
		st.postContributions(rg)
	}
	return nil
}

// postContributions streams every chunk of every shard into the reduction
// tree, pacing the posting on the progress thread in batches so injection
// tracks the wire.
func (st *incRSState) postContributions(rg fabric.ReduceGroupID) {
	const batch = 64
	st.rg = rg
	postBatch := func() {
		post := st.p.eng.Now()
		for i := 0; i < batch && st.posted < st.toPost; i++ {
			idx := st.posted
			st.posted++
			signaled := i == batch-1 || st.posted == st.toPost
			post = st.p.thread.Run(dpa.SendPost, post)
			sig := 0
			if signaled {
				sig = 1
			}
			st.p.eng.AtHandler(post, st, uint64(idx), sig, nil)
		}
	}
	st.batchCont = postBatch
	postBatch()
}

// OnEvent posts one scheduled contribution chunk into the reduction tree:
// arg0 is the flat chunk index, arg1 the signaled flag.
func (st *incRSState) OnEvent(_ *sim.Engine, _ sim.Handle, arg0 uint64, arg1 int, _ any) {
	t := st.p.team
	idx := int(arg0)
	shard := idx / st.chunksPerShard
	c := idx % st.chunksPerShard
	off := shard*st.n + c*st.mtu
	length := st.n - c*st.mtu
	if length > st.mtu {
		length = st.mtu
	}
	owner := t.peers[shard]
	chunkID := uint64(shard)<<32 | uint64(c)
	st.p.udQP.PostSendReduce(0, verbs.Unicast(owner.node.Host, owner.udQP.N),
		st.rg, chunkID, st.sendMR, off, length, t.encImm(c), arg1 == 1)
}

func (st *incRSState) handle(e verbs.CQE) {
	t := st.p.team
	switch e.Op {
	case verbs.OpRecv: // reduced shard chunk arrived
		if _, ok := t.checkSeq(e.Imm); !ok {
			return
		}
		st.received++
	case verbs.OpSend:
		if st.posted < st.toPost {
			st.batchCont()
		}
	default:
		return
	}
	if !st.fin && st.received == st.expect && st.posted == st.toPost {
		st.fin = true
		st.d.rankDone(st.p)
	}
}

func (st *incRSState) kind() string { return st.d.res.Kind }
