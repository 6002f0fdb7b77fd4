// Package coll implements the point-to-point baseline collectives the paper
// compares against (§VI-B): ring, linear, recursive-doubling and Bruck
// Allgather, k-nomial and chunk-pipelined binary-tree and chain Broadcast
// (the bandwidth-optimized UCC/UCX P2P algorithms), ring Reduce-Scatter,
// and a SHARP-style in-network-compute Reduce-Scatter over the fabric's
// reduction trees (used by the Appendix B concurrent {Allgather,
// Reduce-Scatter} study).
//
// Every baseline but the in-network one is an RC-write baseline: blocks
// move as RDMA Writes with immediate over RC queue pairs (the zero-copy
// rendezvous path of production stacks), and progression is
// completion-driven with per-CQE costs charged to each rank's progress
// thread, so baselines and the multicast protocol pay comparable software
// overheads. They all run on one step driver (stepOp). An algorithm is a
// schedule: for step k, the ranks a rank writes to and the block it
// writes. The driver posts, counts completions, and decides by one of two
// progress rules when step k may be posted and when the rank is done:
//
//   - Counting. The ring Allgather, the ring Reduce-Scatter and the linear
//     Allgather count arrivals (the Reduce-Scatter once each shard's
//     reduction has run). For the ring the count is exact: the left
//     neighbour posts step k only after its step k-1 write was acked, so
//     step k's block never lands before step k-1's.
//   - Tags. Recursive doubling and Bruck wait at step k for the write
//     tagged k-1, and the tree broadcasts forward chunk k once the write
//     tagged k has landed. Their writes come from different partners per
//     round, or are chunks that may overtake one another, so a count would
//     mistake an early later write for the one awaited.
//
// The in-network Reduce-Scatter is a UD datagram stream with its own state.
package coll

import (
	"fmt"

	"repro/internal/bitmap"
	"repro/internal/cluster"
	"repro/internal/collective"
	"repro/internal/dpa"
	"repro/internal/fabric"
	"repro/internal/sim"
	"repro/internal/telemetry"
	"repro/internal/topology"
	"repro/internal/verbs"
)

// p2pProgress is the per-completion cost of the baseline progress engine
// (poll, match, bookkeeping) on the host CPU.
var p2pProgress = dpa.Profile{IssueCycles: 250, LatencyCycles: 250}

// reduceBandwidth is the sustained single-core vector-reduction rate used
// by the ring Reduce-Scatter (memory-bound AVX accumulate), bytes/second.
const reduceBandwidth = 20e9

// knomialRadix is the tree radix of the k-nomial broadcast (the UCC
// default).
const knomialRadix = 4

// Config tunes a baseline team.
type Config struct {
	// ChunkBytes is the pipelining granularity of chunked algorithms
	// (binary tree, chain). Zero defaults to 64 KiB.
	ChunkBytes int
	// VerifyData backs all buffers with real bytes.
	VerifyData bool
}

func (c Config) withDefaults() Config {
	if c.ChunkBytes == 0 {
		c.ChunkBytes = 64 * 1024
	}
	return c
}

// Team is a group of ranks executing P2P collectives.
type Team struct {
	cfg   Config
	f     *fabric.Fabric
	eng   *sim.Engine
	peers []*peer
	seq   int
	// reg is the cluster's telemetry registry: one span and one counter
	// increment per completed collective. Nil adds no cost.
	reg *telemetry.Registry
}

type peer struct {
	team *Team
	id   int
	node *cluster.Node
	// eng is the fabric's engine: every event the rank schedules for
	// itself (send steps, completion marks) goes here.
	eng    *sim.Engine
	cq     *verbs.CQ
	thread *dpa.Thread
	qps    map[int]*verbs.QP // peer rank -> RC QP
	// udQP receives in-network reduction results.
	udQP    *verbs.QP
	mrCache map[int]*verbs.MR
	// tags records the arrived step tags of a schedule that waits on
	// them; it is reset per op and keeps its storage.
	tags bitmap.Bitmap
	op   p2pOp // nil when the rank is idle
}

// p2pOp is one rank's part of an in-flight baseline collective.
type p2pOp interface {
	// handle processes one completion belonging to this op.
	handle(e verbs.CQE)
	// kind names the collective ("ring-allgather", ...).
	kind() string
}

// NewTeam builds a team over hosts using the shared cluster runtime.
func NewTeam(cl *cluster.Cluster, hosts []topology.NodeID, cfg Config) (*Team, error) {
	if len(hosts) == 0 {
		return nil, fmt.Errorf("coll: team needs at least one rank")
	}
	t := &Team{cfg: cfg.withDefaults(), f: cl.Fabric(), eng: cl.Fabric().Engine(), reg: cl.Metrics()}
	for i, h := range hosts {
		node := cl.Node(h)
		p := &peer{
			team:    t,
			id:      i,
			node:    node,
			eng:     node.Ctx.Engine(),
			cq:      &verbs.CQ{},
			thread:  node.CPU.AllocThreads(1)[0],
			qps:     make(map[int]*verbs.QP),
			mrCache: make(map[int]*verbs.MR),
		}
		p.udQP = node.Ctx.NewQP(verbs.UD, p.cq, p.cq, 0)
		dpa.NewWorker(p.eng, p.thread, p2pProgress).Serve(p.cq, func(e verbs.CQE) {
			if p.op != nil {
				p.op.handle(e)
			}
		})
		t.peers = append(t.peers, p)
	}
	return t, nil
}

// Size returns the number of ranks.
func (t *Team) Size() int { return len(t.peers) }

// Engine returns the driving engine.
func (t *Team) Engine() *sim.Engine { return t.eng }

// qpTo returns (creating lazily) the RC QP from rank a to rank b.
func (t *Team) qpTo(a, b int) *verbs.QP {
	pa, pb := t.peers[a], t.peers[b]
	if qp, ok := pa.qps[b]; ok {
		return qp
	}
	qa := pa.node.Ctx.NewQP(verbs.RC, pa.cq, pa.cq, 1024)
	qb := pb.node.Ctx.NewQP(verbs.RC, pb.cq, pb.cq, 1024)
	qa.Connect(verbs.Unicast(pb.node.Host, qb.N))
	qb.Connect(verbs.Unicast(pa.node.Host, qa.N))
	pa.qps[b] = qa
	pb.qps[a] = qb
	return qa
}

// buf returns the peer's cached registration of the given size.
func (p *peer) buf(size int) *verbs.MR {
	if mr, ok := p.mrCache[size]; ok {
		return mr
	}
	var mr *verbs.MR
	if p.team.cfg.VerifyData {
		mr = p.node.Ctx.RegisterMRData(make([]byte, size))
	} else {
		mr = p.node.Ctx.RegisterMR(size)
	}
	p.mrCache[size] = mr
	return mr
}

// Result is the outcome of one baseline collective: the unified
// collective.Result, with the per-rank RecvBytes aggregate filled in.
type Result = collective.Result

// opDriver tracks completion across ranks and finalizes the Result: End is
// the clock at the final completion. An RC-write op also keeps its
// schedule and shape here, shared by every rank.
type opDriver struct {
	t         *Team
	res       *Result
	remaining int
	cb        func(*Result)
	s         *schedule
	stepShape
}

func (t *Team) newDriver(kind string, sendBytes, recvBytes int, cb func(*Result)) *opDriver {
	t.seq++
	return &opDriver{
		t: t,
		res: &Result{
			Kind:      kind,
			Ranks:     t.Size(),
			SendBytes: sendBytes,
			RecvBytes: recvBytes,
			Start:     t.eng.Now(),
		},
		remaining: t.Size(),
		cb:        cb,
	}
}

func (d *opDriver) rankDone(p *peer) {
	p.op = nil
	d.remaining--
	if d.remaining == 0 {
		d.res.End = p.eng.Now()
		if m := d.t.reg; m != nil {
			m.Span("coll", d.res.Kind, d.res.Start, d.res.End)
			m.Counter("coll", "ops_total", "kind="+d.res.Kind).Add(1)
		}
		if d.cb != nil {
			d.cb(d.res)
		}
	}
}

// OnEvent completes a rank asynchronously (the single-rank degenerate path
// of every Start*, and Bruck's un-rotating copy): obj is the *peer to mark
// done.
func (d *opDriver) OnEvent(_ *sim.Engine, _ sim.Handle, _ uint64, _ int, obj any) {
	d.rankDone(obj.(*peer))
}

// immediate encoding shared by baseline ops: [31:24] op sequence low bits,
// [23:0] tag (block / chunk index).
func (t *Team) encImm(tag int) uint32 {
	if tag < 0 || tag >= 1<<24 {
		panic("coll: tag out of range")
	}
	return uint32(t.seq&0xFF)<<24 | uint32(tag)
}

func decImm(imm uint32) (seqLow, tag int) {
	return int(imm >> 24), int(imm & 0xFFFFFF)
}

// checkIdle validates team state before starting an operation.
func (t *Team) checkIdle(n int) error {
	if n <= 0 {
		return fmt.Errorf("coll: non-positive size %d", n)
	}
	for _, p := range t.peers {
		if p.op != nil {
			return fmt.Errorf("coll: rank %d busy (%s running)", p.id, p.op.kind())
		}
	}
	return nil
}

// checkSeq filters completions from stale operations.
func (t *Team) checkSeq(imm uint32) (int, bool) {
	seqLow, tag := decImm(imm)
	return tag, seqLow == t.seq&0xFF
}
