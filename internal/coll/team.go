// Package coll implements the point-to-point baseline collectives the paper
// compares against (§VI-B): ring / linear / recursive-doubling Allgather,
// k-nomial and pipelined binary-tree Broadcast (the bandwidth-optimized
// UCC/UCX P2P algorithms), ring Reduce-Scatter, and a SHARP-style
// in-network-compute Reduce-Scatter over the fabric's reduction trees
// (used by the Appendix B concurrent {Allgather, Reduce-Scatter} study).
//
// All baselines run over RC queue pairs (the zero-copy rendezvous path of
// production stacks): block transfers are RDMA Writes with immediate, and
// progression is completion-driven with per-CQE costs charged to each
// rank's progress thread, so baselines and the multicast protocol pay
// comparable software overheads.
package coll

import (
	"fmt"

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
var p2pProgress = dpa.Profile{Name: "p2p-progress", IssueCycles: 250, LatencyCycles: 250}

// reduceBandwidth is the sustained single-core vector-reduction rate used
// by the ring Reduce-Scatter (memory-bound AVX accumulate), bytes/second.
const reduceBandwidth = 20e9

// Config tunes a baseline team.
type Config struct {
	// ChunkBytes is the pipelining granularity of chunked algorithms
	// (binary tree, chain). Zero defaults to 64 KiB.
	ChunkBytes int
	// KnomialRadix is the tree radix for the k-nomial broadcast. Zero
	// defaults to 4 (the UCC default).
	KnomialRadix int
	// VerifyData backs all buffers with real bytes.
	VerifyData bool
	// Metrics, when set, records one span and one counter increment per
	// completed collective. Nil adds no cost.
	Metrics *telemetry.Registry
}

func (c Config) withDefaults() Config {
	if c.ChunkBytes == 0 {
		c.ChunkBytes = 64 * 1024
	}
	if c.KnomialRadix == 0 {
		c.KnomialRadix = 4
	}
	return c
}

// Team is a group of ranks executing P2P collectives.
type Team struct {
	cfg   Config
	cl    *cluster.Cluster
	f     *fabric.Fabric
	eng   *sim.Engine
	peers []*peer
	seq   int
}

type peer struct {
	team *Team
	id   int
	node *cluster.Node
	// eng is the fabric's engine: every event the rank schedules for
	// itself (send steps, completion marks) goes here.
	eng    *sim.Engine
	cq     *verbs.CQ
	wkr    *dpa.Worker
	thread *dpa.Thread
	qps    map[int]*verbs.QP // peer rank -> RC QP
	// udQP receives in-network reduction results.
	udQP    *verbs.QP
	mrCache map[int]*verbs.MR
	op      p2pOp
}

// p2pOp is the per-rank state machine of one in-flight baseline collective.
type p2pOp interface {
	// handle processes one completion belonging to this op.
	handle(e verbs.CQE)
	// done reports completion.
	done() bool
}

// NewTeam builds a team over hosts using the shared cluster runtime.
func NewTeam(cl *cluster.Cluster, hosts []topology.NodeID, cfg Config) (*Team, error) {
	if len(hosts) == 0 {
		return nil, fmt.Errorf("coll: team needs at least one rank")
	}
	t := &Team{cfg: cfg.withDefaults(), cl: cl, f: cl.Fabric(), eng: cl.Fabric().Engine()}
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
		p.wkr = dpa.NewWorker(p.eng, p.thread, p.cq, p2pProgress)
		p.wkr.Handle = func(e verbs.CQE) {
			if p.op != nil {
				p.op.handle(e)
			}
		}
		p.wkr.Start()
		t.peers = append(t.peers, p)
	}
	return t, nil
}

// NewTeamOn builds a team with a private cluster (convenience).
func NewTeamOn(f *fabric.Fabric, hosts []topology.NodeID, cfg Config) (*Team, error) {
	return NewTeam(cluster.New(f, cluster.Config{}), hosts, cfg)
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
// the clock at the final completion.
type opDriver struct {
	t         *Team
	res       *Result
	remaining int
	cb        func(*Result)
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
		if m := d.t.cfg.Metrics; m != nil {
			m.Span("coll", d.res.Kind, d.res.Start, d.res.End)
			m.Counter("coll", "ops_total", "kind="+d.res.Kind, telemetry.Stable).Add(1)
		}
		if d.cb != nil {
			d.cb(d.res)
		}
	}
}

// OnEvent completes a rank asynchronously (the single-rank degenerate path
// of every Start*): obj is the *peer to mark done.
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

// checkSeq filters completions from stale operations.
func (t *Team) checkSeq(imm uint32) (int, bool) {
	seqLow, tag := decImm(imm)
	return tag, seqLow == t.seq&0xFF
}

// fillPattern / checkPattern give baselines the same end-to-end data
// verification the core protocol has.
func fillPattern(b []byte, rank, seq int) {
	for i := range b {
		b[i] = byte(rank*131 + seq*29 + i*7)
	}
}

func checkPattern(b []byte, rank, seq int) error {
	for i := range b {
		if want := byte(rank*131 + seq*29 + i*7); b[i] != want {
			return fmt.Errorf("coll: byte %d = %#x, want %#x", i, b[i], want)
		}
	}
	return nil
}
