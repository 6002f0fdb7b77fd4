// Package verbs models the InfiniBand Verbs transport layer on top of the
// simulated fabric: queue pairs with the three service types the paper
// analyzes (§II-B) — Unreliable Datagram (UD, multicast-capable, MTU-sized
// datagrams), Unreliable Connection (UC, arbitrary-length RDMA Writes with
// immediate, message dropped if any packet is lost, plus the paper's
// proposed UC-multicast extension), and Reliable Connection (RC, hardware
// reliability, one-sided Read/Write used by the slow-path fetch ring) —
// along with completion queues whose entries carry 32-bit immediate data
// (the PSN channel), memory regions, receive queues with RNR-drop
// semantics, and a non-blocking DMA engine for staging copies.
//
// Memory regions may carry real bytes (Data != nil), in which case all
// transfers move actual data and tests can verify buffer contents, or they
// may be metadata-only for large-scale performance runs where allocating
// hundreds of gigabytes of simulated buffers would be wasteful.
package verbs

import (
	"fmt"

	"repro/internal/fabric"
	"repro/internal/sim"
	"repro/internal/telemetry"
	"repro/internal/topology"
)

// Transport selects the QP service type.
type Transport uint8

const (
	// UD is the Unreliable Datagram transport: connectionless two-sided
	// MTU-sized datagrams, the only transport with standardized multicast.
	UD Transport = iota
	// UC is the Unreliable Connection transport: arbitrary-length RDMA
	// Writes; a message is discarded if any of its packets is lost.
	UC
	// RC is the Reliable Connection transport: hardware retransmission,
	// one-sided Read and Write.
	RC
)

func (t Transport) String() string {
	switch t {
	case UD:
		return "UD"
	case UC:
		return "UC"
	case RC:
		return "RC"
	}
	return "?"
}

// QPN is a queue pair number, unique per host.
type QPN uint32

// Addr names a remote QP endpoint or a multicast group.
type Addr struct {
	Host  topology.NodeID
	QPN   QPN
	Group fabric.GroupID // != NoGroup means multicast destination
}

// IsMulticast reports whether the address targets a multicast group.
func (a Addr) IsMulticast() bool { return a.Group != fabric.NoGroup }

// Unicast builds a unicast address.
func Unicast(host topology.NodeID, qpn QPN) Addr {
	return Addr{Host: host, QPN: qpn, Group: fabric.NoGroup}
}

// Multicast builds a multicast address.
func Multicast(g fabric.GroupID) Addr { return Addr{Group: g} }

// Opcode identifies the kind of completed work in a CQE.
type Opcode uint8

const (
	// OpRecv completes a two-sided receive (UD datagram or RC send).
	OpRecv Opcode = iota
	// OpRecvWriteImm completes a remote RDMA Write-with-immediate (UC/RC):
	// the data is already in the target MR, the immediate is in the CQE.
	OpRecvWriteImm
	// OpSend completes a local send/write request (signaled only).
	OpSend
	// OpRead completes a local RDMA Read (data has landed in the local MR).
	OpRead
	// OpErr reports a terminal transport error (RC retry exhaustion).
	OpErr
)

func (o Opcode) String() string {
	switch o {
	case OpRecv:
		return "recv"
	case OpRecvWriteImm:
		return "recv-write-imm"
	case OpSend:
		return "send"
	case OpRead:
		return "read"
	case OpErr:
		return "err"
	}
	return "?"
}

// CQE is a completion queue entry.
type CQE struct {
	Op      Opcode
	QPN     QPN    // local QP the completion belongs to
	WrID    uint64 // work-request ID supplied at post time (local ops + recv)
	Imm     uint32 // immediate data (PSN channel for the protocol)
	HasImm  bool
	Bytes   int             // payload bytes transferred
	SrcHost topology.NodeID // peer host (receives)
	SrcQPN  QPN             // peer QP (receives)
}

// CQ is a completion queue: a ring that receives entries in completion
// order and is drained by the progress engine (host worker or DPA thread
// model). The zero value is an empty queue.
type CQ struct {
	entries ring[CQE]
	// Armed, when set, fires once on the next completion and is then
	// cleared — the event-driven activation model of DOCA FlexIO (§II-C).
	Armed func()
	// Produced counts all CQEs ever pushed, for rate measurements.
	Produced uint64
}

// Push appends a completion. Protocol code never calls this directly.
func (cq *CQ) Push(e CQE) {
	cq.entries.push(e)
	cq.Produced++
	if cq.Armed != nil {
		fn := cq.Armed
		cq.Armed = nil
		fn()
	}
}

// Poll removes and returns the oldest completion.
func (cq *CQ) Poll() (CQE, bool) {
	if cq.entries.len() == 0 {
		return CQE{}, false
	}
	return cq.entries.pop(), true
}

// Len returns the number of completions waiting.
func (cq *CQ) Len() int { return cq.entries.len() }

// MR is a registered memory region. If Data is non-nil its length must be
// Size and transfers copy real bytes; otherwise only sizes/offsets flow,
// unless the region is lazy.
type MR struct {
	Key  uint32
	Size int
	Data []byte
	// lazy marks a region registered with RegisterMRLazy: it carries real
	// bytes, but Data stays nil and they live in pages, each allocated on
	// the first Slice that touches it.
	lazy  bool
	pages [][]byte
}

// lazyPage is the unit in which a lazy region materialises.
const lazyPage = 4096

// Slice returns the n bytes at off, nil for a metadata-only region. Bounds
// are always enforced — a PSN pointing outside the buffer must fail loudly,
// that is the corruption the paper's staging design exists to prevent. A
// lazy region allocates the page holding the bytes on first touch; an
// access that straddles two of its pages is a bug and panics.
func (mr *MR) Slice(off, n int) []byte {
	mr.check(off, n)
	if !mr.lazy || n == 0 {
		if mr.Data == nil {
			return nil
		}
		return mr.Data[off : off+n]
	}
	p, o := off/lazyPage, off%lazyPage
	if o+n > lazyPage {
		panic(fmt.Sprintf("verbs: access [%d,%d) straddles a %d-byte page of a lazy MR", off, off+n, lazyPage))
	}
	if mr.pages == nil {
		mr.pages = make([][]byte, (mr.Size+lazyPage-1)/lazyPage)
	}
	if mr.pages[p] == nil {
		mr.pages[p] = make([]byte, lazyPage)
	}
	return mr.pages[p][o : o+n]
}

// check panics unless [off, off+n) lies inside the region; it touches no
// lazy page.
func (mr *MR) check(off, n int) {
	if off < 0 || n < 0 || off+n > mr.Size {
		panic(fmt.Sprintf("verbs: access [%d,%d) outside MR of size %d", off, off+n, mr.Size))
	}
}

// Pages returns how many pages of a lazy region have been materialised.
func (mr *MR) Pages() int {
	n := 0
	for _, p := range mr.pages {
		if p != nil {
			n++
		}
	}
	return n
}

// write stores incoming bytes at off, bounds-checked even when they carry no
// payload.
func (mr *MR) write(off int, data []byte, n int) {
	if off < 0 || off+n > mr.Size {
		panic(fmt.Sprintf("verbs: write [%d,%d) outside MR of size %d", off, off+n, mr.Size))
	}
	if data != nil && n > 0 {
		copy(mr.Slice(off, n), data[:n])
	}
}

// recvWQE is one posted receive, as popRecv hands it out; QP.rq stores
// WQEs as runs.
type recvWQE struct {
	wrID   uint64
	mr     *MR
	offset int
	length int
}

// rqRun is a run of count posted receives into the same MR with the same
// length, the k-th of which is first advanced k times by (dWr, dOff): a
// staging ring pre-posted slot by slot, a re-posted slot continuing it, or
// one WQE re-posted over and over (step zero).
type rqRun struct {
	first recvWQE
	count int
	dWr   uint64
	dOff  int
}

// Config tunes transport-level behaviour.
type Config struct {
	// RQDepth is the default receive queue capacity (BlueField-3: 8192).
	RQDepth int
	// RetransmitTimeout is the RC retransmission RTO base.
	RetransmitTimeout sim.Time
	// MaxRetries bounds RC retransmission attempts before an OpErr CQE.
	MaxRetries int
	// Metrics, when set, receives transport telemetry: RC completion
	// latency histograms live, drop/retransmit counters at collection
	// time. Set on a cluster's config, it is the run's one recorder, read
	// by every layer built on that cluster. Nil (the default) adds no cost
	// anywhere.
	Metrics *telemetry.Registry
}

func (c Config) withDefaults() Config {
	if c.RQDepth == 0 {
		c.RQDepth = 8192
	}
	if c.RetransmitTimeout == 0 {
		c.RetransmitTimeout = 200 * sim.Microsecond
	}
	if c.MaxRetries == 0 {
		c.MaxRetries = 16
	}
	return c
}

const (
	// dmaBandwidth is the staging-copy engine bandwidth in bytes/s
	// (PCIe 4.0 x16 ≈ 32e9).
	dmaBandwidth = 32e9
	// dmaLatency is the per-copy completion latency (paper: 1–3 µs).
	dmaLatency = 1500 * sim.Nanosecond
)

// Context owns the verbs resources of one host: QPs, MRs, and the DMA
// engine. It is the software-visible face of the NIC.
type Context struct {
	Host topology.NodeID
	f    *fabric.Fabric
	eng  *sim.Engine
	nic  *fabric.NIC
	cfg  Config

	// QPNs and MR keys are handed out densely from 1: qps[n-1] is QP n,
	// mrs[k-1] the region registered under key k.
	qps []*QP
	mrs []*MR
	// mcast[group] lists local QPs attached to the group; grown on attach.
	mcast [][]*QP
	dma   *DMAEngine

	nextMsgID uint64
	// pending is the RC sender-side reliability state of every QP of this
	// context, by message id (ids are unique per context); created on the
	// first RC post.
	pending map[uint64]*rcPending

	// Recycled per-message RC state, shared by this context's QPs (see
	// newPending and newAssembly).
	freePending []*rcPending
	freeAsm     []*assemblyState

	// Stats
	RNRDrops uint64 // datagrams dropped because no receive was posted

	// complLat is the RC completion-latency histogram (post to ack), shared
	// across this context's QPs; nil when Config.Metrics is unset.
	complLat *telemetry.Histogram
}

// NewContext opens a verbs context on host over fabric f.
func NewContext(f *fabric.Fabric, host topology.NodeID, cfg Config) *Context {
	cfg = cfg.withDefaults()
	ctx := &Context{
		Host: host,
		f:    f,
		eng:  f.Engine(),
		nic:  f.AttachNIC(host),
		cfg:  cfg,
	}
	ctx.dma = newDMAEngine(ctx.eng, dmaBandwidth, dmaLatency)
	ctx.nic.Deliver = ctx.dispatch
	// All contexts of a cluster share one registry, so every host's RC
	// completions land in the same histogram (the registry dedupes by key).
	ctx.complLat = cfg.Metrics.Histogram("verbs", "rc_completion_ns", "", telemetry.LatencyBounds)
	return ctx
}

// Engine returns the simulation engine.
func (ctx *Context) Engine() *sim.Engine { return ctx.eng }

// Fabric returns the underlying fabric.
func (ctx *Context) Fabric() *fabric.Fabric { return ctx.f }

// DMA returns the host's staging-copy DMA engine.
func (ctx *Context) DMA() *DMAEngine { return ctx.dma }

// MTU returns the maximum datagram payload.
func (ctx *Context) MTU() int { return ctx.f.MaxPayload() }

// RegisterMR registers a metadata-only region of the given size.
func (ctx *Context) RegisterMR(size int) *MR {
	return ctx.registerMR(&MR{Size: size})
}

// RegisterMRData registers a region backed by real bytes.
func (ctx *Context) RegisterMRData(buf []byte) *MR {
	return ctx.registerMR(&MR{Size: len(buf), Data: buf})
}

// RegisterMRLazy registers a region that carries real bytes but allocates
// them one 4 KiB page at a time, when MR.Slice first touches the page: for
// buffers most of which never see a payload (the control-plane slots),
// where zeroing Size bytes per region up front is the bulk of building a
// communicator. No access may straddle two pages.
func (ctx *Context) RegisterMRLazy(size int) *MR {
	return ctx.registerMR(&MR{Size: size, lazy: true})
}

func (ctx *Context) registerMR(mr *MR) *MR {
	ctx.mrs = append(ctx.mrs, mr)
	mr.Key = uint32(len(ctx.mrs))
	return mr
}

// LookupMR resolves a remote key on this (target) context.
func (ctx *Context) LookupMR(key uint32) (*MR, bool) {
	if key-1 >= uint32(len(ctx.mrs)) { // key 0 wraps to the maximum
		return nil, false
	}
	return ctx.mrs[key-1], true
}

// QP is a queue pair bound to a context.
type QP struct {
	N         QPN
	Transport Transport
	ctx       *Context
	sendCQ    *CQ
	recvCQ    *CQ

	// rq holds the posted receives in FIFO order as runs (see rqRun), rqLen
	// of them in all: a staging ring thousands of WQEs deep is one or two
	// runs, not one record per WQE.
	rq      ring[rqRun]
	rqLen   int
	rqDepth int

	// UC/RC connection state.
	peer      Addr
	connected bool

	// assembly holds a UC QP's receiver-side reassembly, by message: UC is
	// message-granular, and a UC multicast QP hears many senders. Created
	// on first write: other QPs never need it, and reading a nil map is
	// safe.
	assembly map[assemblyKey]*assemblyState
	// lastAsm is the assembly entry the previous UC segment hit, under
	// lastKey; nil when that entry has been deleted. The segments of a
	// message arrive back to back, so all but the first skip both map
	// lookups.
	lastKey assemblyKey
	lastAsm *assemblyState

	// RC only: sendSeq numbers the writes and sends this QP posts, and
	// window is what the QP has delivered of its peer's.
	sendSeq uint32
	window  rcWindow

	// Stats
	RNRDrops     uint64 // two-sided arrivals dropped for lack of a recv WQE
	UCMsgDropped uint64 // UC messages discarded due to a lost packet
	Retransmits  uint64 // RC segment retransmissions
}

// NewQP creates a queue pair. sendCQ and recvCQ may be the same CQ.
func (ctx *Context) NewQP(t Transport, sendCQ, recvCQ *CQ, rqDepth int) *QP {
	if rqDepth <= 0 {
		rqDepth = ctx.cfg.RQDepth
	}
	qp := &QP{
		N:         QPN(len(ctx.qps) + 1),
		Transport: t,
		ctx:       ctx,
		sendCQ:    sendCQ,
		recvCQ:    recvCQ,
		rqDepth:   rqDepth,
	}
	ctx.qps = append(ctx.qps, qp)
	return qp
}

// Connect binds a UC/RC QP to its remote peer. UD QPs are connectionless
// and must not be connected.
func (qp *QP) Connect(peer Addr) {
	if qp.Transport == UD {
		panic("verbs: Connect on UD QP")
	}
	if peer.IsMulticast() && qp.Transport != UC {
		panic("verbs: multicast connection only supported by the UC extension")
	}
	qp.peer = peer
	qp.connected = true
}

// AttachMcast subscribes the QP (UD, or UC under the paper's extension) to
// a multicast group: incoming datagrams for the group are steered to it.
func (qp *QP) AttachMcast(g fabric.GroupID) error {
	if qp.Transport == RC {
		return fmt.Errorf("verbs: RC transport does not support multicast")
	}
	if err := qp.ctx.nic.AttachGroup(g); err != nil {
		return err
	}
	ctx := qp.ctx
	for len(ctx.mcast) <= int(g) {
		ctx.mcast = append(ctx.mcast, nil)
	}
	for _, q := range ctx.mcast[g] {
		if q == qp {
			return nil
		}
	}
	ctx.mcast[g] = append(ctx.mcast[g], qp)
	return nil
}

// PostRecv posts one receive WQE. For UD each WQE absorbs one datagram;
// for RC sends it absorbs one message. Returns false when the RQ is full.
func (qp *QP) PostRecv(wrID uint64, mr *MR, offset, length int) bool {
	if qp.rqLen >= qp.rqDepth {
		return false
	}
	qp.rqLen++
	if qp.rq.len() > 0 {
		// Extend the tail run if the WQE continues it; a run of one takes
		// its step from this WQE.
		t := qp.rq.back()
		if t.first.mr == mr && t.first.length == length {
			if t.count == 1 {
				t.dWr, t.dOff = wrID-t.first.wrID, offset-t.first.offset
			}
			if wrID == t.first.wrID+uint64(t.count)*t.dWr && offset == t.first.offset+t.count*t.dOff {
				t.count++
				return true
			}
		}
	}
	qp.rq.push(rqRun{first: recvWQE{wrID: wrID, mr: mr, offset: offset, length: length}, count: 1})
	return true
}

func (qp *QP) popRecv() (recvWQE, bool) {
	if qp.rqLen == 0 {
		return recvWQE{}, false
	}
	qp.rqLen--
	r := qp.rq.front()
	w := r.first
	if r.count--; r.count == 0 {
		qp.rq.pop()
	} else {
		r.first.wrID += r.dWr
		r.first.offset += r.dOff
	}
	return w, true
}

// --- wire format ------------------------------------------------------------

type wireOp uint8

const (
	wireSendUD   wireOp = iota
	wireWrite           // UC/RC write segment
	wireSendRC          // RC two-sided send segment
	wireAck             // RC message acknowledgement
	wireReadReq         // RC read request
	wireReadResp        // RC read response segment
)

type wireMsg struct {
	op      wireOp
	srcQPN  QPN
	dstQPN  QPN
	seq     uint32 // RC write or send: the sending QP's sequence number
	msgID   uint64
	seg     int // segment index within the message
	nsegs   int
	rkey    uint32 // target MR for writes / read source
	roffset int    // target offset for writes / read source offset
	imm     uint32
	hasImm  bool
	data    []byte // nil in metadata-only mode
	dataLen int
	readLen int // read request: bytes wanted
}

func (ctx *Context) allocMsgID() uint64 {
	ctx.nextMsgID++
	return ctx.nextMsgID
}

// dispatch routes an arriving packet to the destination QP(s). A QPN this
// context never handed out is a stale packet to a destroyed QP: silently
// dropped, as in IB.
func (ctx *Context) dispatch(pkt *fabric.Packet) {
	m := pkt.Payload.(*wireMsg)
	if pkt.Group != fabric.NoGroup {
		if int(pkt.Group) < len(ctx.mcast) { // attached at the NIC only: no QP
			for _, qp := range ctx.mcast[pkt.Group] {
				qp.receive(pkt, m)
			}
		}
		return // other branches may still read the header: keep its data
	}
	if n := m.dstQPN - 1; n < QPN(len(ctx.qps)) { // QPN 0 wraps to the maximum
		ctx.qps[n].receive(pkt, m)
	}
	m.data = nil // the header goes back to the pool with its packet: pin no MR
}
