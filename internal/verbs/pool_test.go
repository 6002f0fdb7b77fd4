package verbs

import (
	"bytes"
	"math"
	"runtime"
	"testing"

	"repro/internal/fabric"
	"repro/internal/sim"
	"repro/internal/topology"
)

// warmLaps is how long the alloc gates below run before measuring: the
// engine's calendar is a ring of buckets whose backing arrays fill in as
// virtual time first reaches them, once per 262 µs lap.
const warmLaps = 4 * sim.Millisecond

// TestWarmUDUnicastAllocFree gates the unicast datagram path end to end:
// send, fabric hops, receive, completion, repost. The packet and its wire
// header come back from the fabric's pool, so a warm cycle allocates nothing.
func TestWarmUDUnicastAllocFree(t *testing.T) {
	eng, _, a, b := pair(t, fabric.Config{}, Config{})
	cqA, cqB := &CQ{}, &CQ{}
	qpA := a.NewQP(UD, cqA, cqA, 0)
	qpB := b.NewQP(UD, cqB, cqB, 0)
	src, dst := a.RegisterMR(4096), b.RegisterMR(4096)
	qpB.PostRecv(0, dst, 0, 4096)
	cycle := func() {
		qpA.PostSendUD(0, Unicast(b.Host, qpB.N), src, 0, 4096, 1, false)
		eng.Run()
		e, ok := cqB.Poll()
		if !ok {
			t.Fatal("datagram lost")
		}
		qpB.PostRecv(e.WrID, dst, 0, 4096)
	}
	for eng.Now() < warmLaps {
		cycle()
	}
	if avg := testing.AllocsPerRun(200, cycle); avg != 0 {
		t.Fatalf("warm UD unicast send/receive/repost allocates %.2f objects per packet, want 0", avg)
	}
}

// TestWarmUDMulticastAllocFree gates the multicast datagram path: one send
// replicated down the tree to three members, each receiving, completing and
// reposting. The datagram is one pool-born packet on every branch, back in
// the pool when the last branch lands, so a warm cycle allocates nothing.
func TestWarmUDMulticastAllocFree(t *testing.T) {
	eng := sim.NewEngine(1)
	g := topology.Star(4)
	f := fabric.New(eng, g, fabric.Config{})
	hosts := g.Hosts()
	gid, err := f.CreateGroup(g.Switches()[0], hosts)
	if err != nil {
		t.Fatal(err)
	}
	qps, cqs, mrs := make([]*QP, len(hosts)), make([]*CQ, len(hosts)), make([]*MR, len(hosts))
	for i, h := range hosts {
		ctx := NewContext(f, h, Config{})
		cqs[i] = &CQ{}
		qps[i] = ctx.NewQP(UD, cqs[i], cqs[i], 0)
		mrs[i] = ctx.RegisterMR(4096)
		if err := qps[i].AttachMcast(gid); err != nil {
			t.Fatal(err)
		}
		qps[i].PostRecv(0, mrs[i], 0, 4096)
	}
	cycle := func() {
		qps[0].PostSendUD(0, Multicast(gid), mrs[0], 0, 4096, 1, false)
		eng.Run()
		for i := 1; i < len(qps); i++ {
			e, ok := cqs[i].Poll()
			if !ok {
				t.Fatalf("member %d lost the datagram", i)
			}
			qps[i].PostRecv(e.WrID, mrs[i], 0, 4096)
		}
	}
	for eng.Now() < warmLaps {
		cycle()
	}
	if avg := testing.AllocsPerRun(200, cycle); avg != 0 {
		t.Fatalf("warm UD multicast send/replicate/receive/repost allocates %.2f objects per datagram, want 0", avg)
	}
}

// TestWarmRCWriteAllocsPerPacket gates the RC path: each round trip is a
// 64 KiB write of 16 segments and a one-segment two-sided send carrying
// bytes, the shape of core's control messages, and their two acks. The
// pending entries and the write's assembly state are recycled per context,
// the window's slot ring stays at its size, and the send is delivered
// straight from its packet, so thousands of warm round trips allocate
// nothing at all. The count is exact: an average rounded down would hide a
// structure that grows by one object every few hundred messages.
func TestWarmRCWriteAllocsPerPacket(t *testing.T) {
	eng, _, a, b := pair(t, fabric.Config{}, Config{})
	cqA, cqB := &CQ{}, &CQ{}
	qpA := a.NewQP(RC, cqA, cqA, 0)
	qpB := b.NewQP(RC, cqB, cqB, 0)
	qpA.Connect(Unicast(b.Host, qpB.N))
	qpB.Connect(Unicast(a.Host, qpA.N))
	const size, ctrl = 64 << 10, 64
	src, dst := a.RegisterMR(size), b.RegisterMR(size)
	msg, slot := a.RegisterMRData(fill(ctrl, 1)), b.RegisterMRData(make([]byte, ctrl))
	qpB.PostRecv(0, slot, 0, ctrl)
	cycle := func() {
		qpA.PostWriteRC(0, src, 0, size, dst.Key, 0, 1, true)
		qpA.PostSendRC(1, msg, 0, ctrl, 2, true)
		eng.Run()
		for _, want := range [...]Opcode{OpRecvWriteImm, OpRecv} {
			if e, ok := cqB.Poll(); !ok || e.Op != want {
				t.Fatalf("target completion %+v ok=%v, want %v", e, ok, want)
			}
		}
		qpB.PostRecv(0, slot, 0, ctrl)
		for range 2 {
			if e, ok := cqA.Poll(); !ok || e.Op != OpSend {
				t.Fatalf("message never acknowledged: %+v ok=%v", e, ok)
			}
		}
	}
	for eng.Now() < warmLaps {
		cycle()
	}
	const trips = 4096
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for range trips {
		cycle()
	}
	runtime.ReadMemStats(&after)
	if n := after.Mallocs - before.Mallocs; n != 0 {
		t.Fatalf("%d warm RC round trips (a 64 KiB write and a %d B send each) allocated %d objects, want 0", trips, ctrl, n)
	}
	if !bytes.Equal(slot.Data, msg.Data) {
		t.Fatal("send landed corrupt")
	}
}

// TestRCRecycledStateUnderLoss drives the RC state free lists and the
// receive window hard: a 1 µs RTO at 10% drops makes every request
// retransmit and acks race their timers, 5 µs of reorder jitter lands later
// sequence numbers first, and writes, two-sided sends and reads are posted at
// random times over each other's retirements. Each work request must
// complete exactly once with its own op and byte count, on both ends, with
// its own bytes: a recycled rcPending retransmitted as another message, a
// stale timer firing into a reused entry or reassembly state shared by two
// messages would show up as a lost, duplicated or misattributed completion.
// Then every request is sent once more, long after its ack, and must change
// nothing; at quiescence each window is empty, its base past every write
// and send, and no QP holds a map entry.
func TestRCRecycledStateUnderLoss(t *testing.T) {
	eng, _, a, b := pair(t, fabric.Config{DropRate: 0.10, ReorderJitter: 5 * sim.Microsecond}, Config{RetransmitTimeout: sim.Microsecond})
	cqA, cqB := &CQ{}, &CQ{}
	qpA := a.NewQP(RC, cqA, cqA, 0)
	qpB := b.NewQP(RC, cqB, cqB, 0)
	qpA.Connect(Unicast(b.Host, qpB.N))
	qpB.Connect(Unicast(a.Host, qpA.N))
	const ops, slot = 240, 2*4096 + 1000
	src := a.RegisterMRData(fill(ops*slot, 3))        // write and send sources
	remote := b.RegisterMRData(fill(ops*slot, 5))     // read sources
	local := a.RegisterMRData(make([]byte, ops*slot)) // read targets
	written := b.RegisterMRData(make([]byte, ops*slot))
	received := b.RegisterMRData(make([]byte, ops*slot)) // send receive buffers

	kind := make([]Opcode, ops) // what B sees for op i: write-imm, recv, or nothing for a read
	size := make([]int, ops)
	posted := make([]rcPending, ops) // each request as posted, to send it again later
	post := func(i int, f func()) sim.Handler {
		return call(func() {
			id := a.nextMsgID + 1
			f()
			posted[i] = *a.pending[id]
		})
	}
	numbered := uint32(0) // writes and sends
	rng := sim.NewRNG(11)
	for i := range kind {
		off, n := i*slot, 1+int(rng.Uint64()%slot)
		size[i] = n
		at := sim.Time(rng.Uint64() % uint64(300*sim.Microsecond))
		switch rng.Uint64() % 3 {
		case 0:
			kind[i] = OpRecvWriteImm
			numbered++
			eng.AtHandler(at, post(i, func() { qpA.PostWriteRC(uint64(i), src, off, n, written.Key, off, uint32(i), true) }), 0, 0, nil)
		case 1:
			kind[i] = OpRecv
			numbered++
			qpB.PostRecv(uint64(i), received, off, slot)
			eng.AtHandler(at, post(i, func() { qpA.PostSendRC(uint64(i), src, off, n, uint32(i), true) }), 0, 0, nil)
		default:
			kind[i] = OpRead
			eng.AtHandler(at, post(i, func() { qpA.PostReadRC(uint64(i), local, off, remote.Key, off, n) }), 0, 0, nil)
		}
	}
	eng.Run()

	seen := make([]int, ops)
	for e, ok := cqA.Poll(); ok; e, ok = cqA.Poll() {
		i := int(e.WrID)
		want := OpSend
		if kind[i] == OpRead {
			want = OpRead
		}
		if seen[i]++; e.Op != want || e.Bytes != size[i] {
			t.Fatalf("request %d (%v, %d B) completed as %v with %d B", i, kind[i], size[i], e.Op, e.Bytes)
		}
	}
	for e, ok := cqB.Poll(); ok; e, ok = cqB.Poll() {
		i := int(e.Imm)
		if seen[i] += 10; e.Op != kind[i] || e.Bytes != size[i] {
			t.Fatalf("message %d (%v, %d B) arrived as %v with %d B", i, kind[i], size[i], e.Op, e.Bytes)
		}
		if e.Op == OpRecv && !bytes.Equal(received.Data[int(e.WrID)*slot:][:size[i]], src.Data[i*slot:][:size[i]]) {
			t.Fatalf("send %d landed corrupt in receive %d", i, e.WrID)
		}
	}
	for i := range kind {
		off, n, want := i*slot, size[i], 11 // one completion at A, one at B
		switch kind[i] {
		case OpRead:
			want = 1
			if !bytes.Equal(local.Data[off:off+n], remote.Data[off:off+n]) {
				t.Fatalf("read %d returned corrupt bytes", i)
			}
		case OpRecvWriteImm:
			if !bytes.Equal(written.Data[off:off+n], src.Data[off:off+n]) {
				t.Fatalf("write %d landed corrupt", i)
			}
		}
		if seen[i] != want {
			t.Fatalf("op %d (%v): %d completions at the requester and %d at the target, want %d and %d",
				i, kind[i], seen[i]%10, seen[i]/10, want%10, want/10)
		}
	}
	if qpA.Retransmits == 0 || len(a.freePending) == 0 || len(a.freePending) >= ops || len(b.freeAsm) == 0 ||
		len(qpB.window.slots.buf) <= 2 {
		t.Fatalf("test premise broken: %d retransmits, %d pending and %d assembly entries recycled for %d requests, window of %d slots",
			qpA.Retransmits, len(a.freePending), len(b.freeAsm), ops, len(qpB.window.slots.buf))
	}
	quiescent := func(when string) {
		t.Helper()
		for _, c := range []struct {
			qp   *QP
			base uint32
		}{{qpA, 0}, {qpB, numbered}} {
			if w := &c.qp.window; w.slots.len() != 0 || w.base != c.base || len(c.qp.assembly) != 0 {
				t.Fatalf("%s: QP %d holds %d window slots at base %d (want none at %d) and %d map entries",
					when, c.qp.N, w.slots.len(), w.base, c.base, len(c.qp.assembly))
			}
		}
		if len(a.pending) != 0 {
			t.Fatalf("%s: %d requests still pending", when, len(a.pending))
		}
	}
	quiescent("after the run")

	// A late duplicate of every request, each arriving after its ack: a
	// write or send below base is re-acked, not re-delivered, even into a
	// spare receive, and a read is answered again into a requester that no
	// longer waits for it.
	spare := 0
	for i := range kind {
		if kind[i] == OpRecv {
			qpB.PostRecv(uint64(i), received, i*slot, slot)
			spare++
		}
		eng.AtHandler(eng.Now()+sim.Time(rng.Uint64()%uint64(50*sim.Microsecond)), call(func() { qpA.transmitRC(&posted[i]) }), 0, 0, nil)
	}
	eng.Run()
	if cqA.Len() != 0 || cqB.Len() != 0 || qpB.rqLen != spare || qpB.RNRDrops != 0 {
		t.Fatalf("late duplicates completed %d requests and %d messages and left %d of %d spare receives (%d RNR drops)",
			cqA.Len(), cqB.Len(), qpB.rqLen, spare, qpB.RNRDrops)
	}
	quiescent("after the late duplicates")
	t.Logf("%d requests, %d retransmits: %d pending entries and %d assembly entries served them, window grew to %d slots",
		ops, qpA.Retransmits, len(a.freePending), len(b.freeAsm), len(qpB.window.slots.buf))
}

// TestRCReceiveStateBounded checks that an RC receiver's state is bounded
// by the sender's outstanding messages, not by the length of the run. One
// QP pair carries N and then 8N writes and sends under 1% loss and 5 µs
// reorder jitter, the sender keeping at most 16 unacknowledged messages
// from its oldest on, as a send queue of that depth would. The window's
// slot ring must end the same size in both runs, and no larger than the
// sender's peak outstanding messages.
func TestRCReceiveStateBounded(t *testing.T) {
	const n = 256
	capN, peakN := rcWindowAfter(t, n)
	cap8N, peak8N := rcWindowAfter(t, 8*n)
	if capN != cap8N || cap8N > peak8N || capN > peakN {
		t.Fatalf("window of %d slots after %d messages (peak %d outstanding) and %d after %d (peak %d), want equal and within the peak",
			capN, n, peakN, cap8N, 8*n, peak8N)
	}
	if capN <= 2 {
		t.Fatalf("test premise broken: the window never held more than %d slots", capN)
	}
	t.Logf("window of %d slots for %d and %d messages, at most %d outstanding", capN, n, 8*n, peak8N)
}

// rcWindowAfter runs msgs RC messages as TestRCReceiveStateBounded
// describes and returns the receiver's window size in slots and the
// sender's peak outstanding messages.
func rcWindowAfter(t *testing.T, msgs int) (slots, peak int) {
	eng, _, a, b := pair(t, fabric.Config{DropRate: 0.01, ReorderJitter: 5 * sim.Microsecond}, Config{RetransmitTimeout: 20 * sim.Microsecond})
	cqA, cqB := &CQ{}, &CQ{}
	qpA := a.NewQP(RC, cqA, cqA, 0)
	qpB := b.NewQP(RC, cqB, cqB, 0)
	qpA.Connect(Unicast(b.Host, qpB.N))
	qpB.Connect(Unicast(a.Host, qpA.N))
	const depth, size = 16, 3 * 4096
	src, dst := a.RegisterMR(size), b.RegisterMR(size)
	for range msgs {
		qpB.PostRecv(0, dst, 0, size)
	}
	rng := sim.NewRNG(7)
	acked := make([]bool, msgs)
	oldest, next := 0, 0
	var pump func()
	pump = func() {
		for e, ok := cqA.Poll(); ok; e, ok = cqA.Poll() {
			if e.Op != OpSend {
				t.Fatalf("message %d failed: %+v", e.WrID, e)
			}
			acked[e.WrID] = true
		}
		for oldest < next && acked[oldest] {
			oldest++
		}
		for ; next < msgs && next-oldest < depth; next++ {
			if n := 1 + rng.Intn(size); rng.Intn(2) == 0 {
				qpA.PostWriteRC(uint64(next), src, 0, n, dst.Key, 0, 0, true)
			} else {
				qpA.PostSendRC(uint64(next), src, 0, n, 0, true)
			}
			peak = max(peak, next+1-oldest)
		}
		cqA.Armed = func() { eng.AtHandler(eng.Now(), call(pump), 0, 0, nil) }
	}
	pump()
	eng.Run()
	if oldest != msgs || cqB.Len() != msgs || qpB.window.base != uint32(msgs) || qpB.window.slots.len() != 0 {
		t.Fatalf("%d messages: %d acked, %d delivered, window base %d with %d slots held",
			msgs, oldest, cqB.Len(), qpB.window.base, qpB.window.slots.len())
	}
	return len(qpB.window.slots.buf), peak
}

// TestDenseTableBounds pins the edges of the slice-backed QP and MR tables:
// key and QPN 0, the last one handed out, one past it and the maximum.
func TestDenseTableBounds(t *testing.T) {
	eng, _, a, b := pair(t, fabric.Config{}, Config{})
	cqA, cqB := &CQ{}, &CQ{}
	qpA := a.NewQP(UD, cqA, cqA, 0)
	b.NewQP(UD, &CQ{}, &CQ{}, 0)
	last := b.NewQP(UD, cqB, cqB, 0)
	src := a.RegisterMR(64)
	b.RegisterMR(64)
	lastMR := b.RegisterMR(64)

	for _, tc := range []struct {
		key  uint32
		want *MR
	}{{0, nil}, {1, b.mrs[0]}, {lastMR.Key, lastMR}, {lastMR.Key + 1, nil}, {math.MaxUint32, nil}} {
		mr, ok := b.LookupMR(tc.key)
		if mr != tc.want || ok != (tc.want != nil) {
			t.Errorf("LookupMR(%d) = %p, %v; want %p", tc.key, mr, ok, tc.want)
		}
	}

	// An unknown QPN is a silent drop: no completion, no RNR count, no panic.
	for _, tc := range []struct {
		qpn       QPN
		delivered bool
	}{{0, false}, {last.N, true}, {last.N + 1, false}, {math.MaxUint32, false}} {
		last.PostRecv(0, lastMR, 0, 64)
		qpA.PostSendUD(0, Unicast(b.Host, tc.qpn), src, 0, 64, 9, false)
		eng.Run()
		_, got := cqB.Poll()
		if got != tc.delivered || b.RNRDrops != 0 {
			t.Errorf("datagram to QPN %d: delivered %v (RNR drops %d), want %v and none", tc.qpn, got, b.RNRDrops, tc.delivered)
		}
		last.popRecv() // leave the queue empty for the next row
	}

	// An unknown rkey is a protocol bug and still panics.
	uc := a.NewQP(UC, cqA, cqA, 0)
	uc.Connect(Unicast(b.Host, b.NewQP(UC, cqB, cqB, 0).N))
	uc.PostWriteUC(0, src, 0, 64, lastMR.Key+1, 0, 0, false)
	defer func() {
		if recover() == nil {
			t.Error("write to an unknown rkey did not panic")
		}
	}()
	eng.Run()
}

// call adapts a func() to sim.Handler, for tests that schedule a one-off
// action.
type call func()

func (f call) OnEvent(*sim.Engine, sim.Handle, uint64, int, any) { f() }
