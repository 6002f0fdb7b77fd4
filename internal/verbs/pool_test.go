package verbs

import (
	"bytes"
	"math"
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

// TestWarmRCWriteAllocsPerPacket gates the RC path: a 64 KiB write is 16
// segments and an ack. The pending entry and the assembly entry with its
// bitmap are recycled per context, so a warm round trip allocates nothing
// but amortised map growth — under one object per round trip.
func TestWarmRCWriteAllocsPerPacket(t *testing.T) {
	eng, _, a, b := pair(t, fabric.Config{}, Config{})
	cqA, cqB := &CQ{}, &CQ{}
	qpA := a.NewQP(RC, cqA, cqA, 0)
	qpB := b.NewQP(RC, cqB, cqB, 0)
	qpA.Connect(Unicast(b.Host, qpB.N))
	qpB.Connect(Unicast(a.Host, qpA.N))
	const size = 64 << 10
	src, dst := a.RegisterMR(size), b.RegisterMR(size)
	packets := size/a.MTU() + 1
	cycle := func() {
		qpA.PostWriteRC(0, src, 0, size, dst.Key, 0, 1, true)
		eng.Run()
		if _, ok := cqB.Poll(); !ok {
			t.Fatal("write never completed at the target")
		}
		if e, ok := cqA.Poll(); !ok || e.Op != OpSend {
			t.Fatalf("write never acknowledged: %+v ok=%v", e, ok)
		}
	}
	for eng.Now() < warmLaps {
		cycle()
	}
	if avg := testing.AllocsPerRun(200, cycle); avg != 0 {
		t.Fatalf("warm 64 KiB RC write allocates %.0f objects per round trip of %d packets, want 0", avg, packets)
	}
}

// TestRCRecycledStateUnderLoss drives the RC state free lists hard: a 1 µs
// RTO at 10% drops makes every request retransmit and acks race their
// timers, while writes, two-sided sends and reads are posted at random times
// over each other's retirements. Each work request must complete exactly
// once with its own op and byte count, on both ends, with its own bytes: a
// recycled rcPending retransmitted as another message, a stale timer firing
// into a reused entry or reassembly state shared by two messages would show
// up as a lost, duplicated or misattributed completion.
func TestRCRecycledStateUnderLoss(t *testing.T) {
	eng, _, a, b := pair(t, fabric.Config{DropRate: 0.10}, Config{RetransmitTimeout: sim.Microsecond})
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
	rng := sim.NewRNG(11)
	for i := range kind {
		off, n := i*slot, 1+int(rng.Uint64()%slot)
		size[i] = n
		at := sim.Time(rng.Uint64() % uint64(300*sim.Microsecond))
		switch rng.Uint64() % 3 {
		case 0:
			kind[i] = OpRecvWriteImm
			eng.AtHandler(at, call(func() { qpA.PostWriteRC(uint64(i), src, off, n, written.Key, off, uint32(i), true) }), 0, 0, nil)
		case 1:
			kind[i] = OpRecv
			qpB.PostRecv(uint64(i), received, off, slot)
			eng.AtHandler(at, call(func() { qpA.PostSendRC(uint64(i), src, off, n, uint32(i), true) }), 0, 0, nil)
		default:
			kind[i] = OpRead
			eng.AtHandler(at, call(func() { qpA.PostReadRC(uint64(i), local, off, remote.Key, off, n) }), 0, 0, nil)
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
	if qpA.Retransmits == 0 || len(a.freePending) == 0 || len(a.freePending) >= ops || len(b.freeAsm) == 0 {
		t.Fatalf("test premise broken: %d retransmits, %d pending and %d assembly entries recycled for %d requests",
			qpA.Retransmits, len(a.freePending), len(b.freeAsm), ops)
	}
	t.Logf("%d requests, %d retransmits: %d pending entries and %d assembly entries served them",
		ops, qpA.Retransmits, len(a.freePending), len(b.freeAsm))
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
