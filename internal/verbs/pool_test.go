package verbs

import (
	"math"
	"testing"

	"repro/internal/fabric"
	"repro/internal/sim"
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

// TestWarmRCWriteAllocsPerPacket gates the RC path: a 64 KiB write is 16
// segments and an ack. What a warm round trip still allocates is per-message
// state (the pending entry, the assembly entry and its bitmap, map growth) —
// nothing per packet.
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
	if avg := testing.AllocsPerRun(200, cycle); avg > 4 {
		t.Fatalf("warm 64 KiB RC write allocates %.0f objects per round trip of %d packets, want <= 4: per-message state, 0 per packet", avg, packets)
	}
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
