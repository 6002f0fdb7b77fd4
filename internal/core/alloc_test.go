package core

import (
	"bytes"
	"runtime"
	"strings"
	"testing"

	"repro/internal/fabric"
	"repro/internal/sim"
	"repro/internal/verbs"
)

// TestWarmAllgatherAllocsPerEvent gates the steady state of a warm 16-rank
// multicast Allgather: datagrams come from the fabric's packet pool and RC
// control messages recycle their per-message state, and each rank resets
// one op state in place, so what still allocates is a few objects per
// operation — under one object per 4 000 fired events. With slice-backed
// RQ/CQs and a closure per received chunk this shape read 0.34; with a
// fresh packet per multicast send, 0.041; with a fresh op state, closure
// and bitmap per rank and operation, 0.0005.
func TestWarmAllgatherAllocsPerEvent(t *testing.T) {
	eng, _, comm := buildComm(t, 16, fabric.Config{}, Config{Transport: verbs.UD})
	const n = 1 << 20
	if _, err := runAllgather(comm, n); err != nil { // warm: pools, rings, buckets
		t.Fatal(err)
	}
	var before, after runtime.MemStats
	fired := eng.Executed
	runtime.ReadMemStats(&before)
	if _, err := runAllgather(comm, n); err != nil {
		t.Fatal(err)
	}
	runtime.ReadMemStats(&after)
	fired = eng.Executed - fired
	perEvent := float64(after.Mallocs-before.Mallocs) / float64(fired)
	t.Logf("%d objects over %d events = %.5f per event", after.Mallocs-before.Mallocs, fired, perEvent)
	if perEvent > 0.00025 {
		t.Fatalf("warm allgather allocates %.5f objects per fired event, want <= 0.00025", perEvent)
	}
}

// TestCommunicatorBuildBytes gates construction: a 32-host multicast
// communicator has ~290 control QPs whose 256 KiB slot regions used to be
// allocated and zeroed up front (~85 MiB). Registered lazily, with each
// control RQ's 64 pre-posted slots one run and no QP map made before its
// first write, the whole build reads 0.4 MiB; the gate leaves 2.5x
// headroom.
func TestCommunicatorBuildBytes(t *testing.T) {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	buildComm(t, 32, fabric.Config{}, Config{Transport: verbs.UD})
	runtime.ReadMemStats(&after)
	built := after.TotalAlloc - before.TotalAlloc
	t.Logf("fabric + 32-rank communicator: %.1f MiB allocated", float64(built)/(1<<20))
	if built > 1<<20 {
		t.Fatalf("building a 32-host communicator allocated %.1f MiB, want <= 1 MiB", float64(built)/(1<<20))
	}
}

// materialised counts the control-slot pages of a communicator that hold
// real bytes.
func materialised(c *Communicator) (send, recv int) {
	for _, r := range c.ranks {
		send += r.sendSlot.Pages()
		for _, mr := range r.slotMRs {
			recv += mr.Pages()
		}
	}
	return send, recv
}

// TestLazyCtrlSlotsCarryPayloads checks the lazily registered control slots
// from both ends under a lossy fabric. A fetch request injected during a
// barrier (which defers it, payload attached, because a barrier owns no
// chunk) must arrive byte-exact through a sender page and a receiver page
// that did not exist until it was sent — exactly one 4 KiB page each; a
// slot access that straddles two pages is a bug and panics; and a real
// recovery — requests and acks both ways, repaired buffers verified — must
// leave the slots of the dissemination-only peers without a page.
func TestLazyCtrlSlotsCarryPayloads(t *testing.T) {
	lossy := fabric.Config{DropRate: 0.05}
	ccfg := Config{Transport: verbs.UD, VerifyData: true, CutoffAlpha: 50 * sim.Microsecond}

	eng, _, comm := buildComm(t, 8, lossy, ccfg)
	if s, r := materialised(comm); s != 0 || r != 0 {
		t.Fatalf("fresh communicator has %d send / %d receive slot pages materialised, want none", s, r)
	}
	done := false
	if err := comm.StartBarrier(func(*Result) { done = true }); err != nil {
		t.Fatal(err)
	}
	want := marshalRanges([][2]int{{3, 9}, {70000, 70001}, {1 << 20, 1<<20 + 17}})
	comm.Rank(0).sendCtrl(1, ctrlFetchReq, 0, want)
	eng.Run()
	if !done {
		t.Fatal("barrier did not complete")
	}
	got := comm.Rank(1).op.deferredReq
	if len(got) != 1 || got[0].from != 0 || !bytes.Equal(got[0].payload, want) {
		t.Fatalf("deferred fetch request = %+v, want one from rank 0 carrying % x", got, want)
	}
	if s, r := materialised(comm); s != 1 || r != 1 {
		t.Fatalf("one payload materialised %d send / %d receive slot pages, want 1 / 1", s, r)
	}
	func() {
		defer func() {
			if msg, _ := recover().(string); !strings.Contains(msg, "straddles") {
				t.Errorf("a slot access straddling two pages panicked with %q, want the straddle check", msg)
			}
		}()
		comm.Rank(0).sendSlot.Slice(ctrlSlotBytes-8, 16)
	}()

	_, _, comm = buildComm(t, 8, lossy, ccfg)
	res, err := runAllgather(comm, 100000)
	if err != nil {
		t.Fatal(err)
	}
	if err := comm.VerifyLast(); err != nil {
		t.Fatal(err)
	}
	if res.MaxRecovered() == 0 {
		t.Fatal("no chunk was recovered at 5% drops: the slow path never carried a payload")
	}
	for _, r := range comm.ranks {
		for peer, qp := range r.ctrl {
			if peer != r.left() && peer != r.right() && r.slotMRs[qp.N].Pages() != 0 {
				t.Fatalf("rank %d materialised the slots of dissemination-only peer %d", r.id, peer)
			}
		}
	}
}
