package verbs

import (
	"bytes"
	"testing"
	"testing/quick"
	"unsafe"

	"repro/internal/fabric"
	"repro/internal/sim"
	"repro/internal/telemetry"
	"repro/internal/topology"
)

// pair builds a 2-host fabric and one context per host.
func pair(t *testing.T, cfg fabric.Config, vcfg Config) (*sim.Engine, *fabric.Fabric, *Context, *Context) {
	t.Helper()
	eng := sim.NewEngine(1)
	g := topology.BackToBack()
	f := fabric.New(eng, g, cfg)
	hosts := g.Hosts()
	return eng, f, NewContext(f, hosts[0], vcfg), NewContext(f, hosts[1], vcfg)
}

// uplink returns the channel from host h up to its switch.
func uplink(f *fabric.Fabric, h topology.NodeID) fabric.ChannelID {
	for id := fabric.ChannelID(0); ; id++ {
		if from, _ := f.ChannelEnds(id); from == h {
			return id
		}
	}
}

func fill(n int, seed byte) []byte {
	b := make([]byte, n)
	for i := range b {
		b[i] = seed + byte(i*7)
	}
	return b
}

func TestUDSendRecvData(t *testing.T) {
	eng, _, a, b := pair(t, fabric.Config{}, Config{})
	cqA, cqB := &CQ{}, &CQ{}
	qpA := a.NewQP(UD, cqA, cqA, 0)
	qpB := b.NewQP(UD, cqB, cqB, 0)

	src := a.RegisterMRData(fill(1000, 3))
	dst := b.RegisterMRData(make([]byte, 1000))
	if !qpB.PostRecv(7, dst, 0, 1000) {
		t.Fatal("PostRecv failed")
	}
	qpA.PostSendUD(1, Unicast(b.Host, qpB.N), src, 0, 1000, 0xCAFE, true)
	eng.Run()

	e, ok := cqB.Poll()
	if !ok {
		t.Fatal("no receive completion")
	}
	if e.Op != OpRecv || e.Imm != 0xCAFE || e.Bytes != 1000 || e.WrID != 7 {
		t.Fatalf("bad CQE: %+v", e)
	}
	if !bytes.Equal(dst.Data, src.Data) {
		t.Fatal("payload corrupted in flight")
	}
	if se, ok := cqA.Poll(); !ok || se.Op != OpSend || se.WrID != 1 {
		t.Fatalf("bad send completion: %+v ok=%v", se, ok)
	}
}

func TestUDUnsignaledSend(t *testing.T) {
	eng, _, a, b := pair(t, fabric.Config{}, Config{})
	cqA, cqB := &CQ{}, &CQ{}
	qpA := a.NewQP(UD, cqA, cqA, 0)
	qpB := b.NewQP(UD, cqB, cqB, 0)
	mr := a.RegisterMR(512)
	dst := b.RegisterMR(512)
	qpB.PostRecv(0, dst, 0, 512)
	qpA.PostSendUD(0, Unicast(b.Host, qpB.N), mr, 0, 512, 0, false)
	eng.Run()
	if cqA.entries.len() != 0 {
		t.Fatal("unsignaled send produced a CQE")
	}
	if cqB.entries.len() != 1 {
		t.Fatal("receive missing")
	}
}

func TestUDRNRDrop(t *testing.T) {
	eng, _, a, b := pair(t, fabric.Config{}, Config{})
	cqA, cqB := &CQ{}, &CQ{}
	qpA := a.NewQP(UD, cqA, cqA, 0)
	qpB := b.NewQP(UD, cqB, cqB, 0)
	mr := a.RegisterMR(100)
	// No receive posted on B.
	qpA.PostSendUD(0, Unicast(b.Host, qpB.N), mr, 0, 100, 0, false)
	eng.Run()
	if qpB.RNRDrops != 1 || b.RNRDrops != 1 {
		t.Fatalf("RNR drops = %d/%d, want 1/1", qpB.RNRDrops, b.RNRDrops)
	}
	if cqB.entries.len() != 0 {
		t.Fatal("dropped datagram produced a CQE")
	}
}

func TestUDOversizePanics(t *testing.T) {
	_, _, a, b := pair(t, fabric.Config{}, Config{})
	cq := &CQ{}
	qp := a.NewQP(UD, cq, cq, 0)
	mr := a.RegisterMR(4 * 4096)
	defer func() {
		if recover() == nil {
			t.Error("oversized UD send did not panic")
		}
	}()
	qp.PostSendUD(0, Unicast(b.Host, 1), mr, 0, 2*4096, 0, false)
}

func TestUDTruncatesToPostedBuffer(t *testing.T) {
	eng, _, a, b := pair(t, fabric.Config{}, Config{})
	cqA, cqB := &CQ{}, &CQ{}
	qpA := a.NewQP(UD, cqA, cqA, 0)
	qpB := b.NewQP(UD, cqB, cqB, 0)
	src := a.RegisterMRData(fill(100, 1))
	dst := b.RegisterMRData(make([]byte, 40))
	qpB.PostRecv(0, dst, 0, 40)
	qpA.PostSendUD(0, Unicast(b.Host, qpB.N), src, 0, 100, 0, false)
	eng.Run()
	e, _ := cqB.Poll()
	if e.Bytes != 40 {
		t.Fatalf("received %d bytes, want truncation to 40", e.Bytes)
	}
}

func TestRQDepthEnforced(t *testing.T) {
	_, _, a, _ := pair(t, fabric.Config{}, Config{})
	cq := &CQ{}
	qp := a.NewQP(UD, cq, cq, 2)
	mr := a.RegisterMR(64)
	if !qp.PostRecv(0, mr, 0, 64) || !qp.PostRecv(1, mr, 0, 64) {
		t.Fatal("posts under depth failed")
	}
	if qp.PostRecv(2, mr, 0, 64) {
		t.Fatal("post over RQ depth succeeded")
	}
	if qp.rqLen != 2 {
		t.Fatalf("rqLen = %d", qp.rqLen)
	}
}

func TestUDMulticastFanout(t *testing.T) {
	eng := sim.NewEngine(1)
	g := topology.Star(4)
	f := fabric.New(eng, g, fabric.Config{})
	hosts := g.Hosts()
	ctxs := make([]*Context, 4)
	qps := make([]*QP, 4)
	cqs := make([]*CQ, 4)
	for i, h := range hosts {
		ctxs[i] = NewContext(f, h, Config{})
		cqs[i] = &CQ{}
		qps[i] = ctxs[i].NewQP(UD, cqs[i], cqs[i], 0)
	}
	gid, err := f.CreateGroup(g.Switches()[0], hosts)
	if err != nil {
		t.Fatal(err)
	}
	for i := range qps {
		if err := qps[i].AttachMcast(gid); err != nil {
			t.Fatal(err)
		}
	}
	payload := fill(2048, 9)
	src := ctxs[0].RegisterMRData(payload)
	for i := 1; i < 4; i++ {
		dst := ctxs[i].RegisterMRData(make([]byte, 2048))
		qps[i].PostRecv(uint64(i), dst, 0, 2048)
	}
	qps[0].PostSendUD(0, Multicast(gid), src, 0, 2048, 42, false)
	eng.Run()
	for i := 1; i < 4; i++ {
		e, ok := cqs[i].Poll()
		if !ok {
			t.Fatalf("member %d got no datagram", i)
		}
		if e.Imm != 42 || e.Bytes != 2048 {
			t.Fatalf("member %d bad CQE %+v", i, e)
		}
	}
	if cqs[0].entries.len() != 0 {
		t.Fatal("sender received its own multicast")
	}
}

func TestUCWriteWithImm(t *testing.T) {
	eng, _, a, b := pair(t, fabric.Config{}, Config{})
	cqA, cqB := &CQ{}, &CQ{}
	qpA := a.NewQP(UC, cqA, cqA, 0)
	qpB := b.NewQP(UC, cqB, cqB, 0)
	qpA.Connect(Unicast(b.Host, qpB.N))

	src := a.RegisterMRData(fill(20000, 5)) // ~5 MTU segments
	dst := b.RegisterMRData(make([]byte, 32768))
	qpA.PostWriteUC(3, src, 0, 20000, dst.Key, 4096, 0xBEEF, true)
	eng.Run()

	e, ok := cqB.Poll()
	if !ok {
		t.Fatal("no write-imm completion")
	}
	if e.Op != OpRecvWriteImm || e.Imm != 0xBEEF || e.Bytes != 20000 {
		t.Fatalf("bad CQE %+v", e)
	}
	if !bytes.Equal(dst.Data[4096:4096+20000], src.Data) {
		t.Fatal("UC write landed wrong")
	}
	if se, ok := cqA.Poll(); !ok || se.Op != OpSend || se.WrID != 3 {
		t.Fatalf("send completion %+v ok=%v", se, ok)
	}
}

func TestUCMessageDropOnPacketLoss(t *testing.T) {
	// With heavy drops, some multi-packet UC messages must vanish entirely
	// (no CQE) while complete ones still arrive intact, and the exported
	// verbs/uc_msg_dropped counter accounts for every vanished one.
	eng, _, a, b := pair(t, fabric.Config{DropRate: 0.10}, Config{})
	cqA, cqB := &CQ{}, &CQ{}
	qpA := a.NewQP(UC, cqA, cqA, 0)
	qpB := b.NewQP(UC, cqB, cqB, 0)
	qpA.Connect(Unicast(b.Host, qpB.N))
	dst := b.RegisterMR(1 << 20)
	src := a.RegisterMR(64 * 1024)
	const msgs = 200
	for i := 0; i < msgs; i++ {
		qpA.PostWriteUC(uint64(i), src, 0, 64*1024, dst.Key, 0, uint32(i), false)
	}
	eng.Run()
	reg := telemetry.New()
	b.CollectTelemetry(reg)
	dropped := int(reg.Counter("verbs", "uc_msg_dropped", "").Value())
	complete := cqB.entries.len()
	if complete == msgs {
		t.Fatal("no UC message was lost despite 10% drop rate")
	}
	if complete == 0 {
		t.Fatal("every UC message lost; drop model too aggressive")
	}
	if dropped+complete != msgs {
		t.Fatalf("dropped(%d) + complete(%d) != sent(%d)", dropped, complete, msgs)
	}
}

func TestRCWriteReliableUnderDrops(t *testing.T) {
	// Several multi-segment writes at 5% loss: the drops must force
	// retransmissions, and every write must still complete on both sides
	// with its data intact. Completion order is not checked.
	eng, _, a, b := pair(t, fabric.Config{DropRate: 0.05}, Config{})
	cqA, cqB := &CQ{}, &CQ{}
	qpA := a.NewQP(RC, cqA, cqA, 0)
	qpB := b.NewQP(RC, cqB, cqB, 0)
	qpA.Connect(Unicast(b.Host, qpB.N))
	qpB.Connect(Unicast(a.Host, qpA.N))

	const writes, size = 6, 100000
	src := a.RegisterMRData(fill(writes*size, 7))
	dst := b.RegisterMRData(make([]byte, writes*size))
	for i := 0; i < writes; i++ {
		qpA.PostWriteRC(uint64(i), src, i*size, size, dst.Key, i*size, uint32(100+i), true)
	}
	eng.Run()

	sent, landed := map[uint64]bool{}, map[uint32]bool{}
	for e, ok := cqA.Poll(); ok; e, ok = cqA.Poll() {
		if e.Op != OpSend || e.Bytes != size {
			t.Fatalf("sender CQE %+v", e)
		}
		sent[e.WrID] = true
	}
	for e, ok := cqB.Poll(); ok; e, ok = cqB.Poll() {
		if e.Op != OpRecvWriteImm || e.Bytes != size {
			t.Fatalf("receiver CQE %+v", e)
		}
		landed[e.Imm] = true
	}
	for i := 0; i < writes; i++ {
		if !sent[uint64(i)] || !landed[uint32(100+i)] {
			t.Fatalf("write %d: send completion %v, receive completion %v (retransmits=%d)",
				i, sent[uint64(i)], landed[uint32(100+i)], qpA.Retransmits)
		}
	}
	if len(sent) != writes || len(landed) != writes {
		t.Fatalf("%d send and %d receive completions for %d writes", len(sent), len(landed), writes)
	}
	if !bytes.Equal(dst.Data, src.Data) {
		t.Fatal("RC writes delivered corrupt data")
	}
	if qpA.Retransmits == 0 {
		t.Fatal("no retransmission at 5% loss: the reliability path went unexercised")
	}
}

func TestRCReadFetchesRemote(t *testing.T) {
	eng, _, a, b := pair(t, fabric.Config{}, Config{})
	cqA, cqB := &CQ{}, &CQ{}
	qpA := a.NewQP(RC, cqA, cqA, 0)
	qpB := b.NewQP(RC, cqB, cqB, 0)
	qpA.Connect(Unicast(b.Host, qpB.N))
	qpB.Connect(Unicast(a.Host, qpA.N))

	remote := b.RegisterMRData(fill(50000, 13))
	local := a.RegisterMRData(make([]byte, 50000))
	qpA.PostReadRC(9, local, 1000, remote.Key, 2000, 8192)
	eng.Run()

	e, ok := cqA.Poll()
	if !ok || e.Op != OpRead || e.WrID != 9 || e.Bytes != 8192 {
		t.Fatalf("read CQE %+v ok=%v", e, ok)
	}
	if !bytes.Equal(local.Data[1000:1000+8192], remote.Data[2000:2000+8192]) {
		t.Fatal("RDMA read returned wrong bytes")
	}
	if cqB.entries.len() != 0 {
		t.Fatal("responder generated CQEs for a one-sided read")
	}
}

func TestRCReadReliableUnderDrops(t *testing.T) {
	eng, _, a, b := pair(t, fabric.Config{DropRate: 0.08}, Config{})
	cqA, cqB := &CQ{}, &CQ{}
	qpA := a.NewQP(RC, cqA, cqA, 0)
	qpB := b.NewQP(RC, cqB, cqB, 0)
	qpA.Connect(Unicast(b.Host, qpB.N))
	qpB.Connect(Unicast(a.Host, qpA.N))

	remote := b.RegisterMRData(fill(200000, 17))
	local := a.RegisterMRData(make([]byte, 200000))
	const reads = 20
	for i := 0; i < reads; i++ {
		qpA.PostReadRC(uint64(i), local, i*10000, remote.Key, i*10000, 10000)
	}
	eng.Run()
	done := 0
	for {
		e, ok := cqA.Poll()
		if !ok {
			break
		}
		if e.Op == OpErr {
			t.Fatalf("read %d failed terminally", e.WrID)
		}
		if e.Op == OpRead {
			done++
		}
	}
	if done != reads {
		t.Fatalf("completed %d of %d reads under drops", done, reads)
	}
	if !bytes.Equal(local.Data, remote.Data) {
		t.Fatal("reads under drops returned corrupt data")
	}
}

func TestRCSendRecvTwoSided(t *testing.T) {
	eng, _, a, b := pair(t, fabric.Config{}, Config{})
	cqA, cqB := &CQ{}, &CQ{}
	qpA := a.NewQP(RC, cqA, cqA, 0)
	qpB := b.NewQP(RC, cqB, cqB, 0)
	qpA.Connect(Unicast(b.Host, qpB.N))
	qpB.Connect(Unicast(a.Host, qpA.N))

	src := a.RegisterMRData(fill(5000, 23))
	dst := b.RegisterMRData(make([]byte, 5000))
	qpB.PostRecv(11, dst, 0, 5000)
	qpA.PostSendRC(4, src, 0, 5000, 99, true)
	eng.Run()

	re, ok := cqB.Poll()
	if !ok || re.Op != OpRecv || re.Imm != 99 || re.WrID != 11 {
		t.Fatalf("recv CQE %+v ok=%v", re, ok)
	}
	if !bytes.Equal(dst.Data, src.Data) {
		t.Fatal("two-sided RC payload corrupt")
	}
	if se, ok := cqA.Poll(); !ok || se.Op != OpSend || se.WrID != 4 {
		t.Fatalf("send CQE %+v ok=%v", se, ok)
	}
}

func TestRCSendRetriesUntilReceivePosted(t *testing.T) {
	eng, _, a, b := pair(t, fabric.Config{}, Config{})
	cqA, cqB := &CQ{}, &CQ{}
	qpA := a.NewQP(RC, cqA, cqA, 0)
	qpB := b.NewQP(RC, cqB, cqB, 0)
	qpA.Connect(Unicast(b.Host, qpB.N))
	qpB.Connect(Unicast(a.Host, qpA.N))

	src := a.RegisterMR(100)
	dst := b.RegisterMR(100)
	qpA.PostSendRC(0, src, 0, 100, 0, true)
	// Post the receive only after 300 µs of virtual time, past the first
	// 200 µs retransmission.
	eng.AfterHandler(300*sim.Microsecond, call(func() { qpB.PostRecv(0, dst, 0, 100) }), 0, 0, nil)
	eng.Run()
	if cqB.entries.len() != 1 {
		t.Fatalf("late-posted receive never matched (RNR on B: %d)", qpB.RNRDrops)
	}
	if qpA.Retransmits == 0 {
		t.Fatal("sender never retransmitted despite RNR")
	}
	if se, ok := cqA.Poll(); !ok || se.Op != OpSend {
		t.Fatalf("send never completed: %+v", se)
	}
}

func TestRCErrAfterMaxRetries(t *testing.T) {
	eng, f, a, b := pair(t, fabric.Config{}, Config{})
	f.SetDropRate(uplink(f, a.Host), 1)
	cqA := &CQ{}
	qpA := a.NewQP(RC, cqA, cqA, 0)
	qpB := b.NewQP(RC, &CQ{}, &CQ{}, 0)
	qpA.Connect(Unicast(b.Host, qpB.N))
	src := a.RegisterMR(100)
	dst := b.RegisterMR(100)
	qpA.PostWriteRC(0, src, 0, 100, dst.Key, 0, 0, true)
	eng.Run()
	e, ok := cqA.Poll()
	if !ok || e.Op != OpErr {
		t.Fatalf("expected OpErr after retry exhaustion, got %+v ok=%v", e, ok)
	}
	if qpA.Retransmits != maxRetries {
		t.Fatalf("retransmits = %d, want %d", qpA.Retransmits, maxRetries)
	}
}

func TestCQArmedFiresOnce(t *testing.T) {
	cq := &CQ{}
	fires := 0
	cq.Armed = func() { fires++ }
	cq.Push(CQE{})
	cq.Push(CQE{})
	if fires != 1 {
		t.Fatalf("armed handler fired %d times, want 1", fires)
	}
	if cq.entries.len() != 2 {
		t.Fatalf("%d completions queued, want 2", cq.entries.len())
	}
}

func TestMRBoundsEnforced(t *testing.T) {
	mr := &MR{Size: 100}
	for _, c := range []struct{ off, n int }{{-1, 10}, {95, 10}, {101, 0}} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("write(%d,%d) on size-100 MR did not panic", c.off, c.n)
				}
			}()
			mr.write(c.off, nil, c.n)
		}()
	}
}

// TestOutOfRangeWritePanicsAtPost: a write whose source range leaves its
// MR panics when it is posted, before any event is scheduled — also for a
// multi-segment message, whose segments read their bytes only on reaching
// the first switch — and the check materialises no page of a lazy region.
func TestOutOfRangeWritePanicsAtPost(t *testing.T) {
	for _, tc := range []struct {
		name           string
		transport      Transport
		lazy           bool
		offset, length int
	}{
		{"UC one segment past the end", UC, false, 1, 1 << 20},
		{"UC ragged tail", UC, false, 1<<20 - 100, 101},
		{"RC one segment past the end", RC, false, 1, 1 << 20},
		{"RC negative offset", RC, false, -1, 8192},
		{"UC lazy", UC, true, 4096, 1 << 20},
		{"RC lazy", RC, true, 0, 1<<20 + 1},
	} {
		t.Run(tc.name, func(t *testing.T) {
			eng, _, a, b := pair(t, fabric.Config{}, Config{})
			cq := &CQ{}
			qpA, qpB := a.NewQP(tc.transport, cq, cq, 0), b.NewQP(tc.transport, cq, cq, 0)
			qpA.Connect(Unicast(b.Host, qpB.N))
			src := a.RegisterMR(1 << 20)
			if tc.lazy {
				src = a.RegisterMRLazy(1 << 20)
			}
			dst := b.RegisterMR(2 << 20)
			defer func() {
				if recover() == nil {
					t.Fatal("out-of-range post did not panic")
				}
				if eng.Scheduled != 0 || eng.Pending() != 0 {
					t.Fatalf("the post scheduled %d events before panicking", eng.Scheduled)
				}
				if src.Pages() != 0 {
					t.Fatalf("the bounds check materialised %d lazy pages", src.Pages())
				}
			}()
			if tc.transport == UC {
				qpA.PostWriteUC(1, src, tc.offset, tc.length, dst.Key, 0, 0, true)
			} else {
				qpA.PostWriteRC(1, src, tc.offset, tc.length, dst.Key, 0, 0, true)
			}
		})
	}
}

// TestLazyMRRelease: a lazy region materialises a page on first touch and
// drops it on Release; the next touch starts from zeroed memory.
func TestLazyMRRelease(t *testing.T) {
	_, _, a, _ := pair(t, fabric.Config{}, Config{})
	mr := a.RegisterMRLazy(2 * lazyPage)
	copy(mr.Slice(lazyPage+10, 3), "abc")
	if mr.Pages() != 1 || string(mr.Slice(lazyPage+10, 3)) != "abc" {
		t.Fatalf("after one write: %d pages, bytes %q", mr.Pages(), mr.Slice(lazyPage+10, 3))
	}
	mr.Release(lazyPage + 100)
	if mr.Pages() != 0 {
		t.Fatalf("Release left %d pages", mr.Pages())
	}
	if got := mr.Slice(lazyPage+10, 3); !bytes.Equal(got, make([]byte, 3)) {
		t.Fatalf("a released page came back holding %q", got)
	}
}

// TestSegmentDataFollowsRegion sends a 3-segment RC write from each kind
// of region. A region registered without bytes sends segments that carry
// none (sendMessage drops the region from the message, so Segment does not
// read it), and the target's bytes stay zero; a region with bytes and a
// lazy one deliver theirs, segment by segment.
func TestSegmentDataFollowsRegion(t *testing.T) {
	for _, tc := range []struct {
		name  string
		bytes bool // whether the region holds bytes to deliver
		reg   func(ctx *Context, src []byte) *MR
	}{
		{"RegisterMR", false, func(ctx *Context, src []byte) *MR { return ctx.RegisterMR(len(src)) }},
		{"RegisterMRData", true, func(ctx *Context, src []byte) *MR { return ctx.RegisterMRData(src) }},
		{"RegisterMRLazy", true, func(ctx *Context, src []byte) *MR {
			mr := ctx.RegisterMRLazy(len(src))
			for off := 0; off < len(src); off += lazyPage {
				n := min(lazyPage, len(src)-off)
				copy(mr.Slice(off, n), src[off:off+n])
			}
			return mr
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			eng, _, a, b := pair(t, fabric.Config{}, Config{})
			cqA, cqB := &CQ{}, &CQ{}
			qpA := a.NewQP(RC, cqA, cqA, 0)
			qpB := b.NewQP(RC, cqB, cqB, 0)
			qpA.Connect(Unicast(b.Host, qpB.N))
			qpB.Connect(Unicast(a.Host, qpA.N))
			size := 3*a.MTU() - 100
			src := fill(size, 9)
			mr := tc.reg(a, src)
			dst := b.RegisterMRData(make([]byte, size))

			var segs []wireMsg
			deliver := b.nic.Deliver
			b.nic.Deliver = func(p *fabric.Packet) {
				if m := p.Payload.(*wireMsg); m.op == wireWrite {
					c := *m
					c.data = bytes.Clone(m.data)
					segs = append(segs, c)
				}
				deliver(p)
			}
			qpA.PostWriteRC(1, mr, 0, size, dst.Key, 0, 7, true)
			eng.Run()

			if len(segs) != 3 {
				t.Fatalf("%d write segments delivered, want 3", len(segs))
			}
			for _, m := range segs {
				off := m.seg * a.MTU()
				switch want := src[off : off+m.dataLen]; {
				case !tc.bytes && m.data != nil:
					t.Fatalf("segment %d of a region without bytes carries %d bytes", m.seg, len(m.data))
				case tc.bytes && !bytes.Equal(m.data, want):
					t.Fatalf("segment %d carries %d bytes, not the region's %d at offset %d", m.seg, len(m.data), len(want), off)
				}
			}
			want := src
			if !tc.bytes {
				want = make([]byte, size)
			}
			if !bytes.Equal(dst.Data, want) {
				t.Fatal("the target region does not hold what the write carried")
			}
		})
	}
}

func TestConnectValidation(t *testing.T) {
	_, f, a, b := pair(t, fabric.Config{}, Config{})
	cq := &CQ{}
	ud := a.NewQP(UD, cq, cq, 0)
	func() {
		defer func() {
			if recover() == nil {
				t.Error("Connect on UD QP did not panic")
			}
		}()
		ud.Connect(Unicast(b.Host, 1))
	}()
	rc := a.NewQP(RC, cq, cq, 0)
	func() {
		defer func() {
			if recover() == nil {
				t.Error("multicast Connect on RC QP did not panic")
			}
		}()
		rc.Connect(Multicast(0))
	}()
	uc := a.NewQP(UC, cq, cq, 0)
	func() {
		defer func() {
			if recover() == nil {
				t.Error("multicast Connect on UC QP did not panic")
			}
		}()
		uc.Connect(Multicast(0))
	}()
	// Only UD carries multicast: the same group a UD QP joins is refused
	// to the connected transports.
	gid, err := f.CreateGroup(f.Graph().Switches()[0], []topology.NodeID{a.Host, b.Host})
	if err != nil {
		t.Fatal(err)
	}
	if err := ud.AttachMcast(gid); err != nil {
		t.Fatalf("AttachMcast on UD QP: %v", err)
	}
	for _, qp := range []*QP{rc, uc} {
		if err := qp.AttachMcast(gid); err == nil {
			t.Errorf("AttachMcast on %v QP succeeded", qp.Transport)
		}
	}
}

func TestUnconnectedOpsPanic(t *testing.T) {
	_, _, a, _ := pair(t, fabric.Config{}, Config{})
	cq := &CQ{}
	uc := a.NewQP(UC, cq, cq, 0)
	mr := a.RegisterMR(10)
	defer func() {
		if recover() == nil {
			t.Error("UC write without Connect did not panic")
		}
	}()
	uc.PostWriteUC(0, mr, 0, 10, 1, 0, 0, false)
}

func TestDMAEngineOrderingAndLatency(t *testing.T) {
	eng := sim.NewEngine(1)
	d := newDMAEngine(eng, 32e9, 1500*sim.Nanosecond)
	// Two back-to-back 32 KB copies: first completes at 32768/32e9 s + 1.5µs
	// = 1024ns + 1500ns; second serializes behind the first's bandwidth slot.
	done := []sim.Time{d.Book(32768), d.Book(32768)}
	if eng.Pending() != 0 {
		t.Fatalf("booking queued %d events", eng.Pending())
	}
	if done[0] != 2524 {
		t.Fatalf("first copy at %v, want 2524ns", done[0])
	}
	if done[1] != 3548 {
		t.Fatalf("second copy at %v, want 3548ns", done[1])
	}
}

func TestDMAQuiesced(t *testing.T) {
	eng := sim.NewEngine(1)
	d := newDMAEngine(eng, 1e9, sim.Microsecond)
	if d.Quiesced() != 0 {
		t.Fatalf("idle Quiesced = %v", d.Quiesced())
	}
	d.Book(1000) // 1000ns serialize + 1000ns latency
	if q := d.Quiesced(); q != 2000 {
		t.Fatalf("Quiesced = %v, want 2000", q)
	}
}

// Property: any UD datagram that is neither dropped by the fabric nor RNR
// must arrive with its immediate intact and bytes equal to min(sent, posted).
func TestPropertyUDImmediateIntegrity(t *testing.T) {
	f := func(imms []uint32) bool {
		eng := sim.NewEngine(99)
		g := topology.BackToBack()
		fb := fabric.New(eng, g, fabric.Config{})
		hosts := g.Hosts()
		a, b := NewContext(fb, hosts[0], Config{}), NewContext(fb, hosts[1], Config{})
		cqB := &CQ{}
		qpA := a.NewQP(UD, &CQ{}, &CQ{}, 0)
		qpB := b.NewQP(UD, cqB, cqB, 0)
		mr := a.RegisterMR(4096)
		dst := b.RegisterMR(1 << 20)
		for range imms {
			qpB.PostRecv(0, dst, 0, 4096)
		}
		for _, imm := range imms {
			qpA.PostSendUD(0, Unicast(b.Host, qpB.N), mr, 0, 4096, imm, false)
		}
		eng.Run()
		for _, want := range imms {
			e, ok := cqB.Poll()
			if !ok || e.Imm != want {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

func TestRCNoDuplicateDeliveryWhenAckRacesRTO(t *testing.T) {
	// A retransmission of an already-delivered message (its ack still in
	// flight or lost) must be re-acked, never re-delivered: duplicated
	// write-imm CQEs would corrupt chunk accounting in the protocols.
	// 400 µs of extra latency on the receiver's uplink: the ack cannot
	// return before the retransmission timer (200 µs base + 2x transfer
	// time) fires.
	eng, f, a, b := pair(t, fabric.Config{}, Config{})
	f.SetExtraLatency(uplink(f, b.Host), 400*sim.Microsecond)
	cqA, cqB := &CQ{}, &CQ{}
	qpA := a.NewQP(RC, cqA, cqA, 0)
	qpB := b.NewQP(RC, cqB, cqB, 0)
	qpA.Connect(Unicast(b.Host, qpB.N))
	qpB.Connect(Unicast(a.Host, qpA.N))
	src := a.RegisterMR(1 << 20)
	dst := b.RegisterMR(1 << 20)
	qpA.PostWriteRC(1, src, 0, 1<<20, dst.Key, 0, 7, true)
	eng.Run()
	if qpA.Retransmits == 0 {
		t.Fatal("test premise broken: no retransmissions with the ack held past the RTO")
	}
	recvs := 0
	for {
		e, ok := cqB.Poll()
		if !ok {
			break
		}
		if e.Op == OpRecvWriteImm {
			recvs++
		}
	}
	if recvs != 1 {
		t.Fatalf("message delivered %d times, want exactly once (retransmits=%d)", recvs, qpA.Retransmits)
	}
	sends := 0
	for {
		e, ok := cqA.Poll()
		if !ok {
			break
		}
		if e.Op == OpSend {
			sends++
		}
		if e.Op == OpErr {
			t.Fatal("write errored out")
		}
	}
	if sends != 1 {
		t.Fatalf("send completed %d times, want once", sends)
	}
}

func TestPostSendReduceAggregates(t *testing.T) {
	// Verbs-level in-network reduction: P contributions with the same
	// chunk id produce exactly one UD delivery at the destination QP.
	eng := sim.NewEngine(1)
	g := topology.Star(3)
	f := fabric.New(eng, g, fabric.Config{})
	hosts := g.Hosts()
	var ctxs []*Context
	var qps []*QP
	cqs := make([]*CQ, 3)
	for i, h := range hosts {
		ctx := NewContext(f, h, Config{})
		cqs[i] = &CQ{}
		ctxs = append(ctxs, ctx)
		qps = append(qps, ctx.NewQP(UD, cqs[i], cqs[i], 0))
	}
	rg, err := f.CreateReduceGroup(g.Switches()[0], hosts)
	if err != nil {
		t.Fatal(err)
	}
	dst := ctxs[0].RegisterMR(4096)
	qps[0].PostRecv(0, dst, 0, 4096)
	for i, qp := range qps {
		mr := ctxs[i].RegisterMR(4096)
		qp.PostSendReduce(0, Unicast(hosts[0], qps[0].N), rg, 42, mr, 0, 4096, 7, false)
	}
	eng.Run()
	if cqs[0].entries.len() != 1 {
		t.Fatalf("owner received %d completions, want 1 reduced datagram", cqs[0].entries.len())
	}
	e, _ := cqs[0].Poll()
	if e.Op != OpRecv || e.Imm != 7 {
		t.Fatalf("bad reduced CQE: %+v", e)
	}
}

// TestWireMsgLayout pins the wire header's size on 64-bit hosts: every
// pooled packet carries one, and the RC sequence number rides in what was
// padding after the QPNs. It also keeps a QP within the allocator's
// 240-byte size class: one more word would put every QP in the 256-byte one.
func TestWireMsgLayout(t *testing.T) {
	if unsafe.Sizeof(uintptr(0)) != 8 {
		t.Skip("sizes pinned for 64-bit hosts")
	}
	if got := unsafe.Sizeof(wireMsg{}); got != 104 {
		t.Fatalf("wireMsg is %d bytes, want 104", got)
	}
	if got := unsafe.Sizeof(QP{}); got > 240 {
		t.Fatalf("QP is %d bytes, want at most 240", got)
	}
}
