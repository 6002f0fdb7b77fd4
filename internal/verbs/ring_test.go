package verbs

import (
	"testing"

	"repro/internal/fabric"
	"repro/internal/sim"
)

// TestRingMatchesSliceModel drives the ring and a plain slice through the
// same random push/pop interleavings. Bursts longer than the capacity force
// growth while head sits mid-buffer; drains force wrap-around; and after
// every step the buffer must hold exactly len() non-nil slots — pop zeroes
// what it hands out, so a drained queue retains nothing.
func TestRingMatchesSliceModel(t *testing.T) {
	for seed := uint64(1); seed <= 20; seed++ {
		rng := sim.NewRNG(seed)
		var r ring[*int]
		var model []*int
		grewOffHead := false
		for step := 0; step < 4000; step++ {
			// Alternate push-heavy and pop-heavy phases so the depth swings.
			pushBias := 3
			if step/500%2 == 1 {
				pushBias = 1
			}
			if rng.Intn(4) < pushBias {
				v := new(int)
				*v = step
				if r.n == len(r.buf) && r.head != 0 {
					grewOffHead = true
				}
				r.push(v)
				model = append(model, v)
			} else if len(model) > 0 {
				if got := r.pop(); got != model[0] {
					t.Fatalf("seed %d step %d: pop = %d, model says %d", seed, step, *got, *model[0])
				}
				model = model[1:]
			}
			if r.len() != len(model) {
				t.Fatalf("seed %d step %d: len = %d, model %d", seed, step, r.len(), len(model))
			}
			if c := len(r.buf); c&(c-1) != 0 {
				t.Fatalf("seed %d step %d: capacity %d is not a power of two", seed, step, c)
			}
			held := 0
			for _, p := range r.buf {
				if p != nil {
					held++
				}
			}
			if held != r.len() {
				t.Fatalf("seed %d step %d: buffer retains %d pointers for %d queued", seed, step, held, r.len())
			}
		}
		for len(model) > 0 {
			if got := r.pop(); got != model[0] {
				t.Fatalf("seed %d drain: pop = %d, model says %d", seed, *got, *model[0])
			}
			model = model[1:]
		}
		if !grewOffHead {
			t.Fatalf("seed %d never grew with head != 0; the schedule lost its teeth", seed)
		}
	}
}

// TestRQAndCQSemanticsOverRing pins what the queues promised before they
// were rings, at depths that are not the ring's power-of-two capacity
// (rxbench posts perConn+16): PostRecv refuses at exactly the depth — also
// after the ring has wrapped — a datagram into an empty RQ is an RNR drop,
// and an armed CQ fires once however many completions follow.
func TestRQAndCQSemanticsOverRing(t *testing.T) {
	for _, depth := range []int{1, 3, 8, 24, 100, 1040} {
		eng, _, a, b := pair(t, fabric.Config{}, Config{})
		cqA, cqB := &CQ{}, &CQ{}
		qpA := a.NewQP(UD, cqA, cqA, 0)
		qpB := b.NewQP(UD, cqB, cqB, depth)
		src, dst := a.RegisterMR(64), b.RegisterMR(64)
		fires := 0
		cqB.Armed = func() { fires++ }

		fillTo := func(when string) {
			t.Helper()
			for qpB.RQLen() < depth {
				if !qpB.PostRecv(uint64(qpB.RQLen()), dst, 0, 64) {
					t.Fatalf("depth %d %s: PostRecv refused at RQLen %d", depth, when, qpB.RQLen())
				}
			}
			if qpB.PostRecv(0, dst, 0, 64) || qpB.RQLen() != depth {
				t.Fatalf("depth %d %s: post beyond the depth accepted (RQLen %d)", depth, when, qpB.RQLen())
			}
		}
		fillTo("fresh")
		// Consume a little over half, refill: head is now mid-buffer.
		half := depth/2 + 1
		for i := 0; i < half; i++ {
			qpA.PostSendUD(0, Unicast(b.Host, qpB.N), src, 0, 64, uint32(i), false)
		}
		eng.Run()
		if qpB.RQLen() != depth-half || cqB.Len() != half {
			t.Fatalf("depth %d: RQLen %d CQ %d after %d datagrams", depth, qpB.RQLen(), cqB.Len(), half)
		}
		fillTo("wrapped")
		// Drain everything plus one: FIFO completions, then an RNR drop.
		for i := 0; i < depth+1; i++ {
			qpA.PostSendUD(0, Unicast(b.Host, qpB.N), src, 0, 64, uint32(half+i), false)
		}
		eng.Run()
		if qpB.RNRDrops != 1 || b.RNRDrops != 1 || qpB.RQLen() != 0 {
			t.Fatalf("depth %d: RNR drops %d/%d RQLen %d, want 1/1 and empty", depth, qpB.RNRDrops, b.RNRDrops, qpB.RQLen())
		}
		for i := 0; i < half+depth; i++ {
			if e, ok := cqB.Poll(); !ok || e.Imm != uint32(i) {
				t.Fatalf("depth %d: completion %d = %+v ok=%v", depth, i, e, ok)
			}
		}
		if _, ok := cqB.Poll(); ok || cqB.Len() != 0 {
			t.Fatalf("depth %d: CQ not empty after draining", depth)
		}
		if fires != 1 || cqB.Armed != nil {
			t.Fatalf("depth %d: armed handler fired %d times, want once and cleared", depth, fires)
		}
	}
}

// TestRunEncodedRQMatchesSliceModel drives a receive queue and a plain
// []recvWQE through the same random mix of posts — back-to-back staging
// slots whose index wraps, identical re-posts, gaps, another MR, another
// length, an offset off the step — interleaved with receives. Every receive must hand out the WQE
// the model pops (and be an RNR drop when the model is empty), RQLen must
// track the model, and a post must be refused exactly at the depth.
func TestRunEncodedRQMatchesSliceModel(t *testing.T) {
	const slots, chunk = 37, 512
	for seed := uint64(1); seed <= 20; seed++ {
		rng := sim.NewRNG(seed)
		_, _, a, _ := pair(t, fabric.Config{}, Config{})
		depth := 2 + rng.Intn(200)
		cq := &CQ{}
		qp := a.NewQP(UD, cq, cq, depth)
		mrs := []*MR{a.RegisterMR((slots + 1) * chunk), a.RegisterMR((slots + 1) * chunk)}
		var model []recvWQE
		var drops uint64
		next, merged := 0, false
		for step := 0; step < 5000; step++ {
			// Alternate post-heavy and receive-heavy phases so the queue both
			// fills to its depth and drains to empty.
			recvBias := 3
			if step/500%2 == 1 {
				recvBias = 7
			}
			k := rng.Intn(10)
			if k < recvBias && len(model) == 0 {
				qp.receiveUD(Addr{}, &wireMsg{})
				if drops++; qp.RNRDrops != drops || cq.Len() != 0 {
					t.Fatalf("seed %d step %d: RNR drops %d CQ %d, want %d and empty", seed, step, qp.RNRDrops, cq.Len(), drops)
				}
			} else if k < recvBias {
				if w, ok := qp.popRecv(); !ok || w != model[0] {
					t.Fatalf("seed %d step %d: popped %+v ok=%v, model says %+v", seed, step, w, ok, model[0])
				}
				model = model[1:]
			} else {
				if k == 7 { // a gap: skip a slot
					next = (next + 1) % slots
				}
				w := recvWQE{wrID: uint64(next), mr: mrs[0], offset: next * chunk, length: chunk}
				switch k {
				case 8: // an identical re-post
					w.wrID, w.offset = 0, 0
				case 9: // another MR, another length, or the offset off the step
					w.mr, w.length = mrs[rng.Intn(2)], chunk/(1+rng.Intn(2))
					w.offset += chunk / 2 * rng.Intn(2)
				}
				if k != 8 { // the slot index wraps
					next = (next + 1) % slots
				}
				ok := qp.PostRecv(w.wrID, w.mr, w.offset, w.length)
				if ok != (len(model) < depth) {
					t.Fatalf("seed %d step %d: PostRecv = %v at RQLen %d, depth %d", seed, step, ok, len(model), depth)
				}
				if ok {
					model = append(model, w)
				}
			}
			if qp.RQLen() != len(model) {
				t.Fatalf("seed %d step %d: RQLen %d, model %d", seed, step, qp.RQLen(), len(model))
			}
			merged = merged || qp.rq.len() < qp.RQLen()
		}
		for len(model) > 0 {
			w, ok := qp.popRecv()
			if !ok || w != model[0] {
				t.Fatalf("seed %d drain: popped %+v ok=%v, model says %+v", seed, w, ok, model[0])
			}
			model = model[1:]
		}
		if qp.rq.len() != 0 || qp.RQLen() != 0 {
			t.Fatalf("seed %d: drained queue holds %d runs, RQLen %d", seed, qp.rq.len(), qp.RQLen())
		}
		if !merged {
			t.Fatalf("seed %d: no run ever held two WQEs; the schedule lost its teeth", seed)
		}
	}
}

// TestStagingRQStaysTwoRuns gates the representation: an RQ primed with
// 8192 back-to-back staging slots and cycled 10 000 times — consume the
// oldest, re-post its slot — never holds more than two runs.
func TestStagingRQStaysTwoRuns(t *testing.T) {
	const depth, chunk = 8192, 4096
	_, _, a, _ := pair(t, fabric.Config{}, Config{})
	cq := &CQ{}
	qp := a.NewQP(UD, cq, cq, depth)
	staging := a.RegisterMR(depth * chunk)
	for slot := 0; qp.PostRecv(uint64(slot), staging, slot*chunk, chunk); slot++ {
	}
	for i := 0; i < 10000; i++ {
		w, ok := qp.popRecv()
		if !ok || w.wrID != uint64(i%depth) || w.offset != int(w.wrID)*chunk {
			t.Fatalf("cycle %d: popped %+v ok=%v", i, w, ok)
		}
		qp.PostRecv(w.wrID, staging, w.offset, chunk)
		if qp.rq.len() > 2 || qp.RQLen() != depth {
			t.Fatalf("cycle %d: %d runs for %d posted receives, want <= 2 runs at depth %d", i, qp.rq.len(), qp.RQLen(), depth)
		}
	}
}

// TestRecvCycleAllocFree gates the receive path's steady state: consuming a
// posted receive, completing it, polling the completion and re-posting the
// slot allocates nothing once the rings have reached their depth.
func TestRecvCycleAllocFree(t *testing.T) {
	_, _, a, _ := pair(t, fabric.Config{}, Config{})
	cq := &CQ{}
	qp := a.NewQP(UD, cq, cq, 0)
	mr := a.RegisterMR(64)
	for i := 0; i < 100; i++ {
		qp.PostRecv(uint64(i), mr, 0, 64)
	}
	cycle := func() {
		for i := 0; i < 1000; i++ {
			w, _ := qp.popRecv()
			cq.Push(CQE{Op: OpRecv, WrID: w.wrID})
			e, _ := cq.Poll()
			qp.PostRecv(e.WrID, mr, 0, 64)
		}
	}
	cycle()
	if avg := testing.AllocsPerRun(20, cycle); avg != 0 {
		t.Fatalf("warm receive cycle allocates: %.2f allocs per 1000 datagrams, want 0", avg)
	}
}
