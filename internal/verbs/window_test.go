package verbs

import (
	"bytes"
	"fmt"
	"slices"
	"testing"

	"repro/internal/fabric"
	"repro/internal/sim"
)

// rcArrival is one write segment as it reaches the receiving QP.
type rcArrival struct {
	msg, seg int
}

// rcRefMsg is one write of TestRCReceiveMatchesBitmapReference.
type rcRefMsg struct {
	nsegs, last int // segment count and the last segment's bytes
	imm         uint32
}

// rcReference is the RC receive window as a bitmap per message: the model
// the in-order cursor must match. A segment of a delivered message is
// re-acked; any other segment not seen before lands, and the one that
// completes its message's bitmap delivers it, with the bytes of every
// segment, and acks it.
type rcReference struct {
	got       [][]bool
	have      []int
	bytes     []int
	delivered []bool
	cqes      []CQE
	acks      []uint64 // message ids, in the order they are acked
}

func (r *rcReference) arrive(msgs []rcRefMsg, a rcArrival, mtu int) {
	m := msgs[a.msg]
	if r.delivered[a.msg] {
		r.acks = append(r.acks, uint64(a.msg+1))
		return
	}
	if r.got[a.msg][a.seg] {
		return
	}
	r.got[a.msg][a.seg] = true
	r.have[a.msg]++
	r.bytes[a.msg] += segLen(m, a.seg, mtu)
	if r.have[a.msg] == m.nsegs {
		r.delivered[a.msg] = true
		r.cqes = append(r.cqes, CQE{Op: OpRecvWriteImm, Imm: m.imm, Bytes: r.bytes[a.msg]})
		r.acks = append(r.acks, uint64(a.msg+1))
	}
}

// segLen is the payload of segment s of m: an MTU, the last one the rest.
func segLen(m rcRefMsg, s, mtu int) int {
	if s == m.nsegs-1 {
		return m.last
	}
	return mtu
}

// rcArrivals builds one seed's arrival order for msgs: a first pass in which
// each segment may be lost or duplicated, at rates drawn per seed, a message
// that lost one may be retransmitted whole at once, and the stream is
// shuffled within a sliding reach (in order for some seeds, far out of order
// for others), a go-back-N retransmission of every message still missing a
// segment, lossy again, and a last lossless retransmission of
// everything, whose segments of delivered messages must only be re-acked.
func rcArrivals(rng *sim.RNG, msgs []rcRefMsg) []rcArrival {
	var out []rcArrival
	lost := make([]bool, len(msgs))
	loss, dup := []int{0, 64, 24, 8}[rng.Intn(4)], []int{0, 10}[rng.Intn(2)] // one in loss, one in dup; 0 for none
	pass := func(which func(int) bool, lossy bool) {
		start := len(out)
		for k, m := range msgs {
			if !which(k) {
				continue
			}
			for s := range m.nsegs {
				if lossy && loss > 0 && rng.Intn(loss) == 0 {
					lost[k] = true
					continue
				}
				out = append(out, rcArrival{k, s})
				if dup > 0 && rng.Intn(dup) == 0 {
					out = append(out, rcArrival{k, s})
				}
			}
			if lost[k] && rng.Intn(4) > 0 { // retransmitted at once, before the next message
				lost[k] = false
				for s := range m.nsegs {
					out = append(out, rcArrival{k, s})
				}
			}
		}
		if reach := []int{0, 0, 2, 6, 40}[rng.Intn(5)]; reach > 0 {
			seg := out[start:]
			for i := range seg {
				j := min(len(seg)-1, i+rng.Intn(reach+1))
				seg[i], seg[j] = seg[j], seg[i]
			}
		}
	}
	pass(func(int) bool { return true }, true)
	again := slices.Clone(lost)
	clear(lost)
	pass(func(k int) bool { return again[k] }, true)
	pass(func(int) bool { return true }, false)
	return out
}

// TestRCReceiveMatchesBitmapReference drives one RC QP with writes of one
// to eight segments whose segments arrive shuffled, duplicated, and lost
// then retransmitted, over 20 seeds. The in-order cursor, its move into
// assembly state past a gap, and the window's slots must produce the
// completions (order, bytes, immediate), the acks and the landed bytes of
// the per-message bitmap reference.
func TestRCReceiveMatchesBitmapReference(t *testing.T) {
	var byCursor, gaps int // writes the cursor completed; segments past a gap after an in-order prefix
	for seed := uint64(1); seed <= 20; seed++ {
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			eng, _, a, b := pair(t, fabric.Config{}, Config{})
			mtu := a.MTU()
			rng := sim.NewRNG(seed)
			msgs := make([]rcRefMsg, 64)
			for k := range msgs {
				msgs[k] = rcRefMsg{nsegs: 1 + rng.Intn(8), last: 1 + rng.Intn(mtu), imm: uint32(1000*seed) + uint32(k)}
			}
			cqA, cqB := &CQ{}, &CQ{}
			qpA := a.NewQP(RC, cqA, cqA, 0)
			qpB := b.NewQP(RC, cqB, cqB, 0)
			qpA.Connect(Unicast(b.Host, qpB.N))
			qpB.Connect(Unicast(a.Host, qpA.N))
			region := 8 * mtu
			src := fill(len(msgs)*region, byte(seed))
			dst := b.RegisterMRData(make([]byte, len(src)))
			b.RegisterMR(1) // a second region: the cached rkey must not stick to the last one registered

			var acks []uint64
			deliver := a.nic.Deliver
			a.nic.Deliver = func(p *fabric.Packet) {
				if m := p.Payload.(*wireMsg); m.op == wireAck {
					acks = append(acks, m.msgID)
				}
				deliver(p)
			}
			ref := rcReference{
				got: make([][]bool, len(msgs)), have: make([]int, len(msgs)),
				bytes: make([]int, len(msgs)), delivered: make([]bool, len(msgs)),
			}
			for k, m := range msgs {
				ref.got[k] = make([]bool, m.nsegs)
			}
			pkt := &fabric.Packet{Src: a.Host}
			arrivals := rcArrivals(rng, msgs)
			for _, ar := range arrivals {
				m := msgs[ar.msg]
				off, n := ar.msg*region+ar.seg*mtu, segLen(m, ar.seg, mtu)
				w := wireMsg{wireHdr: wireHdr{
					op: wireWrite, srcQPN: qpA.N, dstQPN: qpB.N, seq: uint32(ar.msg), msgID: uint64(ar.msg + 1),
					seg: ar.seg, nsegs: m.nsegs, rkey: dst.Key, roffset: off, imm: m.imm, dataLen: n,
				}, data: src[off : off+n]}
				if cw := &qpB.window; w.seq == cw.base && m.nsegs > 1 && (cw.slots.len() == 0 || *cw.slots.at(0) == nil) {
					if uint32(ar.seg) == cw.next && ar.seg == m.nsegs-1 {
						byCursor++
					} else if uint32(ar.seg) > cw.next && cw.next > 0 {
						gaps++
					}
				}
				qpB.receive(pkt, &w)
				ref.arrive(msgs, ar, mtu)
			}
			eng.Run()

			var cqes []CQE
			for e, ok := cqB.Poll(); ok; e, ok = cqB.Poll() {
				cqes = append(cqes, CQE{Op: e.Op, Imm: e.Imm, Bytes: e.Bytes})
			}
			if !slices.Equal(cqes, ref.cqes) {
				t.Fatalf("%d arrivals: completions\n%v\nwant\n%v", len(arrivals), cqes, ref.cqes)
			}
			if !slices.Equal(acks, ref.acks) {
				t.Fatalf("%d arrivals: acks %v, want %v", len(arrivals), acks, ref.acks)
			}
			for k, m := range msgs {
				n := (m.nsegs-1)*mtu + m.last
				if got, want := dst.Data[k*region:k*region+n], src[k*region:k*region+n]; !bytes.Equal(got, want) {
					t.Fatalf("message %d landed corrupt", k)
				}
			}
			if w := qpB.window; w.base != uint32(len(msgs)) || w.next != 0 || w.slots.len() != 0 {
				t.Fatalf("at the end the window has base %d, next %d and %d slots, want %d, 0 and 0", w.base, w.next, w.slots.len(), len(msgs))
			}
		})
	}
	if byCursor < 100 || gaps < 10 {
		t.Fatalf("void run: the cursor completed %d writes, and %d segments landed past a gap after an in-order prefix", byCursor, gaps)
	}
	t.Logf("the cursor completed %d writes; %d segments landed past a gap after an in-order prefix", byCursor, gaps)
}
