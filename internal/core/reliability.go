package core

import (
	"fmt"

	"repro/internal/fabric"
	"repro/internal/sim"
	"repro/internal/telemetry"
	"repro/internal/verbs"
)

// armCutoff starts the receive cutoff timer (§III-C): the ideal transfer
// time of the whole operation plus a slack alpha that absorbs RNR
// synchronization time and network noise. If the bitmap is incomplete when
// it fires, the slow-path recovery begins.
func (op *opState) armCutoff() {
	r := op.r
	if op.remaining == 0 {
		return
	}
	// Ideal transfer time of the whole operation: every root's buffer
	// (with header overhead) through one link. The chain schedule
	// serializes roots but does not add bytes, so this already covers the
	// full multicast phase; 2x margin plus alpha absorbs scheduling gaps,
	// synchronization and network noise (§III-C).
	wire := float64(op.roots) * float64(op.n) * (1 + float64(fabric.HeaderBytes)/float64(op.chunk))
	ideal := sim.Time(wire / r.comm.f.Config().LinkBandwidth * 1e9)
	d := 2*ideal + r.comm.cfg.CutoffAlpha
	op.cutoff = r.eng.AfterHandler(d, op, 0, opEvCutoff, nil)
}

// startRecovery scans the bitmap and asks the left ring neighbor for the
// missing chunks. One request is outstanding at a time; the neighbor
// answers with the subset it can serve (recursively recovering the rest
// itself), so the scheme degrades to the ring Allgather bound and never
// incasts the broadcast root (§III-C).
func (op *opState) startRecovery() {
	if op.rxDone || op.fetchWait {
		return
	}
	missing := op.bm.MissingRanges(nil)
	if len(missing) == 0 {
		op.maybeRxDone()
		return
	}
	missing = capRanges(missing, (ctrlSlotBytes-4)/8)
	op.fetchWait = true
	op.recf(telemetry.PhaseRecovery, "%d ranges missing", len(missing))
	op.r.sendCtrl(op.r.left(), ctrlFetchReq, 0, marshalRanges(missing))
}

// capRanges bounds the number of ranges to fit a control slot by merging
// the tail into one covering range (over-fetching a few chunks the rank
// already has is harmless; the bitmap filters duplicates).
func capRanges(ranges [][2]int, max int) [][2]int {
	if len(ranges) <= max {
		return ranges
	}
	out := append([][2]int(nil), ranges[:max-1]...)
	out = append(out, [2]int{ranges[max-1][0], ranges[len(ranges)-1][1]})
	return out
}

// onFetchReq runs on the serving (left) side: answer with the requested
// ranges we already hold; if we hold none of them, defer until chunks
// arrive (via multicast or our own recovery).
func (op *opState) onFetchReq(m ctrlMsg) {
	ranges, err := unmarshalRanges(m.payload)
	if err != nil {
		panic(fmt.Sprintf("core: rank %d bad fetch request: %v", op.r.id, err))
	}
	avail := op.availableSubranges(ranges)
	if len(avail) == 0 {
		op.deferredReq = append(op.deferredReq, m)
		return
	}
	op.recf(telemetry.PhaseFetchServe, "%d ranges -> rank %d", len(avail), m.from)
	op.r.sendCtrl(m.from, ctrlFetchAck, 0, marshalRanges(capRanges(avail, (ctrlSlotBytes-4)/8)))
}

// serveDeferred retries deferred fetch requests after new chunks arrive.
func (op *opState) serveDeferred() {
	if len(op.deferredReq) == 0 {
		return
	}
	pending := op.deferredReq
	op.deferredReq = nil
	for _, m := range pending {
		op.onFetchReq(m)
	}
}

// availableSubranges intersects the requested chunk ranges with the set of
// chunks present in the local bitmap.
func (op *opState) availableSubranges(ranges [][2]int) [][2]int {
	var out [][2]int
	for _, rg := range ranges {
		start := -1
		for c := rg[0]; c < rg[1] && c < op.total; c++ {
			if op.bm.Get(c) {
				if start < 0 {
					start = c
				}
				continue
			}
			if start >= 0 {
				out = append(out, [2]int{start, c})
				start = -1
			}
		}
		if start >= 0 {
			end := rg[1]
			if end > op.total {
				end = op.total
			}
			out = append(out, [2]int{start, end})
		}
	}
	return out
}

// onFetchAck runs on the requesting side: zero-copy RDMA Read each granted
// range from the left neighbor's receive buffer. Read targets use the
// symmetric rkey of the receive MR (exchanged at communicator setup).
func (op *opState) onFetchAck(m ctrlMsg) {
	ranges, err := unmarshalRanges(m.payload)
	if err != nil {
		panic(fmt.Sprintf("core: rank %d bad fetch ack: %v", op.r.id, err))
	}
	op.fetchWait = false
	qp := op.r.ctrl[op.r.left()]
	for _, rg := range ranges {
		// Split at root boundaries so each read is byte-contiguous, then
		// issue one RDMA Read per contiguous byte range.
		for _, sub := range op.splitAtRoots(rg) {
			off, _ := op.chunkByte(sub[0])
			lastOff, lastLen := op.chunkByte(sub[1] - 1)
			length := lastOff + lastLen - off
			idx := len(op.fetchReads)
			op.fetchReads = append(op.fetchReads, sub)
			op.fetchOut++
			qp.PostReadRC(fetchWrID(idx), op.recvMR, off, op.recvMR.Key, off, length)
		}
	}
	if op.fetchOut == 0 {
		// Neighbor granted nothing we still miss (raced with multicast
		// arrivals); re-evaluate.
		op.recheckRecovery()
	}
}

// splitAtRoots breaks a chunk range at root-buffer boundaries (needed when
// the send size is not a chunk multiple, so byte offsets are contiguous
// only within one root's region).
func (op *opState) splitAtRoots(rg [2]int) [][2]int {
	if op.kind == kindBroadcast {
		return [][2]int{rg}
	}
	var out [][2]int
	start := rg[0]
	for start < rg[1] {
		end := (start/op.cpr + 1) * op.cpr
		if end > rg[1] {
			end = rg[1]
		}
		out = append(out, [2]int{start, end})
		start = end
	}
	return out
}

// fetch work-request IDs are offset to distinguish them from other reads.
const fetchWrBase = 1 << 32

func fetchWrID(idx int) uint64 { return fetchWrBase + uint64(idx) }

func isFetchWr(id uint64) (int, bool) {
	if id >= fetchWrBase {
		return int(id - fetchWrBase), true
	}
	return 0, false
}

// onFetchRead accounts a completed recovery read: every chunk in the range
// is now present in the receive buffer.
func (op *opState) onFetchRead(idx int) {
	rg := op.fetchReads[idx]
	for c := rg[0]; c < rg[1]; c++ {
		if op.bm.Set(c) {
			op.remaining--
			op.recovered++
		}
	}
	op.fetchOut--
	op.serveDeferred()
	if op.fetchOut == 0 {
		op.recheckRecovery()
	}
}

// recheckRecovery continues the slow path until the bitmap is complete.
func (op *opState) recheckRecovery() {
	if op.remaining == 0 {
		op.maybeRxDone()
		return
	}
	// Still missing chunks: ask again (the neighbor's own recovery may have
	// progressed meanwhile; the hop-by-hop propagation guarantees progress
	// because every chunk exists at its root).
	op.startRecovery()
}

// handleFetchReadCQE routes OpRead completions from the control CQ.
func (r *Rank) handleFetchReadCQE(e verbs.CQE) bool {
	idx, ok := isFetchWr(e.WrID)
	if !ok || r.op == nil {
		return false
	}
	if e.Op == verbs.OpErr {
		panic(fmt.Sprintf("core: rank %d recovery read failed terminally", r.id))
	}
	r.op.onFetchRead(idx)
	return true
}
