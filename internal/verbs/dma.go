package verbs

import "repro/internal/sim"

// DMAEngine models the NIC/host DMA path used for staging-to-user copies
// (step 4 in the paper's Figure 6 receive pipeline). Copies are
// non-blocking: they queue on the engine, serialize at PCIe bandwidth, and
// complete after an additional fixed latency (the 1–3 µs PCIe round trip
// the paper cites). Overlapping reception with these copies is what makes
// the staging design viable — the protocol only waits for DMA completions
// at the very end of a collective.
type DMAEngine struct {
	eng      *sim.Engine
	bw       float64 // bytes/sec
	latency  sim.Time
	nextFree sim.Time

	// Copies and BytesCopied count completed transfers.
	Copies      uint64
	BytesCopied uint64
}

func newDMAEngine(eng *sim.Engine, bw float64, latency sim.Time) *DMAEngine {
	return &DMAEngine{eng: eng, bw: bw, latency: latency}
}

// Enqueue schedules a copy of n bytes. done (optional) runs at completion
// time. Enqueue never blocks the caller: the posting cost on the worker is
// accounted by the execution model, not here.
func (d *DMAEngine) Enqueue(n int, done func()) sim.Time {
	if n < 0 {
		panic("verbs: negative DMA length")
	}
	start := d.nextFree
	if now := d.eng.Now(); start < now {
		start = now
	}
	d.nextFree = start + sim.Time(float64(n)/d.bw*1e9)
	completion := d.nextFree + d.latency
	d.eng.AtHandler(completion, d, 0, n, done)
	return completion
}

// OnEvent completes one staged copy; arg1 is the byte count, obj the
// caller's optional done callback.
func (d *DMAEngine) OnEvent(_ *sim.Engine, _ sim.Handle, _ uint64, arg1 int, obj any) {
	d.Copies++
	d.BytesCopied += uint64(arg1)
	if done, ok := obj.(func()); ok && done != nil {
		done()
	}
}
