package verbs

import "repro/internal/sim"

// DMAEngine models the NIC/host DMA path used for staging-to-user copies
// (step 4 in the paper's Figure 6 receive pipeline). Copies are
// non-blocking: they serialize at PCIe bandwidth and complete after an
// additional fixed latency (the 1–3 µs PCIe round trip the paper cites).
// Overlapping reception with these copies is what makes the staging design
// viable — the protocol only waits for DMA completions at the very end of a
// collective. The engine only books copies and returns their completion
// times: it schedules nothing, and the caller decides which completions
// become events.
type DMAEngine struct {
	eng      *sim.Engine
	bw       float64 // bytes/sec
	latency  sim.Time
	nextFree sim.Time
}

func newDMAEngine(eng *sim.Engine, bw float64, latency sim.Time) *DMAEngine {
	return &DMAEngine{eng: eng, bw: bw, latency: latency}
}

// Book books a copy of n bytes behind the copies already booked and returns
// its completion time. Completions are FIFO: a later booking never
// completes earlier. Book never blocks the caller: the posting cost on the
// worker is accounted by the execution model, not here.
func (d *DMAEngine) Book(n int) sim.Time {
	if n < 0 {
		panic("verbs: negative DMA length")
	}
	start := d.nextFree
	if now := d.eng.Now(); start < now {
		start = now
	}
	d.nextFree = start + sim.Time(float64(n)/d.bw*1e9)
	return d.nextFree + d.latency
}
