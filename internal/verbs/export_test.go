package verbs

import "repro/internal/sim"

// Quiesced returns the earliest time at which all currently booked copies
// will have completed.
func (d *DMAEngine) Quiesced() sim.Time {
	now := d.eng.Now()
	if d.nextFree <= now {
		return now // engine idle: nothing outstanding
	}
	return d.nextFree + d.latency
}
