package telemetry

import (
	"fmt"
	"sort"
	"strings"

	"repro/internal/sim"
)

// Phase names recorded by the core protocol — the execution-flow view of
// the paper's Figure 9. Consumers match on these.
const (
	PhaseDispatch   = "dispatch"    // task handed to the app thread
	PhaseBarrier    = "barrier"     // RNR synchronization complete
	PhaseTxStart    = "tx-start"    // multicast injection begins (root)
	PhaseTxDone     = "tx-done"     // all chunks posted and on the wire
	PhaseActivate   = "activate"    // chain token passed to the successor
	PhaseRxDone     = "rx-done"     // every chunk present, copies drained
	PhaseRecovery   = "recovery"    // cutoff fired; fetch request sent
	PhaseFetchServe = "fetch-serve" // served (part of) a neighbor's request
	PhaseFinal      = "final"       // handshake sent to the left neighbor
	PhaseDone       = "done"        // operation complete at this rank
)

// Event is one recorded protocol transition.
type Event struct {
	T      sim.Time
	Rank   int
	Seq    int // operation sequence number
	Phase  string
	Detail string
}

// Bundle is the one event recorder, and everything a traced run produced:
// the protocol phase events its state machines recorded (it is attached
// through core.Config.Tracer and adds no cost to the simulated timing)
// plus, once the run closes, the metric snapshot. It renders either as the
// text timeline (-trace) or as a Chrome-trace-event/Perfetto JSON document
// (-perfetto), so one traced run feeds both surfaces. The zero value is
// ready to use.
type Bundle struct {
	Events []Event
	Snap   *Snapshot
}

// Record appends an event. A nil *Bundle is valid and records nothing, so
// call sites need no guards.
func (b *Bundle) Record(t sim.Time, rank, seq int, phase, detail string) {
	if b == nil {
		return
	}
	b.Events = append(b.Events, Event{T: t, Rank: rank, Seq: seq, Phase: phase, Detail: detail})
}

// ByRank returns one rank's events in time order.
func (b *Bundle) ByRank(rank int) []Event {
	var out []Event
	for _, e := range b.Events {
		if e.Rank == rank {
			out = append(out, e)
		}
	}
	sort.SliceStable(out, func(i, j int) bool { return out[i].T < out[j].T })
	return out
}

// Timeline renders every event in time order, one line each — the textual
// equivalent of Figure 9.
func (b *Bundle) Timeline() string {
	if b == nil || len(b.Events) == 0 {
		return "(no events)\n"
	}
	evs := append([]Event(nil), b.Events...)
	sort.SliceStable(evs, func(i, j int) bool { return evs[i].T < evs[j].T })
	var sb strings.Builder
	for _, e := range evs {
		fmt.Fprintf(&sb, "%12v  rank %3d  op %3d  %-12s %s\n", e.T, e.Rank, e.Seq, e.Phase, e.Detail)
	}
	return sb.String()
}
