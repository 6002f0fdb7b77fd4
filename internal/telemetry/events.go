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

// Record appends a protocol phase event; a no-op on a nil registry.
func (r *Registry) Record(t sim.Time, rank, seq int, phase, detail string) {
	if r == nil {
		return
	}
	r.events = append(r.events, Event{T: t, Rank: rank, Seq: seq, Phase: phase, Detail: detail})
}

// ByRank returns one rank's events in time order.
func (s *Snapshot) ByRank(rank int) []Event {
	var out []Event
	for _, e := range s.Events {
		if e.Rank == rank {
			out = append(out, e)
		}
	}
	sort.SliceStable(out, func(i, j int) bool { return out[i].T < out[j].T })
	return out
}

// Timeline renders every event in time order, one line each — the textual
// equivalent of Figure 9.
func (s *Snapshot) Timeline() string {
	if s == nil || len(s.Events) == 0 {
		return "(no events)\n"
	}
	evs := append([]Event(nil), s.Events...)
	sort.SliceStable(evs, func(i, j int) bool { return evs[i].T < evs[j].T })
	var sb strings.Builder
	for _, e := range evs {
		fmt.Fprintf(&sb, "%12v  rank %3d  op %3d  %-12s %s\n", e.T, e.Rank, e.Seq, e.Phase, e.Detail)
	}
	return sb.String()
}
