package telemetry

import (
	"strings"
	"testing"

	"repro/internal/sim"
)

func TestNilRecorderSafe(t *testing.T) {
	var r *Registry
	r.Record(1, 0, 1, PhaseDispatch, "") // must not panic
	if r.Snapshot().Timeline() != "(no events)\n" {
		t.Fatal("nil timeline wrong")
	}
}

func TestRecordAndQuery(t *testing.T) {
	r := New()
	r.Record(30, 1, 1, PhaseBarrier, "")
	r.Record(10, 0, 1, PhaseDispatch, "allgather")
	r.Record(20, 1, 1, PhaseDispatch, "allgather")
	s := r.Snapshot()
	if len(s.Events) != 3 {
		t.Fatalf("events = %d", len(s.Events))
	}
	evs := s.ByRank(1)
	if len(evs) != 2 || evs[0].Phase != PhaseDispatch || evs[1].Phase != PhaseBarrier {
		t.Fatalf("rank 1 events = %v", evs)
	}
	if evs = s.ByRank(0); len(evs) != 1 || evs[0].T != 10 || evs[0].Detail != "allgather" {
		t.Fatalf("rank 0 events = %+v", evs)
	}
}

func TestTimelineOrdered(t *testing.T) {
	r := New()
	r.Record(sim.Time(300), 2, 1, PhaseDone, "")
	r.Record(sim.Time(100), 0, 1, PhaseDispatch, "")
	r.Record(sim.Time(200), 1, 1, PhaseBarrier, "")
	tl := r.Snapshot().Timeline()
	iDispatch := strings.Index(tl, PhaseDispatch)
	iBarrier := strings.Index(tl, PhaseBarrier)
	iDone := strings.Index(tl, PhaseDone)
	if !(iDispatch < iBarrier && iBarrier < iDone) {
		t.Fatalf("timeline not time-ordered:\n%s", tl)
	}
}
