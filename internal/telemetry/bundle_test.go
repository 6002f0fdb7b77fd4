package telemetry

import (
	"strings"
	"testing"

	"repro/internal/sim"
)

func TestNilRecorderSafe(t *testing.T) {
	var b *Bundle
	b.Record(1, 0, 1, PhaseDispatch, "") // must not panic
	if b.Timeline() != "(no events)\n" {
		t.Fatal("nil timeline wrong")
	}
}

func TestRecordAndQuery(t *testing.T) {
	b := &Bundle{}
	b.Record(30, 1, 1, PhaseBarrier, "")
	b.Record(10, 0, 1, PhaseDispatch, "allgather")
	b.Record(20, 1, 1, PhaseDispatch, "allgather")
	if len(b.Events) != 3 {
		t.Fatalf("events = %d", len(b.Events))
	}
	evs := b.ByRank(1)
	if len(evs) != 2 || evs[0].Phase != PhaseDispatch || evs[1].Phase != PhaseBarrier {
		t.Fatalf("rank 1 events = %v", evs)
	}
	if evs = b.ByRank(0); len(evs) != 1 || evs[0].T != 10 || evs[0].Detail != "allgather" {
		t.Fatalf("rank 0 events = %+v", evs)
	}
}

func TestTimelineOrdered(t *testing.T) {
	b := &Bundle{}
	b.Record(sim.Time(300), 2, 1, PhaseDone, "")
	b.Record(sim.Time(100), 0, 1, PhaseDispatch, "")
	b.Record(sim.Time(200), 1, 1, PhaseBarrier, "")
	tl := b.Timeline()
	iDispatch := strings.Index(tl, PhaseDispatch)
	iBarrier := strings.Index(tl, PhaseBarrier)
	iDone := strings.Index(tl, PhaseDone)
	if !(iDispatch < iBarrier && iBarrier < iDone) {
		t.Fatalf("timeline not time-ordered:\n%s", tl)
	}
}
