package sim

import (
	"fmt"
	"testing"
)

// snapRecorder is a self-scheduling handler that logs every firing and
// keeps a churn of future events (some pooled, some far-future, some
// cancelled) alive, so snapshots are taken over a structurally interesting
// queue: near buckets, the open bucket, the far heap, cancelled entries.
type snapRecorder struct {
	e      *Engine
	log    []string
	budget int
}

func (r *snapRecorder) OnEvent(e *Engine, _ Handle, arg0 uint64, _ int, _ any) {
	r.log = append(r.log, fmt.Sprintf("%d@%d", arg0, e.Now()))
	if r.budget <= 0 {
		return
	}
	r.budget--
	// Mix near (bucket-scale), same-bucket and far-future delays, all
	// drawn from the engine RNG so restore rewinds the choice stream too.
	for i := 0; i < 2; i++ {
		d := Time(e.RNG().Intn(3) * 100000) // 0 or 100/200µs (far heap)
		if i == 0 {
			d = Time(e.RNG().Intn(2000)) // near: inside the calendar window
		}
		e.AfterHandler(d+1, r, arg0*10+uint64(i), 0, nil)
	}
	// Periodically schedule-and-cancel, leaving cancelled carcasses in
	// the buckets for Snapshot/Restore to skip.
	if e.RNG().Intn(3) == 0 {
		h := e.AfterHandler(Time(e.RNG().Intn(500)+1), r, 999, 0, nil)
		h.Cancel()
	}
}

// runRecorder drives a fresh recorder world for `steps` single-stepped
// events, then to completion, returning the full firing log.
func coldRecorderLog(seed uint64) []string {
	e := NewEngine(seed)
	r := &snapRecorder{e: e, budget: 120}
	for i := uint64(1); i <= 4; i++ {
		e.AtHandler(Time(i), r, i, 0, nil)
	}
	e.At(5, func() { r.log = append(r.log, fmt.Sprintf("closure@%d", e.Now())) })
	e.Run()
	return r.log
}

// TestSnapshotForkByteIdentical is the engine-level half of the fork
// property: snapshot after K events, run to completion, restore, run the
// continuation again — the continuation's firing log must be identical,
// at two different fork points.
func TestSnapshotForkByteIdentical(t *testing.T) {
	want := coldRecorderLog(42)
	for _, forkAt := range []int{7, 61} {
		e := NewEngine(42)
		r := &snapRecorder{e: e, budget: 120}
		for i := uint64(1); i <= 4; i++ {
			e.AtHandler(Time(i), r, i, 0, nil)
		}
		e.At(5, func() { r.log = append(r.log, fmt.Sprintf("closure@%d", e.Now())) })
		for i := 0; i < forkAt; i++ {
			if !e.Step() {
				t.Fatalf("fork point %d beyond queue exhaustion", forkAt)
			}
		}
		snap := e.Snapshot()
		// The snap package restores model state; here the only mutable
		// model state is the recorder itself, so save it by hand.
		savedLog := append([]string(nil), r.log...)
		savedBudget := r.budget
		e.Run()
		first := append([]string(nil), r.log...)
		if fmt.Sprint(first) != fmt.Sprint(want) {
			t.Fatalf("fork %d: pre-restore run diverged from cold run", forkAt)
		}

		e.Restore(snap)
		r.log = savedLog
		r.budget = savedBudget
		e.Run()
		if fmt.Sprint(r.log) != fmt.Sprint(want) {
			t.Fatalf("fork %d: forked continuation diverged:\ncold: %v\nfork: %v", forkAt, want, r.log)
		}
	}
}

// TestSnapshotCountersAndReseed checks the snapshot rewinds counters, the
// clock, and the RNG tree (root + SplitRNG children), and that Reseed
// reproduces a cold construction's child states for a different seed.
func TestSnapshotCountersAndReseed(t *testing.T) {
	build := func(seed uint64) (*Engine, *RNG) {
		e := NewEngine(seed)
		child := e.SplitRNG()
		return e, child
	}
	e, child := build(7)
	snap := e.Snapshot()
	wantRoot, wantChild := e.RNG().State(), child.State()
	// Burn both streams, then restore.
	e.RNG().Uint64()
	child.Uint64()
	e.Restore(snap)
	if e.RNG().State() != wantRoot || child.State() != wantChild {
		t.Fatalf("RNG tree not rewound: root %x child %x", e.RNG().State(), child.State())
	}
	// Reseed must equal a cold build with the new seed.
	e.Reseed(99)
	cold, coldChild := build(99)
	if e.RNG().State() != cold.RNG().State() || child.State() != coldChild.State() {
		t.Fatalf("Reseed(99) != cold construction: root %x vs %x, child %x vs %x",
			e.RNG().State(), cold.RNG().State(), child.State(), coldChild.State())
	}

	// Counters and clock rewind.
	e2 := NewEngine(3)
	for i := 0; i < 5; i++ {
		e2.AtHandler(Time(i+1), nopHandler{}, 0, 0, nil)
	}
	s0 := e2.Snapshot()
	e2.Run()
	if e2.Executed != 5 {
		t.Fatalf("Executed = %d", e2.Executed)
	}
	e2.Restore(s0)
	if e2.Executed != 0 || e2.Scheduled != 5 || e2.Now() != 0 || e2.Pending() != 5 {
		t.Fatalf("rewind: Executed=%d Scheduled=%d Now=%v Pending=%d", e2.Executed, e2.Scheduled, e2.Now(), e2.Pending())
	}
	e2.Run()
	if e2.Executed != 5 || e2.Now() != 5 {
		t.Fatalf("re-run after rewind: Executed=%d Now=%v", e2.Executed, e2.Now())
	}
}

type nopHandler struct{}

func (nopHandler) OnEvent(*Engine, Handle, uint64, int, any) {}

// TestSnapshotHandleSurvival pins the mid-run fork contract: a Handle
// issued BEFORE the snapshot refers to the same event incarnation after
// Restore — the event is re-filed into the identical *Event struct with
// its captured generation — so model state rewound alongside the engine
// (which holds exactly such handles) can still cancel its timers.
func TestSnapshotHandleSurvival(t *testing.T) {
	e := NewEngine(1)
	var fired []uint64
	logger := &argLogger{out: &fired}
	h10 := e.AtHandler(10, logger, 10, 0, nil)
	h20 := e.AtHandler(20, logger, 20, 0, nil)
	s := e.Snapshot()
	e.Run()
	if fmt.Sprint(fired) != "[10 20]" {
		t.Fatalf("first run fired %v", fired)
	}
	if h10.Active() || h20.Active() {
		t.Fatal("handles still active after their events fired")
	}
	// Churn the pool so the recorded structs get recycled incarnations.
	for i := 0; i < 4; i++ {
		e.AtHandler(e.Now()+Time(i+1), logger, 99, 0, nil)
	}
	e.Run()

	e.Restore(s)
	fired = nil
	if !h10.Active() || !h20.Active() {
		t.Fatal("pre-snapshot handles must survive Restore")
	}
	if h10.Time() != 10 || h20.Time() != 20 {
		t.Fatalf("restored handle times %v, %v", h10.Time(), h20.Time())
	}
	// Cancelling through a restored handle must hit the re-filed event.
	h20.Cancel()
	e.Run()
	if fmt.Sprint(fired) != "[10]" {
		t.Fatalf("after restored-handle cancel, fired %v", fired)
	}
}

type argLogger struct{ out *[]uint64 }

func (l *argLogger) OnEvent(e *Engine, _ Handle, arg0 uint64, _ int, _ any) {
	*l.out = append(*l.out, arg0)
}

// TestSnapshotStaleHandles: restoring must invalidate handles issued
// between snapshot and restore (their events belong to the abandoned
// timeline), so a stale Cancel is a no-op rather than queue corruption.
func TestSnapshotStaleHandles(t *testing.T) {
	e := NewEngine(1)
	s := e.Snapshot()
	h := e.AtHandler(10, nopHandler{}, 0, 0, nil)
	e.Restore(s)
	if h.Active() {
		t.Fatal("handle from the abandoned timeline is still active after Restore")
	}
	h.Cancel() // must not panic or corrupt
	if e.Pending() != 0 {
		t.Fatalf("Pending = %d after restore to empty snapshot", e.Pending())
	}
	e.Run()
}
