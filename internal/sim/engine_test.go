package sim

import (
	"testing"
	"testing/quick"
	"unsafe"
)

// call adapts a func() to Handler, for tests that schedule a one-off action.
type call func()

func (f call) OnEvent(*Engine, Handle, uint64, int, any) { f() }

func TestEngineStartsAtZero(t *testing.T) {
	e := NewEngine(1)
	if e.Now() != 0 {
		t.Fatalf("new engine Now() = %v, want 0", e.Now())
	}
}

func TestEventsFireInTimeOrder(t *testing.T) {
	e := NewEngine(1)
	var order []int
	e.AtHandler(30, call(func() { order = append(order, 3) }), 0, 0, nil)
	e.AtHandler(10, call(func() { order = append(order, 1) }), 0, 0, nil)
	e.AtHandler(20, call(func() { order = append(order, 2) }), 0, 0, nil)
	e.Run()
	want := []int{1, 2, 3}
	for i, v := range want {
		if order[i] != v {
			t.Fatalf("order = %v, want %v", order, want)
		}
	}
}

func TestSimultaneousEventsFIFO(t *testing.T) {
	e := NewEngine(1)
	var order []int
	for i := 0; i < 100; i++ {
		i := i
		e.AtHandler(42, call(func() { order = append(order, i) }), 0, 0, nil)
	}
	e.Run()
	for i, v := range order {
		if v != i {
			t.Fatalf("simultaneous events fired out of scheduling order: pos %d got %d", i, v)
		}
	}
}

func TestAfterAdvancesClock(t *testing.T) {
	e := NewEngine(1)
	var at Time
	e.AfterHandler(5*Microsecond, call(func() { at = e.Now() }), 0, 0, nil)
	e.Run()
	if at != 5*Microsecond {
		t.Fatalf("event fired at %v, want 5µs", at)
	}
	if e.Now() != 5*Microsecond {
		t.Fatalf("final time %v, want 5µs", e.Now())
	}
}

func TestNestedScheduling(t *testing.T) {
	e := NewEngine(1)
	var times []Time
	e.AtHandler(10, call(func() {
		times = append(times, e.Now())
		e.AfterHandler(15, call(func() { times = append(times, e.Now()) }), 0, 0, nil)
	}), 0, 0, nil)
	e.Run()
	if len(times) != 2 || times[0] != 10 || times[1] != 25 {
		t.Fatalf("times = %v, want [10 25]", times)
	}
}

func TestCancel(t *testing.T) {
	e := NewEngine(1)
	fired := false
	ev := e.AtHandler(10, call(func() { fired = true }), 0, 0, nil)
	ev.Cancel()
	e.Run()
	if fired {
		t.Fatal("cancelled event fired")
	}
	if ev.Active() {
		t.Fatal("Active() = true after Cancel")
	}
}

func TestCancelRemovesFromQueue(t *testing.T) {
	e := NewEngine(1)
	// Interleave keepers and victims so removal has to fix up the heap
	// interior, not just the root or tail.
	var victims []Handle
	for i := 0; i < 10; i++ {
		at := Time(10 + 10*i)
		if i%2 == 0 {
			victims = append(victims, e.AtHandler(at, call(func() { t.Errorf("cancelled event at %v fired", at) }), 0, 0, nil))
		} else {
			e.AtHandler(at, call(func() {}), 0, 0, nil)
		}
	}
	if got := e.Pending(); got != 10 {
		t.Fatalf("Pending = %d before cancel, want 10", got)
	}
	for i, ev := range victims {
		ev.Cancel()
		if got, want := e.Pending(), 10-(i+1); got != want {
			t.Fatalf("Pending = %d after cancelling %d events, want %d (cancel must remove immediately)", got, i+1, want)
		}
	}
	// Double-cancel and post-run cancel stay no-ops.
	victims[0].Cancel()
	if got := e.Pending(); got != 5 {
		t.Fatalf("Pending = %d after double cancel, want 5", got)
	}
	e.Run()
	if e.Executed != 5 {
		t.Fatalf("Executed = %d, want the 5 surviving events", e.Executed)
	}
	victims[1].Cancel()
}

func TestCancelFromEarlierEvent(t *testing.T) {
	e := NewEngine(1)
	fired := false
	ev := e.AtHandler(20, call(func() { fired = true }), 0, 0, nil)
	e.AtHandler(10, call(func() { ev.Cancel() }), 0, 0, nil)
	e.Run()
	if fired {
		t.Fatal("event cancelled at t=10 still fired at t=20")
	}
}

func TestSchedulingInPastPanics(t *testing.T) {
	e := NewEngine(1)
	e.AtHandler(10, call(func() {
		defer func() {
			if recover() == nil {
				t.Error("scheduling in the past did not panic")
			}
		}()
		e.AtHandler(5, call(func() {}), 0, 0, nil)
	}), 0, 0, nil)
	e.Run()
}

// TestRunPanicsOnUnqueuedReservation: a reserved number that is never
// queued would otherwise end Run early and silently, with Pending still
// counting it. The producer queues one of two reserved events, from an
// event that fires first; Run must fire it and then name the one left.
func TestRunPanicsOnUnqueuedReservation(t *testing.T) {
	e := NewEngine(1)
	seq := e.Reserve(2)
	fired := 0
	e.AtHandler(5, call(func() {
		e.AtReserved(10, seq, call(func() { fired++ }), 0, 0, nil)
	}), 0, 0, nil)
	defer func() {
		msg, _ := recover().(string)
		if want := "sim: queue ran dry with 1 reserved events never queued"; msg != want || fired != 1 {
			t.Fatalf("Run panicked with %q after %d reserved events fired, want %q after 1", msg, fired, want)
		}
	}()
	e.Run()
}

func TestRunUntilStopsAtDeadline(t *testing.T) {
	e := NewEngine(1)
	var fired []Time
	for _, at := range []Time{10, 20, 30, 40} {
		at := at
		e.AtHandler(at, call(func() { fired = append(fired, at) }), 0, 0, nil)
	}
	e.RunUntil(25)
	if len(fired) != 2 {
		t.Fatalf("fired %v, want events at 10 and 20 only", fired)
	}
	if e.Now() != 25 {
		t.Fatalf("Now() = %v after RunUntil(25)", e.Now())
	}
	e.Run()
	if len(fired) != 4 {
		t.Fatalf("remaining events did not fire: %v", fired)
	}
}

func TestRunUntilAdvancesClockWhenIdle(t *testing.T) {
	e := NewEngine(1)
	e.RunUntil(100)
	if e.Now() != 100 {
		t.Fatalf("Now() = %v, want 100", e.Now())
	}
	// Monotonic across successive calls.
	e.RunUntil(50)
	if e.Now() != 100 {
		t.Fatalf("RunUntil moved the clock backwards to %v", e.Now())
	}
}

func TestStop(t *testing.T) {
	e := NewEngine(1)
	count := 0
	e.AtHandler(10, call(func() { count++; e.Stop() }), 0, 0, nil)
	e.AtHandler(20, call(func() { count++ }), 0, 0, nil)
	e.Run()
	if count != 1 {
		t.Fatalf("Stop did not halt the run: count = %d", count)
	}
	e.Run() // resumes
	if count != 2 {
		t.Fatalf("second Run did not resume: count = %d", count)
	}
}

func TestExecutedCounter(t *testing.T) {
	e := NewEngine(1)
	for i := 0; i < 7; i++ {
		e.AtHandler(Time(i), call(func() {}), 0, 0, nil)
	}
	e.Run()
	if e.Executed != 7 {
		t.Fatalf("Executed = %d, want 7", e.Executed)
	}
}

func TestDeterministicReplay(t *testing.T) {
	run := func() []Time {
		e := NewEngine(12345)
		var fired []Time
		var schedule func()
		n := 0
		schedule = func() {
			if n >= 50 {
				return
			}
			n++
			d := Time(e.RNG().Intn(1000) + 1)
			e.AfterHandler(d, call(func() {
				fired = append(fired, e.Now())
				schedule()
			}), 0, 0, nil)
		}
		schedule()
		e.Run()
		return fired
	}
	a, b := run(), run()
	if len(a) != len(b) {
		t.Fatalf("replay lengths differ: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("replay diverged at %d: %v vs %v", i, a[i], b[i])
		}
	}
}

// TestEventLayout pins the event struct at 96 bytes on 64-bit platforms:
// every pending event costs one, carved eventSlab at a time, so a field
// added here grows every slab.
func TestEventLayout(t *testing.T) {
	if unsafe.Sizeof(uintptr(0)) != 8 {
		t.Skip("layout budget is for 64-bit platforms")
	}
	if got := unsafe.Sizeof(event{}); got != 96 {
		t.Fatalf("event is %d bytes, want 96", got)
	}
}

func TestTimeConversions(t *testing.T) {
	if (2 * Second).Seconds() != 2.0 {
		t.Errorf("Seconds() = %v", (2 * Second).Seconds())
	}
	if (3 * Microsecond).Micros() != 3.0 {
		t.Errorf("Micros() = %v", (3 * Microsecond).Micros())
	}
	if Millisecond.Duration().Milliseconds() != 1 {
		t.Errorf("Duration() = %v", Millisecond.Duration())
	}
}

// Property: events always fire in non-decreasing time order regardless of
// the scheduling pattern.
func TestPropertyMonotonicFiring(t *testing.T) {
	f := func(delays []uint16, seed uint64) bool {
		e := NewEngine(seed)
		var fired []Time
		for _, d := range delays {
			e.AfterHandler(Time(d), call(func() { fired = append(fired, e.Now()) }), 0, 0, nil)
		}
		e.Run()
		for i := 1; i < len(fired); i++ {
			if fired[i] < fired[i-1] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestRNGDeterminism(t *testing.T) {
	a, b := NewRNG(7), NewRNG(7)
	for i := 0; i < 1000; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatal("same-seed RNGs diverged")
		}
	}
}

func TestRNGZeroSeed(t *testing.T) {
	r := NewRNG(0)
	if r.Uint64() == 0 && r.Uint64() == 0 {
		t.Fatal("zero seed produced degenerate stream")
	}
}

func TestRNGFloat64Range(t *testing.T) {
	r := NewRNG(99)
	for i := 0; i < 10000; i++ {
		v := r.Float64()
		if v < 0 || v >= 1 {
			t.Fatalf("Float64() = %v out of [0,1)", v)
		}
	}
}

func TestRNGIntnRange(t *testing.T) {
	r := NewRNG(5)
	seen := make(map[int]bool)
	for i := 0; i < 10000; i++ {
		v := r.Intn(10)
		if v < 0 || v >= 10 {
			t.Fatalf("Intn(10) = %d", v)
		}
		seen[v] = true
	}
	if len(seen) != 10 {
		t.Fatalf("Intn(10) only produced %d distinct values", len(seen))
	}
}

func TestRNGIntnPanicsOnNonPositive(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("Intn(0) did not panic")
		}
	}()
	NewRNG(1).Intn(0)
}

func TestRNGBernoulliExtremes(t *testing.T) {
	r := NewRNG(3)
	for i := 0; i < 100; i++ {
		if r.Bernoulli(0) {
			t.Fatal("Bernoulli(0) returned true")
		}
		if !r.Bernoulli(1) {
			t.Fatal("Bernoulli(1) returned false")
		}
	}
}

func TestRNGBernoulliRate(t *testing.T) {
	r := NewRNG(11)
	const n = 100000
	hits := 0
	for i := 0; i < n; i++ {
		if r.Bernoulli(0.25) {
			hits++
		}
	}
	rate := float64(hits) / n
	if rate < 0.23 || rate > 0.27 {
		t.Fatalf("Bernoulli(0.25) empirical rate %v", rate)
	}
}

func TestRNGPermIsPermutation(t *testing.T) {
	f := func(seed uint64) bool {
		n := int(seed%64) + 1
		p := NewRNG(seed).Perm(n)
		seen := make([]bool, n)
		for _, v := range p {
			if v < 0 || v >= n || seen[v] {
				return false
			}
			seen[v] = true
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestRNGSplitIndependence(t *testing.T) {
	parent := NewRNG(42)
	child := parent.Split()
	// The child stream must not be identical to the parent's continuation.
	same := true
	for i := 0; i < 16; i++ {
		if parent.Uint64() != child.Uint64() {
			same = false
			break
		}
	}
	if same {
		t.Fatal("Split produced a correlated stream")
	}
}
