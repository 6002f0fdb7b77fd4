package sim

import (
	"cmp"
	"container/heap"
	"fmt"
	"slices"
	"testing"
)

// --- reference model --------------------------------------------------------------
//
// The determinism contract of the hybrid ladder/heap scheduler is that it
// pops events in exactly the (at, seq) order a single binary heap would.
// refQueue is that single binary heap, driven through the identical
// schedule/cancel sequence as the engine.

type refItem struct {
	at       Time
	seq      uint64
	id       int
	canceled bool
}

type refQueue []*refItem

func (q refQueue) Len() int { return len(q) }
func (q refQueue) Less(i, j int) bool {
	if q[i].at != q[j].at {
		return q[i].at < q[j].at
	}
	return q[i].seq < q[j].seq
}
func (q refQueue) Swap(i, j int)   { q[i], q[j] = q[j], q[i] }
func (q *refQueue) Push(x any)     { *q = append(*q, x.(*refItem)) }
func (q *refQueue) Pop() (out any) { old := *q; n := len(old); out = old[n-1]; *q = old[:n-1]; return }
func (q *refQueue) popLive() *refItem {
	for q.Len() > 0 {
		it := heap.Pop(q).(*refItem)
		if !it.canceled {
			return it
		}
	}
	return nil
}

// canceler abstracts *Event (closure path) and Handle (handler path) so the
// property test cancels through both APIs.
type canceler interface{ Cancel() }

// propHarness drives the engine and the reference queue through the same
// randomized schedule/cancel/re-arm decisions; every firing asserts the two
// agree on which event is next.
type propHarness struct {
	t       *testing.T
	eng     *Engine
	ref     refQueue
	rng     *RNG
	nextID  int
	refSeq  uint64
	live    map[int]canceler // engine-side cancel handles by id
	refByID map[int]*refItem
	fired   []int
	budget  int // schedules remaining
	// scripted turns the randomized moves off: firings only check the order
	// and run the hook registered for the fired id, if any.
	scripted bool
	hooks    map[int]func()
}

func newPropHarness(t *testing.T, seed uint64) *propHarness {
	return &propHarness{
		t:       t,
		eng:     NewEngine(seed),
		rng:     NewRNG(seed ^ 0x9E3779B97F4A7C15),
		live:    map[int]canceler{},
		refByID: map[int]*refItem{},
		hooks:   map[int]func(){},
	}
}

// OnEvent is the handler-path firing: arg0 carries the event id.
func (p *propHarness) OnEvent(_ *Engine, _ Handle, arg0 uint64, _ int, _ any) {
	p.onFire(int(arg0))
}

func (p *propHarness) onFire(id int) {
	want := p.ref.popLive()
	if want == nil {
		p.t.Fatalf("engine fired id %d but reference queue is empty", id)
	}
	if want.id != id {
		p.t.Fatalf("order diverged at firing %d: engine id %d, reference id %d (at %v vs %v)",
			len(p.fired), id, want.id, p.eng.Now(), want.at)
	}
	if want.at != p.eng.Now() {
		p.t.Fatalf("id %d fired at %v, reference says %v", id, p.eng.Now(), want.at)
	}
	delete(p.live, id)
	delete(p.refByID, id)
	p.fired = append(p.fired, id)
	if p.scripted {
		if hook := p.hooks[id]; hook != nil {
			hook()
		}
		return
	}
	p.act()
}

// act re-arms one replacement event (keeping the population steady until
// the schedule budget drains) and then makes one randomized extra move:
// another schedule, a cancellation of a random live event, or nothing —
// every move applied identically to both structures.
func (p *propHarness) act() {
	if p.budget > 0 {
		p.budget--
		p.schedule(p.randomDelay())
	}
	switch p.rng.Intn(3) {
	case 0: // schedule an extra event
		if p.budget > 0 {
			p.budget--
			p.schedule(p.randomDelay())
		}
	case 1: // cancel a live event (and never fire it)
		p.cancelOne()
	}
}

// cancelOne cancels the smallest live id: a deterministic pick (map
// iteration order would make a failing trace unreproducible from its seed)
// that still exercises cancellation across every queue region, since the
// oldest live event may sit in a bucket, the open heap, or the far heap.
func (p *propHarness) cancelOne() {
	min := -1
	for id := range p.live {
		if min < 0 || id < min {
			min = id
		}
	}
	if min >= 0 {
		p.cancel(min)
	}
}

func (p *propHarness) cancel(id int) {
	p.live[id].Cancel()
	p.refByID[id].canceled = true
	delete(p.live, id)
	delete(p.refByID, id)
}

// where reports which region of the hybrid queue holds the live event id.
func (p *propHarness) where(id int) int8 {
	switch c := p.live[id].(type) {
	case Handle:
		return c.ev.where
	case *Event:
		return c.where
	}
	panic("unknown canceler")
}

// drain runs the engine dry and checks the reference agrees nothing is left.
func (p *propHarness) drain() {
	p.eng.Run()
	if rest := p.ref.popLive(); rest != nil {
		p.t.Fatalf("engine drained but reference still holds id %d (at %v)", rest.id, rest.at)
	}
	if p.eng.Pending() != 0 {
		p.t.Fatalf("Pending() = %d after drain", p.eng.Pending())
	}
}

// randomDelay mixes ties (0), in-bucket, in-window, and far-future delays
// so every region of the hybrid queue sees traffic.
func (p *propHarness) randomDelay() Time {
	switch p.rng.Intn(4) {
	case 0:
		return Time(p.rng.Intn(4)) // ties and same-bucket
	case 1:
		return Time(p.rng.Intn(int(windowSpan))) // in-window
	case 2:
		return Time(p.rng.Intn(int(4 * windowSpan))) // window straddling
	default:
		return Time(p.rng.Intn(int(400 * Microsecond))) // far-future timers
	}
}

func (p *propHarness) schedule(d Time) int {
	id := p.nextID
	p.nextID++
	at := p.eng.Now() + d
	it := &refItem{at: at, id: id}
	switch id % 3 {
	case 2:
		// Keyed flavour, the way the fabric's book/dispatch pipeline feeds
		// buckets: a unique low-band key that is not monotone in insertion
		// order, so it fires ahead of every local event of the same instant.
		it.seq = uint64(p.rng.Intn(1<<20))<<32 | uint64(id)
		p.live[id] = p.eng.AtOrdered(at, it.seq, p, uint64(id), 0, nil)
	default:
		// Both sides must consume one sequence number per local schedule, in
		// the same order, for the (at, seq) tiebreak to be comparable.
		it.seq = localSeqBand + p.refSeq
		p.refSeq++
		if id%3 == 0 {
			p.live[id] = p.eng.AfterHandler(d, p, uint64(id), 0, nil)
		} else {
			p.live[id] = p.eng.After(d, func() { p.onFire(id) })
		}
	}
	heap.Push(&p.ref, it)
	p.refByID[id] = it
	return id
}

// TestHybridMatchesReferenceHeapOrder schedules >10k events through the
// ladder/heap hybrid — a third each closure events, pooled handler events
// and keyed AtOrdered events, with random cancellations and re-arms along
// the way — and checks every single pop against a reference binary heap's
// (at, seq) order.
func TestHybridMatchesReferenceHeapOrder(t *testing.T) {
	for _, seed := range []uint64{1, 42, 0xdeadbeef} {
		p := newPropHarness(t, seed)
		p.budget = 12000
		for i := 0; i < 2000 && p.budget > 0; i++ {
			p.budget--
			p.schedule(p.randomDelay())
		}
		p.drain()
		if len(p.fired) < 8000 {
			t.Fatalf("seed %d: only %d events fired; cancellation ate the schedule", seed, len(p.fired))
		}
	}
}

// trainGap is the spacing of a back-to-back train: one MTU packet's
// serialization on a 200 Gbit/s uplink, the way a segmented RC write books it.
const trainGap = 166 * Nanosecond

// TestSlidingWindowShapes scripts the schedules the per-bucket slide
// introduces — each through all three scheduling flavours, every pop checked
// against the reference heap.
func TestSlidingWindowShapes(t *testing.T) {
	scripted := func(t *testing.T) *propHarness {
		p := newPropHarness(t, 7)
		p.scripted = true
		return p
	}
	for _, frac := range []Time{9, 10, 15} { // tenths of a span
		t.Run(fmt.Sprintf("train late in a span/%d tenths", frac), func(t *testing.T) {
			// One instant, three quarters of the way through a span, books a
			// train reaching 0.9, 1.0 and 1.5 spans ahead: the first overflow
			// slides the window up to the clock, the rest file behind it.
			p := scripted(t)
			p.hooks[p.schedule(windowSpan*3/4+7)] = func() {
				for d := Time(0); d < windowSpan*frac/10; d += trainGap {
					p.schedule(d)
				}
			}
			p.drain()
			if p.eng.start == 0 {
				t.Fatal("the train never slid the window")
			}
		})
	}
	t.Run("step back and slide under a cursor ahead of the clock", func(t *testing.T) {
		for _, slideFirst := range []bool{true, false} {
			p := scripted(t)
			p.schedule(300 * bucketWidth)
			p.eng.RunUntil(100*bucketWidth + 3) // the peek opens bucket 300
			if !p.eng.opened || p.eng.cursor != 300 {
				t.Fatalf("setup: cursor %d opened %v, want bucket 300 open", p.eng.cursor, p.eng.opened)
			}
			over := windowSpan + 50*bucketWidth - p.eng.Now() // beyond the window at start 0
			if slideFirst {
				p.schedule(over)
			}
			p.schedule(50 * bucketWidth) // bucket 150: between the clock and the cursor
			p.schedule(0)                // the clock's own bucket
			p.schedule(200*bucketWidth + 1)
			if !slideFirst {
				p.schedule(over)
			}
			if p.eng.start != 100 || p.eng.cursor != 100 || len(p.eng.far) != 0 {
				t.Fatalf("slideFirst=%v: start %d cursor %d far %d, want the window slid to the clock's bucket 100 and nothing far",
					slideFirst, p.eng.start, p.eng.cursor, len(p.eng.far))
			}
			p.drain()
		}
	})
	t.Run("run dry past the window then schedule", func(t *testing.T) {
		p := scripted(t)
		p.schedule(10)
		p.eng.RunUntil(3*windowSpan + 5*bucketWidth + 9)
		p.schedule(2 * windowSpan) // overflows the stale window: the cursor re-anchors on the clock
		at := bucketOf(p.eng.Now())
		if p.eng.start != at || p.eng.cursor != at {
			t.Fatalf("start %d cursor %d, want both at the clock's bucket %d", p.eng.start, p.eng.cursor, at)
		}
		p.schedule(5)
		p.schedule(windowSpan / 2)
		p.schedule(windowSpan - bucketWidth)
		if len(p.eng.far) != 1 {
			t.Fatalf("%d events on the far heap, want only the one two spans out", len(p.eng.far))
		}
		p.drain()
	})
	t.Run("schedule below a window jumped to the far frontier", func(t *testing.T) {
		p := scripted(t)
		p.schedule(5*windowSpan + 3)
		p.schedule(5*windowSpan + 40*bucketWidth)
		p.eng.RunUntil(windowSpan / 2) // nothing near: the peek jumps the window to far[0]
		if p.eng.start != bucketOf(5*windowSpan) || len(p.eng.far) != 0 {
			t.Fatalf("setup: start %d far %d, want the window at the frontier", p.eng.start, len(p.eng.far))
		}
		p.schedule(100) // below the window: rebase onto the clock
		if at := bucketOf(p.eng.Now()); p.eng.start != at || p.eng.cursor != at || len(p.eng.far) != 2 {
			t.Fatalf("start %d cursor %d far %d, want the window back at bucket %d and both timers far",
				p.eng.start, p.eng.cursor, len(p.eng.far), at)
		}
		p.schedule(windowSpan / 3)
		p.schedule(6 * windowSpan)
		p.drain()
	})
	t.Run("cancel after refill", func(t *testing.T) {
		p := scripted(t)
		var ids []int
		for i := 0; i < 6; i++ { // two of each flavour, one bucket apart
			ids = append(ids, p.schedule(2*windowSpan+Time(i)*bucketWidth))
		}
		for _, id := range ids {
			if p.where(id) != locFar {
				t.Fatalf("setup: id %d not on the far heap", id)
			}
		}
		p.eng.RunUntil(windowSpan) // the peek jumps the window and refills all six into buckets
		for _, id := range ids[:3] {
			if w := p.where(id); w != locBucket {
				t.Fatalf("id %d at location %d after the refill, want a closed bucket", id, w)
			}
			p.cancel(id)
		}
		p.drain()
		if len(p.fired) != 3 {
			t.Fatalf("fired %v, want the three events not cancelled", p.fired)
		}
	})
}

// TestNearTrainNeverEntersFar is the point of sliding per bucket: an event
// less than a window ahead of the clock is filed in a bucket however late in
// a span the clock stands. (Less the clock's own partial bucket: the window
// starts on the clock's bucket boundary.)
func TestNearTrainNeverEntersFar(t *testing.T) {
	e := NewEngine(1)
	var noop recordNothing
	e.At(windowSpan*3/4, func() {
		for d := Time(0); d < windowSpan*9/10; d += trainGap {
			e.AfterHandler(d, noop, 0, 0, nil)
			if len(e.far) != 0 {
				t.Fatalf("event %v ahead of the clock (window %v) went to the far heap", d, windowSpan)
			}
		}
	})
	e.Run()
}

// TestRunUntilThenEarlierSchedule covers the rebase path: RunUntil jumps
// the window toward a far-future timer, then a schedule lands before the
// frontier and must still fire first.
func TestRunUntilThenEarlierSchedule(t *testing.T) {
	e := NewEngine(1)
	var order []string
	e.At(2*Second, func() { order = append(order, "far") })
	e.RunUntil(100) // window may jump toward the 2 s timer
	e.At(200, func() { order = append(order, "near") })
	e.At(150, func() { order = append(order, "nearer") })
	e.Run()
	if len(order) != 3 || order[0] != "nearer" || order[1] != "near" || order[2] != "far" {
		t.Fatalf("order = %v, want [nearer near far]", order)
	}
}

// --- handler API ------------------------------------------------------------------

type recordHandler struct {
	calls []uint64
	objs  []any
	args  []int
}

func (h *recordHandler) OnEvent(_ *Engine, _ Handle, arg0 uint64, arg1 int, obj any) {
	h.calls = append(h.calls, arg0)
	h.args = append(h.args, arg1)
	h.objs = append(h.objs, obj)
}

func TestAtHandlerDeliversPackedArgs(t *testing.T) {
	e := NewEngine(1)
	h := &recordHandler{}
	payload := &recordHandler{}
	e.AtHandler(30, h, 7, -3, payload)
	e.AfterHandler(10, h, 9, 4, nil)
	e.Run()
	if len(h.calls) != 2 || h.calls[0] != 9 || h.calls[1] != 7 {
		t.Fatalf("calls = %v, want [9 7]", h.calls)
	}
	if h.args[0] != 4 || h.args[1] != -3 {
		t.Fatalf("args = %v, want [4 -3]", h.args)
	}
	if h.objs[0] != nil || h.objs[1] != any(payload) {
		t.Fatalf("objs not delivered: %v", h.objs)
	}
}

func TestHandleCancelPreventsFiring(t *testing.T) {
	e := NewEngine(1)
	h := &recordHandler{}
	near := e.AtHandler(10, h, 1, 0, nil)
	far := e.AtHandler(windowSpan+10*Microsecond, h, 2, 0, nil)
	if !near.Active() || !far.Active() {
		t.Fatal("fresh handles not active")
	}
	near.Cancel()
	far.Cancel()
	if near.Active() || far.Active() {
		t.Fatal("cancelled handles still active")
	}
	if e.Pending() != 0 {
		t.Fatalf("Pending = %d after cancelling both", e.Pending())
	}
	e.Run()
	if len(h.calls) != 0 {
		t.Fatalf("cancelled handler events fired: %v", h.calls)
	}
}

// TestStaleHandleIsNoOp is the retransmission-timer race: a handle whose
// event fired and was recycled into a new event must not cancel the new
// occupant.
func TestStaleHandleIsNoOp(t *testing.T) {
	e := NewEngine(1)
	h := &recordHandler{}
	first := e.AtHandler(10, h, 1, 0, nil)
	e.Run()
	if len(h.calls) != 1 {
		t.Fatal("first event did not fire")
	}
	// The pool guarantees the next handler event reuses the same *Event.
	second := e.AtHandler(20, h, 2, 0, nil)
	if first.Active() {
		t.Fatal("fired handle reports active")
	}
	first.Cancel() // stale: must not touch the second event
	if !second.Active() {
		t.Fatal("stale Cancel killed the recycled event")
	}
	e.Run()
	if len(h.calls) != 2 || h.calls[1] != 2 {
		t.Fatalf("second event lost: calls = %v", h.calls)
	}
}

func TestEventFiredAccessor(t *testing.T) {
	e := NewEngine(1)
	ev := e.At(10, func() {})
	cancelled := e.At(20, func() {})
	cancelled.Cancel()
	if ev.Fired() {
		t.Fatal("Fired() before Run")
	}
	e.Run()
	if !ev.Fired() {
		t.Fatal("Fired() false after the event ran")
	}
	if cancelled.Fired() {
		t.Fatal("cancelled event reports Fired")
	}
	if !cancelled.Canceled() {
		t.Fatal("cancelled event lost its Canceled flag after the run")
	}
}

func TestEventPoolRecycles(t *testing.T) {
	e := NewEngine(1)
	h := &recordHandler{}
	const n = 64
	// Sequential one-in-flight schedule/fire cycles should reuse one event.
	for i := 0; i < n; i++ {
		e.AfterHandler(Time(i), h, uint64(i), 0, nil)
		e.Run()
	}
	if e.PoolSize() != 1 {
		t.Fatalf("PoolSize = %d, want 1 (one event recycled %d times)", e.PoolSize(), n)
	}
	if e.Recycled < n-1 {
		t.Fatalf("Recycled = %d, want >= %d", e.Recycled, n-1)
	}
	if e.Scheduled != n || e.Executed != n {
		t.Fatalf("Scheduled/Executed = %d/%d, want %d/%d", e.Scheduled, e.Executed, n, n)
	}
}

// rearmHandler reschedules itself count times: the steady-state hot-path
// shape (fabric hops, send completions) for the allocation gate.
type rearmHandler struct{ remaining int }

func (h *rearmHandler) OnEvent(e *Engine, _ Handle, _ uint64, _ int, _ any) {
	if h.remaining > 0 {
		h.remaining--
		e.AfterHandler(350, h, 0, 0, nil)
	}
}

// TestHandlerPathAllocFree is the satellite gate: the closure-free
// schedule/fire/recycle cycle must not allocate at all once the pool is
// warm.
func TestHandlerPathAllocFree(t *testing.T) {
	e := NewEngine(1)
	h := &rearmHandler{}
	// Warm the pool and the bucket slices.
	h.remaining = 2048
	e.AfterHandler(1, h, 0, 0, nil)
	e.Run()
	avg := testing.AllocsPerRun(50, func() {
		h.remaining = 512
		e.AfterHandler(1, h, 0, 0, nil)
		e.Run()
	})
	if avg != 0 {
		t.Fatalf("handler hot path allocates: %.2f allocs per 513-event run, want 0", avg)
	}
}

// TestTimerCancelRearmAllocFree gates the RC retransmission pattern: arm a
// far-future timer, cancel it, re-arm — the pool must absorb it without
// garbage.
func TestTimerCancelRearmAllocFree(t *testing.T) {
	e := NewEngine(1)
	h := &recordHandler{}
	for i := 0; i < 64; i++ { // warm
		e.AfterHandler(300*Microsecond, h, 0, 0, nil).Cancel()
	}
	avg := testing.AllocsPerRun(100, func() {
		for i := 0; i < 32; i++ {
			e.AfterHandler(300*Microsecond, h, 0, 0, nil).Cancel()
		}
	})
	if avg != 0 {
		t.Fatalf("timer cancel/re-arm allocates: %.2f allocs per 32 cycles, want 0", avg)
	}
}

// --- bucket shapes ------------------------------------------------------------------
//
// openBucket is a natural merge sort over the ascending runs a bucket was
// appended in. The property test above feeds it random shapes; the scripted
// ones below are the adversarial ones — many runs, runs of one, cancelled
// entries inside runs, a bucket re-closed after it was opened — each checked
// against a plain sort of the live entries by (at, seq).

type shapeEntry struct {
	at       Time
	seq      uint64
	h        Handle
	canceled bool
}

// shape scripts a schedule through AtHandler (key 0) and AtOrdered (any
// other key) and records the firing order; arg0 is the entry's index.
type shape struct {
	eng   *Engine
	ents  []shapeEntry
	fired []int
}

func (s *shape) OnEvent(_ *Engine, _ Handle, arg0 uint64, _ int, _ any) {
	s.fired = append(s.fired, int(arg0))
}

func (s *shape) add(at Time, key uint64) int {
	id := len(s.ents)
	if key == 0 {
		s.ents = append(s.ents, shapeEntry{at: at, seq: s.eng.seq, h: s.eng.AtHandler(at, s, uint64(id), 0, nil)})
	} else {
		s.ents = append(s.ents, shapeEntry{at: at, seq: key, h: s.eng.AtOrdered(at, key, s, uint64(id), 0, nil)})
	}
	return id
}

func (s *shape) cancel(id int) {
	s.ents[id].h.Cancel()
	s.ents[id].canceled = true
}

// check compares everything fired so far with the reference order of the
// entries that were never cancelled: (at, seq), insertion order at a tie.
func (s *shape) check(t *testing.T) {
	t.Helper()
	var want []int
	for id, e := range s.ents {
		if !e.canceled {
			want = append(want, id)
		}
	}
	slices.SortStableFunc(want, func(a, b int) int {
		ea, eb := s.ents[a], s.ents[b]
		if ea.at != eb.at {
			return cmp.Compare(ea.at, eb.at)
		}
		return cmp.Compare(ea.seq, eb.seq)
	})
	if !slices.Equal(s.fired, want) {
		for i := range want {
			if i >= len(s.fired) || s.fired[i] != want[i] {
				t.Fatalf("firing %d of %d diverged from the (at, seq) order: fired %v..., want %v...",
					i, len(want), s.fired[i:min(i+4, len(s.fired))], want[i:min(i+4, len(want))])
			}
		}
		t.Fatalf("fired %d events, want %d", len(s.fired), len(want))
	}
}

// addRuns appends n interleaved ascending runs of per entries each inside
// the bucket starting at base: run r holds base+r, base+r+stride, ..., so
// every run boundary is a descent. Odd runs are keyed.
func (s *shape) addRuns(base Time, n, per int) {
	stride := bucketWidth / Time(per)
	if Time(n) >= stride {
		panic("runs do not fit the bucket")
	}
	for r := 0; r < n; r++ {
		for j := 0; j < per; j++ {
			key := uint64(0)
			if r%2 == 1 {
				key = uint64(n-r)<<16 | uint64(j) + 1 // later runs sort first at a tie
			}
			s.add(base+Time(r)+Time(j)*stride, key)
		}
	}
}

func TestBucketShapes(t *testing.T) {
	t.Run("descending", func(t *testing.T) {
		s := &shape{eng: NewEngine(1)}
		for at := bucketWidth - 1; at >= 0; at-- { // 512 runs of one
			s.add(at, 0)
		}
		s.eng.Run()
		s.check(t)
	})
	t.Run("interleaved runs", func(t *testing.T) {
		s := &shape{eng: NewEngine(1)}
		s.addRuns(3*bucketWidth, 40, 8)
		s.addRuns(3*bucketWidth, 33, 4) // same instants again: ties across flavours
		s.eng.Run()
		s.check(t)
	})
	t.Run("colliding keys", func(t *testing.T) {
		// Equal (at, key) pairs are a caller bug, but the merge is stable:
		// they fire in insertion order.
		s := &shape{eng: NewEngine(1)}
		for r := 0; r < 6; r++ {
			for j := 0; j < 8; j++ {
				s.add(Time(10*j), uint64(1+j%2))
			}
		}
		s.eng.Run()
		s.check(t)
	})
	t.Run("cancelled inside runs", func(t *testing.T) {
		s := &shape{eng: NewEngine(1)}
		s.addRuns(0, 36, 8)
		for id := range s.ents {
			if id%3 == 0 {
				s.cancel(id)
			}
		}
		s.eng.Run()
		s.check(t)
		if s.eng.Pending() != 0 {
			t.Fatalf("Pending() = %d after drain", s.eng.Pending())
		}
	})
	t.Run("reclosed bucket", func(t *testing.T) {
		// RunUntil peeks past its deadline and opens bucket 9; entries then
		// scheduled into it go to the open-bucket heap; an earlier-in-window
		// schedule steps the cursor back, which folds both into one closed
		// bucket that later appends extend and the next open re-merges.
		s := &shape{eng: NewEngine(1)}
		s.addRuns(9*bucketWidth, 5, 8)
		s.eng.RunUntil(3 * bucketWidth)
		if !s.eng.opened || s.eng.cursor != 9 {
			t.Fatalf("setup: cursor %d opened %v, want bucket 9 open", s.eng.cursor, s.eng.opened)
		}
		for at := 10*bucketWidth - 1; at > 10*bucketWidth-20; at-- {
			s.add(at, 0)
		}
		s.cancel(s.add(9*bucketWidth+7, 5))
		s.add(5*bucketWidth, 0)
		if s.eng.opened || s.eng.cursor != 5 {
			t.Fatalf("setup: cursor %d opened %v, want bucket 5 closed", s.eng.cursor, s.eng.opened)
		}
		s.addRuns(9*bucketWidth, 3, 4)
		s.eng.Run()
		s.check(t)
	})
	t.Run("snapshot mid-bucket", func(t *testing.T) {
		s := &shape{eng: NewEngine(1)}
		s.addRuns(2*bucketWidth, 34, 8)
		s.eng.RunUntil(2*bucketWidth + 100) // bucket 2 open and partly consumed
		for at := 3*bucketWidth - 1; at > 3*bucketWidth-30; at-- {
			s.add(at, uint64(at)) // open-bucket heap, descending
		}
		s.cancel(len(s.ents) - 7)
		snap := s.eng.Snapshot()
		mark := len(s.fired)
		s.eng.Run()
		s.check(t)
		first := slices.Clone(s.fired[mark:])
		// Restore re-files the sorted remainder and the heap's array order
		// into one closed bucket; the rerun must merge them to the same order.
		s.eng.Restore(snap)
		s.fired = s.fired[:mark]
		s.eng.Run()
		if !slices.Equal(s.fired[mark:], first) {
			t.Fatalf("rerun after Restore fired a different order")
		}
	})
	t.Run("snapshot with a ring offset", func(t *testing.T) {
		// Slide the window to a start that is not a multiple of the ring
		// size, with events in slots on both sides of the wrap, in the open
		// bucket's heap and on the far heap; Restore re-anchors on the clock.
		s := &shape{eng: NewEngine(1)}
		at := windowSpan + 37*bucketWidth
		s.add(at, 0)
		s.add(at+5, 0)
		s.eng.RunUntil(at)                            // fires the first; the peek leaves the bucket open
		for i := Time(0); i < numBuckets+40; i += 3 { // the tail overflows: slide, then far
			s.addRuns(at+i*bucketWidth, 2, 3)
		}
		if s.eng.start&bucketMask == 0 || len(s.eng.far) == 0 || len(s.eng.cur) == 0 {
			t.Fatalf("setup: start %d far %d cur %d, want an offset window, far events and an open-bucket heap",
				s.eng.start, len(s.eng.far), len(s.eng.cur))
		}
		s.cancel(len(s.ents) / 2)
		snap := s.eng.Snapshot()
		mark := len(s.fired)
		s.eng.Run()
		s.check(t)
		first := slices.Clone(s.fired[mark:])
		s.eng.Restore(snap)
		s.fired = s.fired[:mark]
		s.eng.Run()
		if !slices.Equal(s.fired[mark:], first) {
			t.Fatalf("rerun after Restore fired a different order")
		}
	})
}

// TestOpenBucketAllocFree gates the merge's working memory: once the run
// list and scratch have grown to the bucket sizes in use, opening buckets
// made of several runs allocates nothing.
func TestOpenBucketAllocFree(t *testing.T) {
	s := &shape{eng: NewEngine(1)}
	var noop recordNothing
	round := func() {
		base := (s.eng.Now()/bucketWidth + 2) * bucketWidth
		for r := 0; r < 5; r++ {
			for j := 0; j < 60; j++ {
				s.eng.AtHandler(base+Time(r)+Time(8*j), noop, 0, 0, nil)
			}
		}
		s.eng.Run()
	}
	for i := 0; i < numBuckets; i++ { // each round lands two buckets on: warm them all
		round()
	}
	if avg := testing.AllocsPerRun(20, round); avg != 0 {
		t.Fatalf("opening a warm 5-run bucket allocates: %.2f allocs per bucket, want 0", avg)
	}
}

type recordNothing struct{}

func (recordNothing) OnEvent(*Engine, Handle, uint64, int, any) {}
