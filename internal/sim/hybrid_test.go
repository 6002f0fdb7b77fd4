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
	live    map[int]Handle // engine-side handles by id
	refByID map[int]*refItem
	fired   []int
	firedAt []Time // firing time of each fired[i]
	budget  int    // schedules remaining
	// scripted turns the randomized moves off: firings only check the order
	// and run the hook registered for the fired id, if any.
	scripted bool
	hooks    map[int]func()
	// reserve adds a fourth randomized move: Reserve a block of sequence
	// numbers whose events wait in deferred and are queued with AtReserved
	// later, in random order; late counts the regions they land in. It also
	// adds a fifth: Fold one deferred event, which then counts as executed
	// and never fires; folded counts them.
	reserve  bool
	deferred []*refItem
	late     map[int8]int
	folded   int
}

func newPropHarness(t *testing.T, seed uint64) *propHarness {
	return &propHarness{
		t:       t,
		eng:     NewEngine(seed),
		rng:     NewRNG(seed ^ 0x9E3779B97F4A7C15),
		live:    map[int]Handle{},
		refByID: map[int]*refItem{},
		hooks:   map[int]func(){},
		late:    map[int8]int{},
	}
}

// OnEvent fires one event: arg0 carries the event id.
func (p *propHarness) OnEvent(_ *Engine, _ Handle, arg0 uint64, _ int, _ any) {
	id := int(arg0)
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
	p.firedAt = append(p.firedAt, p.eng.Now())
	if len(p.fired)%1000 == 0 {
		checkStore(p.t, p.eng)
	}
	if p.scripted {
		if hook := p.hooks[id]; hook != nil {
			hook()
		}
		return
	}
	p.act()
	if p.reserve {
		p.queueDeferred()
		// Reserved events count as scheduled from the moment they are
		// reserved, queued or not: the counts match scheduling up front.
		if p.eng.Pending() != len(p.refByID) || p.eng.Scheduled != p.refSeq {
			p.t.Fatalf("Pending %d Scheduled %d, want %d and %d as if every event were queued",
				p.eng.Pending(), p.eng.Scheduled, len(p.refByID), p.refSeq)
		}
		if want := uint64(len(p.fired) + p.folded); p.eng.Executed != want {
			p.t.Fatalf("Executed %d, want %d fired plus %d folded", p.eng.Executed, len(p.fired), p.folded)
		}
	}
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
	moves := 3
	if p.reserve {
		moves = 5
	}
	switch p.rng.Intn(moves) {
	case 0: // schedule an extra event
		if p.budget > 0 {
			p.budget--
			p.schedule(p.randomDelay())
		}
	case 1: // cancel a live event (and never fire it)
		p.cancelOne()
	case 3: // reserve a block for events queued later
		if k := min(p.budget, 1+p.rng.Intn(6)); k > 0 {
			p.budget -= k
			p.reserveBlock(k)
		}
	case 4: // fold a deferred event (never queue it, never fire it)
		if len(p.deferred) > 0 {
			p.foldDeferred(p.rng.Intn(len(p.deferred)))
		}
	}
}

// reserveBlock reserves k sequence numbers and gives each a random firing
// time, in no particular order; the reference queue holds them at once.
func (p *propHarness) reserveBlock(k int) {
	seq := p.eng.Reserve(k)
	if seq != p.refSeq {
		p.t.Fatalf("Reserve returned %d, want the next sequence number %d", seq, p.refSeq)
	}
	for i := 0; i < k; i++ {
		it := &refItem{at: p.eng.Now() + p.randomDelay(), seq: p.refSeq, id: p.nextID}
		p.nextID++
		p.refSeq++
		heap.Push(&p.ref, it)
		p.refByID[it.id] = it
		p.deferred = append(p.deferred, it)
	}
}

// queueDeferred queues a random third of the deferred events, picked out
// of order, and then every one the clock could otherwise reach before it
// is queued: those due no later than the next queued event.
func (p *propHarness) queueDeferred() {
	for i := 0; i < len(p.deferred); {
		if p.rng.Intn(3) == 0 {
			p.queueReserved(i)
		} else {
			i++
		}
	}
	next, ok := p.eng.PeekTime()
	for i := 0; i < len(p.deferred); {
		if !ok || p.deferred[i].at <= next {
			p.queueReserved(i)
		} else {
			i++
		}
	}
}

// queueReserved queues deferred[i] under its reserved number.
func (p *propHarness) queueReserved(i int) {
	it := p.deferred[i]
	p.deferred[i] = p.deferred[len(p.deferred)-1]
	p.deferred = p.deferred[:len(p.deferred)-1]
	h := p.eng.AtReserved(it.at, it.seq, p, uint64(it.id), 0, nil)
	p.live[it.id] = h
	p.late[h.ev.where]++
}

// foldDeferred folds deferred[i]: the engine counts it as fired without
// queueing it, and the reference drops it unfired.
func (p *propHarness) foldDeferred(i int) {
	it := p.deferred[i]
	p.deferred[i] = p.deferred[len(p.deferred)-1]
	p.deferred = p.deferred[:len(p.deferred)-1]
	p.eng.Fold(1)
	it.canceled = true
	delete(p.refByID, it.id)
	p.folded++
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
func (p *propHarness) where(id int) int8 { return p.live[id].ev.where }

// drain runs the engine dry and checks the reference agrees nothing is left.
func (p *propHarness) drain() {
	p.eng.Run()
	if rest := p.ref.popLive(); rest != nil {
		p.t.Fatalf("engine drained but reference still holds id %d (at %v)", rest.id, rest.at)
	}
	if p.eng.Pending() != 0 {
		p.t.Fatalf("Pending() = %d after drain", p.eng.Pending())
	}
	checkStore(p.t, p.eng)
}

// checkStore checks the bucket storage invariants: every chunk is on
// exactly one bucket chain or the free list, a chain ends at its tail, and
// the only non-nil store slots are the n live slots of some chain — no slot
// pins an event its bucket no longer holds.
func checkStore(t *testing.T, e *Engine) {
	t.Helper()
	if len(e.store) != len(e.link)*chunkLen {
		t.Fatalf("store holds %d slots for %d chunks", len(e.store), len(e.link))
	}
	claimed := make([]bool, len(e.link))
	claim := func(c int32) {
		if claimed[c] {
			t.Fatalf("chunk %d is on two lists", c)
		}
		claimed[c] = true
	}
	live := make([]bool, len(e.store))
	for i, l := range e.buckets {
		if bit := e.occupied[i>>6]>>(i&63)&1 == 1; bit != (l.n > 0) {
			t.Fatalf("bucket slot %d holds %d events, occupancy bit %v", i, l.n, bit)
		}
		c := l.head
		for left := int(l.n); left > 0; left -= chunkLen {
			claim(c)
			for k := range min(left, chunkLen) {
				live[int(c)*chunkLen+k] = true
			}
			if left <= chunkLen && c != l.tail {
				t.Fatalf("bucket slot %d ends at chunk %d, its tail is %d", i, c, l.tail)
			}
			c = e.link[c]
		}
	}
	for c := e.freeChunk; c >= 0; c = e.link[c] {
		claim(c)
	}
	for c, ok := range claimed {
		if !ok {
			t.Fatalf("chunk %d is on no bucket chain and not on the free list", c)
		}
	}
	for i, ev := range e.store {
		if live[i] != (ev != nil) {
			t.Fatalf("store slot %d (chunk %d): live %v, holds an event %v", i, i/chunkLen, live[i], ev != nil)
		}
	}
}

// scriptedHarness returns a harness whose firings only check the order and
// run the hooks a test registers.
func scriptedHarness(t *testing.T) *propHarness {
	p := newPropHarness(t, 7)
	p.scripted = true
	return p
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
	// Both sides must consume one sequence number per schedule, in the same
	// order, for the (at, seq) tiebreak to be comparable.
	it := &refItem{at: at, seq: p.refSeq, id: id}
	p.refSeq++
	if id%2 == 0 {
		p.live[id] = p.eng.AfterHandler(d, p, uint64(id), 0, nil)
	} else {
		p.live[id] = p.eng.AtHandler(at, p, uint64(id), 0, nil)
	}
	heap.Push(&p.ref, it)
	p.refByID[id] = it
	return id
}

// TestHybridMatchesReferenceHeapOrder schedules >10k events through the
// ladder/heap hybrid — half each through AfterHandler and AtHandler, with
// random cancellations (through the Handles) and re-arms along the way —
// and checks every single pop against a reference binary heap's (at, seq)
// order.
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

// TestReservedMatchesReferenceHeapOrder adds reserved blocks to the
// randomized schedule: their events are queued late, out of order, under
// numbers taken before the events scheduled in between, and must still pop
// in the reference heap's (at, seq) order, with Pending and Scheduled
// counting them from the reservation on. Some are folded instead of
// queued: they never fire, and Executed counts them from the fold on.
func TestReservedMatchesReferenceHeapOrder(t *testing.T) {
	for _, seed := range []uint64{3, 99, 0xfeedface} {
		p := newPropHarness(t, seed)
		p.reserve = true
		p.budget = 12000
		for i := 0; i < 2000 && p.budget > 0; i++ {
			p.budget--
			p.schedule(p.randomDelay())
		}
		p.drain()
		if len(p.deferred) != 0 {
			t.Fatalf("seed %d: %d reserved events never queued", seed, len(p.deferred))
		}
		for _, w := range []int8{locBucket, locCur, locFar} {
			if p.late[w] == 0 {
				t.Fatalf("seed %d: no late insertion landed in queue region %d (%v)", seed, w, p.late)
			}
		}
		if p.eng.Scheduled != p.refSeq {
			t.Fatalf("seed %d: Scheduled %d, want %d", seed, p.eng.Scheduled, p.refSeq)
		}
		if p.folded == 0 || p.eng.Executed != uint64(len(p.fired)+p.folded) {
			t.Fatalf("seed %d: Executed %d after %d fired and %d folded, want the sum and a fold",
				seed, p.eng.Executed, len(p.fired), p.folded)
		}
	}
}

// trainGap is the spacing of a back-to-back train: one MTU packet's
// serialization on a 200 Gbit/s uplink, the way a segmented RC write books it.
const trainGap = 166 * Nanosecond

// The calendar's bucket width and the window its ring covers.
const (
	bucketWidth = Time(1) << bucketShift
	windowSpan  = Time(numBuckets) << bucketShift
)

// TestSlidingWindowShapes scripts the schedules the per-bucket slide
// introduces — each through both scheduling flavours, every pop checked
// against the reference heap.
func TestSlidingWindowShapes(t *testing.T) {
	for _, frac := range []Time{9, 10, 15} { // tenths of a span
		t.Run(fmt.Sprintf("train late in a span/%d tenths", frac), func(t *testing.T) {
			// One instant, three quarters of the way through a span, books a
			// train reaching 0.9, 1.0 and 1.5 spans ahead: the first overflow
			// slides the window up to the clock, the rest file behind it.
			p := scriptedHarness(t)
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
			p := scriptedHarness(t)
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
		p := scriptedHarness(t)
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
		p := scriptedHarness(t)
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
		p := scriptedHarness(t)
		var ids []int
		for i := 0; i < 6; i++ { // three of each flavour, one bucket apart
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
	e.AtHandler(windowSpan*3/4, call(func() {
		for d := Time(0); d < windowSpan*9/10; d += trainGap {
			e.AfterHandler(d, noop, 0, 0, nil)
			if len(e.far) != 0 {
				t.Fatalf("event %v ahead of the clock (window %v) went to the far heap", d, windowSpan)
			}
		}
	}), 0, 0, nil)
	e.Run()
}

// TestRunUntilThenEarlierSchedule covers the rebase path: RunUntil jumps
// the window toward a far-future timer, then a schedule lands before the
// frontier and must still fire first.
func TestRunUntilThenEarlierSchedule(t *testing.T) {
	e := NewEngine(1)
	var order []string
	e.AtHandler(2*Second, call(func() { order = append(order, "far") }), 0, 0, nil)
	e.RunUntil(100) // window may jump toward the 2 s timer
	e.AtHandler(200, call(func() { order = append(order, "near") }), 0, 0, nil)
	e.AtHandler(150, call(func() { order = append(order, "nearer") }), 0, 0, nil)
	e.Run()
	if len(order) != 3 || order[0] != "nearer" || order[1] != "near" || order[2] != "far" {
		t.Fatalf("order = %v, want [nearer near far]", order)
	}
}

// TestChunkBoundaries scripts buckets at and around the chunk size, and the
// moves that re-chunk or free whole chains (rebase, closing an open bucket,
// Snapshot/Restore), through both scheduling flavours with every pop
// checked against the reference heap and the storage invariants checked
// after each move.
func TestChunkBoundaries(t *testing.T) {
	for _, n := range []int{chunkLen - 1, chunkLen, chunkLen + 1, 2 * chunkLen, 2*chunkLen + 1} {
		t.Run(fmt.Sprintf("bucket of %d", n), func(t *testing.T) {
			p := scriptedHarness(t)
			for i := 0; i < n; i++ { // descending instants: n runs of one
				p.schedule(5*bucketWidth + Time(n-i))
			}
			chunks := (n + chunkLen - 1) / chunkLen
			if got := p.eng.buckets[5].n; got != int32(n) || len(p.eng.link) != chunks {
				t.Fatalf("setup: bucket 5 holds %d events in %d chunks, want %d in %d", got, len(p.eng.link), n, chunks)
			}
			checkStore(t, p.eng)
			p.cancel(n / 2) // a cancelled entry mid-chain
			p.drain()
			// The freed chunks serve the next bucket: the store does not grow.
			for i := 0; i < n; i++ {
				p.schedule(bucketWidth + Time(i))
			}
			if len(p.eng.link) != chunks {
				t.Fatalf("a second bucket of %d grew the store to %d chunks, want %d", n, len(p.eng.link), chunks)
			}
			p.drain()
		})
	}
	t.Run("rebase of multi-chunk buckets", func(t *testing.T) {
		p := scriptedHarness(t)
		far := 5 * windowSpan
		for i := 0; i < 2*chunkLen+3; i++ {
			p.schedule(far + 3 + Time(i%7))
		}
		for i := 0; i < chunkLen+1; i++ {
			p.schedule(far + 40*bucketWidth + Time(i))
		}
		p.eng.RunUntil(windowSpan / 2) // the peek jumps the window to the frontier, refills both, opens the first
		if !p.eng.opened || p.eng.buckets[bucketOf(far+40*bucketWidth)&bucketMask].n != chunkLen+1 {
			t.Fatalf("setup: opened %v, want the first bucket open and the second a closed 2-chunk chain", p.eng.opened)
		}
		p.schedule(100) // below the window: every near event goes back to the far heap
		if len(p.eng.far) != 3*chunkLen+4 || p.eng.nearCount != 1 {
			t.Fatalf("far %d near %d after the rebase, want %d and the one new event", len(p.eng.far), p.eng.nearCount, 3*chunkLen+4)
		}
		checkStore(t, p.eng)
		p.drain()
	})
	t.Run("close a multi-chunk remainder and the open heap", func(t *testing.T) {
		p := scriptedHarness(t)
		base := 9 * bucketWidth
		var ids []int
		for i := 0; i < 2*chunkLen+5; i++ {
			ids = append(ids, p.schedule(base+Time(i)))
		}
		for _, id := range ids[:3] {
			p.cancel(id) // the peek prunes these, leaving a remainder at pos 3
		}
		p.eng.RunUntil(3 * bucketWidth) // the peek opens bucket 9 ahead of the clock
		if !p.eng.opened || p.eng.cursor != 9 || p.eng.pos != 3 {
			t.Fatalf("setup: cursor %d opened %v pos %d, want bucket 9 open at 3", p.eng.cursor, p.eng.opened, p.eng.pos)
		}
		for i := 0; i < chunkLen+2; i++ { // into the open bucket's heap, descending
			p.schedule(base + bucketWidth - 1 - Time(i) - p.eng.Now())
		}
		p.schedule(5*bucketWidth - p.eng.Now()) // below the cursor: bucket 9 closes
		want := int32(2*chunkLen + 2 + chunkLen + 2)
		if p.eng.opened || p.eng.cursor != 5 || p.eng.buckets[9].n != want {
			t.Fatalf("cursor %d opened %v, bucket 9 holds %d; want bucket 9 closed with %d", p.eng.cursor, p.eng.opened, p.eng.buckets[9].n, want)
		}
		checkStore(t, p.eng)
		p.drain()
	})
	t.Run("snapshot and restore mid-chain", func(t *testing.T) {
		s := &shape{eng: NewEngine(1)}
		s.addRuns(2*bucketWidth, 2*chunkLen+1, 2) // 66 entries: five chunks
		s.addRuns(4*bucketWidth, chunkLen+1, 2)
		s.add(3 * windowSpan)
		for id := chunkLen - 1; id < len(s.ents); id += chunkLen {
			s.cancel(id) // on chunk boundaries
		}
		s.eng.RunUntil(2*bucketWidth + bucketWidth/4) // bucket 2 open and partly consumed
		snap := s.eng.Snapshot()
		mark := len(s.fired)
		s.eng.Run()
		s.check(t)
		first := slices.Clone(s.fired[mark:])
		s.eng.Restore(snap)
		checkStore(t, s.eng)
		s.fired = s.fired[:mark]
		s.eng.RunUntil(4*bucketWidth + bucketWidth/4) // bucket 4 open, partly consumed
		s.eng.Restore(snap)                           // purges an open bucket, a chain and the far heap
		checkStore(t, s.eng)
		s.fired = s.fired[:mark]
		s.eng.Run()
		if !slices.Equal(s.fired[mark:], first) {
			t.Fatalf("rerun after Restore fired a different order")
		}
		checkStore(t, s.eng)
	})
}

// TestTimeShiftInvariance is the time-shift metamorphic relation at the
// engine level: the same randomized schedule/cancel script started Δ later
// fires the same ids in the same order, each exactly Δ later. Every Δ lays
// the script across bucket, chunk and window boundaries differently, so the
// relation needs no expected value.
func TestTimeShiftInvariance(t *testing.T) {
	run := func(delta Time) *propHarness {
		p := newPropHarness(t, 5)
		p.eng.RunUntil(delta)
		p.budget = 6000
		for i := 0; i < 1000; i++ {
			p.budget--
			p.schedule(p.randomDelay())
		}
		p.drain()
		return p
	}
	base := run(0)
	for _, delta := range []Time{1, bucketWidth - 1, windowSpan + 3, 7 * windowSpan / 3} {
		p := run(delta)
		if !slices.Equal(p.fired, base.fired) {
			t.Fatalf("Δ=%v: fired a different id sequence (%d vs %d events)", delta, len(p.fired), len(base.fired))
		}
		for i, at := range p.firedAt {
			if at-delta != base.firedAt[i] {
				t.Fatalf("Δ=%v: id %d fired at %v, want %v + Δ", delta, p.fired[i], at, base.firedAt[i])
			}
		}
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

// TestHandleActiveLifecycle: a handle is active until its event fires or is
// cancelled, and stays inactive after the run recycles both events.
func TestHandleActiveLifecycle(t *testing.T) {
	e := NewEngine(1)
	h := &recordHandler{}
	ev := e.AtHandler(10, h, 1, 0, nil)
	cancelled := e.AtHandler(20, h, 2, 0, nil)
	cancelled.Cancel()
	if !ev.Active() {
		t.Fatal("pending handle not active before Run")
	}
	if cancelled.Active() {
		t.Fatal("cancelled handle active before Run")
	}
	e.Run()
	if ev.Active() {
		t.Fatal("handle still active after its event fired")
	}
	if cancelled.Active() {
		t.Fatal("cancelled handle active after the run")
	}
	if len(h.calls) != 1 || h.calls[0] != 1 {
		t.Fatalf("calls = %v, want only the uncancelled event", h.calls)
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
	if len(e.free) != 1 {
		t.Fatalf("free list holds %d events, want 1 (one event recycled %d times)", len(e.free), n)
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

// TestHandlerPathAllocFree is the allocation gate: the schedule/fire/recycle
// cycle must not allocate at all once the pool is warm.
func TestHandlerPathAllocFree(t *testing.T) {
	e := NewEngine(1)
	h := &rearmHandler{}
	// Warm the pool and the bucket store.
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

// shape scripts a schedule through AtHandler and records the firing order;
// arg0 is the entry's index.
type shape struct {
	eng   *Engine
	ents  []shapeEntry
	fired []int
}

func (s *shape) OnEvent(_ *Engine, _ Handle, arg0 uint64, _ int, _ any) {
	s.fired = append(s.fired, int(arg0))
}

func (s *shape) add(at Time) int {
	id := len(s.ents)
	s.ents = append(s.ents, shapeEntry{at: at, seq: s.eng.seq, h: s.eng.AtHandler(at, s, uint64(id), 0, nil)})
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

// runsFit is the most runs of per entries addRuns interleaves in one bucket.
func runsFit(t *testing.T, per int) int {
	n := int(bucketWidth/Time(per)) - 1
	if n < 30 {
		t.Fatalf("only %d runs of %d fit a %v bucket; the shapes want at least 30", n, per, bucketWidth)
	}
	return n
}

// addRuns appends n interleaved ascending runs of per entries each inside
// the bucket starting at base: run r holds base+r, base+r+stride, ..., so
// every run boundary is a descent.
func (s *shape) addRuns(base Time, n, per int) {
	stride := bucketWidth / Time(per)
	if Time(n) >= stride {
		panic("runs do not fit the bucket")
	}
	for r := 0; r < n; r++ {
		for j := 0; j < per; j++ {
			s.add(base + Time(r) + Time(j)*stride)
		}
	}
}

func TestBucketShapes(t *testing.T) {
	t.Run("descending", func(t *testing.T) {
		s := &shape{eng: NewEngine(1)}
		for at := bucketWidth - 1; at >= 0; at-- { // bucketWidth runs of one
			s.add(at)
		}
		s.eng.Run()
		s.check(t)
	})
	t.Run("interleaved runs", func(t *testing.T) {
		s := &shape{eng: NewEngine(1)}
		n := runsFit(t, 4)
		s.addRuns(3*bucketWidth, n, 4)
		s.addRuns(3*bucketWidth, n-7, 2) // same instants again: ties across runs
		s.eng.Run()
		s.check(t)
	})
	t.Run("equal instants", func(t *testing.T) {
		// Six runs over the same eight instants: the merge meets a tie at
		// every run boundary, and each fires in insertion order.
		s := &shape{eng: NewEngine(1)}
		for r := 0; r < 6; r++ {
			for j := 0; j < 8; j++ {
				s.add(Time(10 * j))
			}
		}
		s.eng.Run()
		s.check(t)
	})
	t.Run("cancelled inside runs", func(t *testing.T) {
		s := &shape{eng: NewEngine(1)}
		s.addRuns(0, runsFit(t, 4), 4)
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
			s.add(at)
		}
		s.cancel(s.add(9*bucketWidth + 7))
		s.add(5 * bucketWidth)
		if s.eng.opened || s.eng.cursor != 5 {
			t.Fatalf("setup: cursor %d opened %v, want bucket 5 closed", s.eng.cursor, s.eng.opened)
		}
		s.addRuns(9*bucketWidth, 3, 4)
		s.eng.Run()
		s.check(t)
	})
	t.Run("snapshot mid-bucket", func(t *testing.T) {
		s := &shape{eng: NewEngine(1)}
		s.addRuns(2*bucketWidth, runsFit(t, 4), 4)
		s.eng.RunUntil(2*bucketWidth + bucketWidth/5) // bucket 2 open and partly consumed
		for at := 3*bucketWidth - 1; at > 3*bucketWidth-30; at-- {
			s.add(at) // open-bucket heap, descending
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
		s.add(at)
		s.add(at + 5)
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

// TestOpenBucketAllocFree gates the bucket storage and the merge's working
// memory: once the chunks, the open slice, the run list and the scratch have
// grown to the bucket sizes in use, filling and opening buckets made of
// several runs allocates nothing — in ring slots never used before, since
// every bucket draws on the same chunks.
func TestOpenBucketAllocFree(t *testing.T) {
	e := NewEngine(1)
	var noop recordNothing
	stride := bucketWidth / 64
	round := func() {
		base := (e.Now()/bucketWidth + 2) * bucketWidth
		for r := 0; r < 5; r++ {
			for j := 0; j < 60; j++ {
				e.AtHandler(base+Time(r)+Time(j)*stride, noop, 0, 0, nil)
			}
		}
		e.Run()
	}
	round()
	round()
	if avg := testing.AllocsPerRun(20, round); avg != 0 {
		t.Fatalf("filling and opening a 5-run bucket allocates: %.2f allocs per bucket, want 0", avg)
	}
}

// TestBucketStorageFollowsQueue: a burst moved one bucket on per round for
// three laps of the ring keeps reusing one burst's chunks. Slot-owned bucket
// storage would instead grow every slot to the burst, about numBuckets times
// as much.
func TestBucketStorageFollowsQueue(t *testing.T) {
	const burst = 100
	e := NewEngine(1)
	var noop recordNothing
	for round := 0; round < 3*numBuckets; round++ {
		at := (e.Now()/bucketWidth + 1) * bucketWidth
		for i := 0; i < burst; i++ {
			e.AtHandler(at, noop, 0, 0, nil) // one instant: a multicast fan-out
		}
		e.Run()
	}
	if bucketOf(e.Now()) != 3*numBuckets {
		t.Fatalf("the burst reached bucket %d, want three laps (%d)", bucketOf(e.Now()), 3*numBuckets)
	}
	if bound := ((burst+chunkLen-1)/chunkLen + 2) * chunkLen; len(e.store) > bound {
		t.Fatalf("store grew to %d slots for a %d-event burst, want at most %d", len(e.store), burst, bound)
	}
	checkStore(t, e)
}

type recordNothing struct{}

func (recordNothing) OnEvent(*Engine, Handle, uint64, int, any) {}
