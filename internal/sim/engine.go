// Package sim implements a deterministic discrete-event simulation engine.
//
// The engine is the substrate for every other subsystem in this repository:
// the packet-level fabric, the verbs transport layer, the collective
// protocol state machines, and the DPA execution model all advance virtual
// time exclusively through events scheduled here.
//
// The engine is intentionally single-threaded: determinism (same seed, same
// schedule, same results, bit for bit) is worth far more to a reproduction
// study than intra-simulation parallelism. Benchmarks that need wall-clock
// parallelism run many independent Engine instances concurrently.
//
// # Scheduler
//
// Events are ordered by (time, insertion sequence): ties fire FIFO with
// respect to scheduling order, and that order is the determinism contract
// every golden value in this repository depends on. Internally the queue is
// a hybrid: a ring of near-future calendar buckets ("ladder") indexed by
// absolute bucket number, covering a window that slides with the clock one
// bucket at a time, backed by a binary heap for far-future events
// (retransmission timers, cutoff timers, scenario schedules). The invariant:
// near events live in buckets [cursor, start+numBuckets), far events at or
// beyond start+numBuckets, and start trails at the clock's bucket — so an
// event less than a window (minus the clock's partial bucket) ahead of now
// never touches the heap. Insertion into the window is an O(1) append; when
// the clock reaches a bucket its ascending runs are merged once (a bucket
// that was appended in order, the common case, costs one scan). The pop
// order is exactly the (at, seq) order a single binary heap would produce —
// hybrid_test.go checks this against a reference heap over randomized
// schedules.
//
// # Closure-free scheduling
//
// At/After take a func() and allocate one Event plus (at most call sites)
// one capturing closure per event. The hot paths — every packet hop, every
// signaled send, every per-round collective timer — instead use AtHandler/
// AfterHandler: a typed Handler interface plus packed arguments (a uint64,
// an int, and one pointer-shaped payload), no closure. Handler events are
// recycled through a free list once fired or cancelled, so steady-state
// hot-path scheduling does not allocate at all. Cancellation of handler
// events goes through the value-type Handle, which carries a generation
// number so a stale handle held across the event's recycling is a no-op.
package sim

import (
	"container/heap"
	"fmt"
	"math"
	"time"
)

// Time is virtual simulation time in nanoseconds. Using a dedicated type
// (rather than time.Duration) keeps virtual and wall-clock time from being
// confused at call sites.
type Time int64

// Common durations expressed in virtual nanoseconds.
const (
	Nanosecond  Time = 1
	Microsecond Time = 1000 * Nanosecond
	Millisecond Time = 1000 * Microsecond
	Second      Time = 1000 * Millisecond
)

// MaxTime is the latest representable virtual time.
const MaxTime Time = math.MaxInt64

// Duration converts a virtual time span to a time.Duration for reporting.
func (t Time) Duration() time.Duration { return time.Duration(int64(t)) }

// Seconds returns the virtual time as floating-point seconds.
func (t Time) Seconds() float64 { return float64(t) / float64(Second) }

// Micros returns the virtual time as floating-point microseconds.
func (t Time) Micros() float64 { return float64(t) / float64(Microsecond) }

func (t Time) String() string { return t.Duration().String() }

// Calendar-queue geometry: a ring of 512 buckets of 512 ns covers a 262 µs
// window ahead of the clock; bucket number n (at >> bucketShift) lives in
// slot n & bucketMask. Packet-scale events (serialization ~170 ns, hop
// latency 250 ns) land a few buckets out, and the 256 segments of a 1 MiB
// write booked on an uplink at one instant (152 µs) fit; RC retransmission
// timeouts (200 µs past the last segment) and scenario schedules overflow
// to the far-future heap.
const (
	bucketShift = 9 // log2(bucket width in ns)
	bucketWidth = Time(1) << bucketShift
	numBuckets  = 512 // a power of two
	bucketMask  = numBuckets - 1
	windowSpan  = Time(numBuckets) << bucketShift
)

// bucketOf returns the absolute number of the bucket holding time t.
func bucketOf(t Time) int64 { return int64(t >> bucketShift) }

// Event locations within the hybrid queue.
const (
	locNone   int8 = iota // not queued (fired, cancelled-and-removed, or free)
	locBucket             // in a (possibly unsorted) calendar bucket
	locCur                // in the open bucket's insertion heap
	locFar                // in the far-future binary heap
)

// Handler is the closure-free event callback: one OnEvent call per fired
// event, with the arguments packed at scheduling time. ev identifies the
// firing event (it equals the Handle returned by AtHandler, letting a
// handler that tracks its pending events find the entry without a wrapper
// closure); obj carries one pointer-shaped payload (a *Packet, a *QP — a
// pointer, so boxing it does not allocate) and may be nil.
//
// Handler events are pooled: the engine recycles the Event before OnEvent
// runs, so implementations must not retain ev past the call.
type Handler interface {
	OnEvent(e *Engine, ev Handle, arg0 uint64, arg1 int, obj any)
}

// Event is a scheduled callback. Events are ordered by time; ties are broken
// by insertion sequence so the execution order of simultaneous events is
// deterministic and FIFO with respect to scheduling order.
type Event struct {
	at    Time
	seq   uint64
	gen   uint64 // bumped each time a pooled event is recycled
	index int    // heap index while in far/cur heaps; -1 otherwise
	where int8
	// pooled marks events born on the handler path: no *Event pointer ever
	// escapes for them, so they are safe to recycle. Closure events hand
	// their pointer to the caller (for Cancel/Canceled/Fired) and are never
	// reused.
	pooled   bool
	canceled bool
	fired    bool
	eng      *Engine
	fn       func()
	h        Handler
	arg0     uint64
	arg1     int
	obj      any
}

// Time returns the virtual time at which the event fires.
func (e *Event) Time() Time { return e.at }

// Cancel prevents a pending event from firing. The event leaves the live
// count immediately and its callback is released at once (so a cancelled
// long-lived timer does not pin its closure); far-future events are also
// removed from the heap immediately, while near-future bucket entries are
// reclaimed when the clock reaches their bucket. Cancelling an event that
// has already fired (or was already cancelled) is a no-op.
func (e *Event) Cancel() {
	if e == nil || e.canceled || e.fired || e.where == locNone {
		return
	}
	e.canceled = true
	e.fn = nil
	e.h = nil
	e.obj = nil
	eng := e.eng
	eng.live--
	switch e.where {
	case locFar:
		heap.Remove(&eng.far, e.index)
		e.where = locNone
		eng.release(e)
	case locCur:
		heap.Remove(&eng.cur, e.index)
		eng.nearCount--
		e.where = locNone
		eng.release(e)
	case locBucket:
		// Left in place; the bucket sweep recycles it.
	}
}

// Canceled reports whether Cancel was called on the event.
func (e *Event) Canceled() bool { return e.canceled }

// Fired reports whether the event's callback has run.
func (e *Event) Fired() bool { return e.fired }

// Handle is a value-type reference to a scheduled handler event. The zero
// Handle is inert. Because handler events are recycled, the handle carries
// the generation it was issued under: cancelling a handle whose event has
// since fired and been reused is a safe no-op, which is exactly the
// semantics a retransmission timer racing its own ack needs.
type Handle struct {
	ev  *Event
	gen uint64
}

// Cancel cancels the referenced event if it is still the same incarnation
// and still pending; otherwise it does nothing.
func (h Handle) Cancel() {
	if h.ev != nil && h.ev.gen == h.gen {
		h.ev.Cancel()
	}
}

// Active reports whether the referenced event is still pending.
func (h Handle) Active() bool {
	return h.ev != nil && h.ev.gen == h.gen && !h.ev.canceled && !h.ev.fired
}

// Time returns the firing time of the referenced event, or -1 if the handle
// is stale (fired, cancelled and recycled, or zero).
func (h Handle) Time() Time {
	if h.ev == nil || h.ev.gen != h.gen {
		return -1
	}
	return h.ev.at
}

// eventHeap orders events by (at, seq); used for the far-future overflow
// and for insertions into the already-open bucket.
type eventHeap []*Event

func (h eventHeap) Len() int { return len(h) }
func (h eventHeap) Less(i, j int) bool {
	if h[i].at != h[j].at {
		return h[i].at < h[j].at
	}
	return h[i].seq < h[j].seq
}
func (h eventHeap) Swap(i, j int) {
	h[i], h[j] = h[j], h[i]
	h[i].index = i
	h[j].index = j
}
func (h *eventHeap) Push(x any) {
	e := x.(*Event)
	e.index = len(*h)
	*h = append(*h, e)
}
func (h *eventHeap) Pop() any {
	old := *h
	n := len(old)
	e := old[n-1]
	old[n-1] = nil
	e.index = -1
	*h = old[:n-1]
	return e
}

// before reports whether a fires before b under the engine's total order.
func before(a, b *Event) bool {
	if a.at != b.at {
		return a.at < b.at
	}
	return a.seq < b.seq
}

// Engine is a discrete-event simulator instance. The zero value is not
// usable; construct with NewEngine.
type Engine struct {
	now     Time
	seq     uint64
	rng     *RNG
	stopped bool

	// Near-future calendar: a ring of buckets of bucketWidth ns covering
	// bucket numbers [start, start+numBuckets). start trails at the clock's
	// bucket and is moved up lazily, when a schedule would overflow (slide).
	// cursor, start <= cursor < start+numBuckets, is the bucket being (or
	// next to be) consumed and may run ahead of the clock (a peek, RunUntil);
	// when opened, the cursor bucket's [pos:] is the sorted remainder and cur
	// holds events inserted into the open bucket after sorting.
	start     int64
	cursor    int64
	opened    bool
	pos       int
	buckets   [numBuckets][]*Event
	cur       eventHeap
	nearCount int // events physically held in buckets + cur (incl. cancelled)
	// openBucket's working memory, kept between calls: the run offsets of
	// the bucket being ordered and the merge scratch (nil-filled when idle).
	runs    []int
	scratch []*Event

	// Far-future overflow: everything at or beyond bucket start+numBuckets.
	far eventHeap

	live int // scheduled, not yet fired, not cancelled

	free []*Event // recycled handler events

	// Throughput counters, exported so harnesses can surface engine
	// throughput in their Records (all three are deterministic counts).
	//
	// Executed counts events that have fired, for diagnostics and for
	// guarding against runaway simulations in tests. Scheduled counts every
	// At/After/AtHandler/AfterHandler call. Recycled counts handler events
	// served from the free list instead of the heap allocator.
	Executed  uint64
	Scheduled uint64
	Recycled  uint64

	// splits records the child generators handed out by SplitRNG, in
	// creation order, so Reseed can replay the derivations and leave every
	// child in exactly the state a cold construction with the new seed
	// would have produced.
	splits []*RNG

	// EventHook, when non-nil, observes every fired event just before its
	// callback runs: the firing time, its (possibly banded) sequence key,
	// and the handler (nil for closure events). It exists for the replay
	// debugger's step mode; the nil check is the only cost on the hot path.
	EventHook func(at Time, seq uint64, h Handler)
}

// localSeqBand is the first sequence number the engine's own counter hands
// out. Sequence numbers below the band are reserved for AtOrdered, whose
// seq is a caller-supplied order key: at equal firing times every ordered
// event fires before every counter-sequenced one, and ordered events fire
// in ascending key order. An engine that never sees AtOrdered has all its
// events in the upper band, where (at, seq) is plain scheduling order.
const localSeqBand = uint64(1) << 63

// NewEngine returns an engine with virtual time 0 and a deterministic RNG
// seeded with seed.
func NewEngine(seed uint64) *Engine {
	return &Engine{rng: NewRNG(seed), seq: localSeqBand}
}

// Now returns the current virtual time.
func (e *Engine) Now() Time { return e.now }

// RNG returns the engine's deterministic random number generator.
func (e *Engine) RNG() *RNG { return e.rng }

// SplitRNG derives a child generator from the engine's root RNG and records
// it, so Snapshot captures its state and Reseed can re-derive it. Model
// layers that seed themselves from the engine at construction (the fabric's
// drop/jitter stream) must use this instead of RNG().Split() to stay
// snapshot- and reseed-coherent.
func (e *Engine) SplitRNG() *RNG {
	r := e.rng.Split()
	e.splits = append(e.splits, r)
	return r
}

// Reseed rewinds the engine's RNG tree to the state a cold NewEngine(seed)
// construction would have: the root is reseeded and every SplitRNG child is
// re-derived in its original creation order. It is only sound while the
// root stream has been consumed exclusively by SplitRNG since construction
// — true for every model layer in this repository, where runtime draws come
// from the children — and exists so a warm-forked instance can adopt a new
// sweep point's seed exactly as if it had been built cold with it.
func (e *Engine) Reseed(seed uint64) {
	e.rng.SetState(NewRNG(seed).State())
	for _, child := range e.splits {
		child.SetState(e.rng.Split().State())
	}
}

// At schedules fn to run at absolute virtual time t. Scheduling in the past
// panics: that is always a protocol-logic bug, and silently clamping would
// mask it.
//
// The returned *Event stays valid for Cancel/Canceled/Fired indefinitely
// (closure events are never recycled); hot paths that do not need to hold
// the event should prefer AtHandler, which pools.
func (e *Engine) At(t Time, fn func()) *Event {
	if t < e.now {
		panic(fmt.Sprintf("sim: scheduling event at %v before now %v", t, e.now))
	}
	ev := &Event{at: t, seq: e.seq, eng: e, fn: fn, index: -1}
	e.seq++
	e.schedule(ev)
	return ev
}

// After schedules fn to run d nanoseconds from now.
func (e *Engine) After(d Time, fn func()) *Event {
	if d < 0 {
		panic(fmt.Sprintf("sim: negative delay %v", d))
	}
	return e.At(e.now+d, fn)
}

// AtHandler schedules h.OnEvent(e, handle, arg0, arg1, obj) at absolute
// virtual time t. The event is drawn from the engine's free list and
// recycled after firing or cancellation, and no closure is involved: the
// closure-free hot path. obj must be pointer-shaped (or nil) to stay
// allocation-free.
func (e *Engine) AtHandler(t Time, h Handler, arg0 uint64, arg1 int, obj any) Handle {
	if t < e.now {
		panic(fmt.Sprintf("sim: scheduling event at %v before now %v", t, e.now))
	}
	ev := e.get()
	ev.at = t
	ev.seq = e.seq
	e.seq++
	ev.h = h
	ev.arg0 = arg0
	ev.arg1 = arg1
	ev.obj = obj
	e.schedule(ev)
	return Handle{ev: ev, gen: ev.gen}
}

// AtOrdered schedules h.OnEvent like AtHandler but with a caller-chosen
// sequence key from the reserved low band instead of the engine's own
// counter, for a subsystem whose same-time event order must be a pure
// function of (time, order) rather than of scheduling order (the fabric's
// keyed pipeline). Keys should be unique per (engine, time): the calendar's
// run merge is stable, so colliding keys fire in insertion order.
func (e *Engine) AtOrdered(t Time, order uint64, h Handler, arg0 uint64, arg1 int, obj any) Handle {
	if t < e.now {
		panic(fmt.Sprintf("sim: scheduling ordered event at %v before now %v", t, e.now))
	}
	if order >= localSeqBand {
		panic(fmt.Sprintf("sim: AtOrdered key %#x intrudes on the local sequence band", order))
	}
	ev := e.get()
	ev.at = t
	ev.seq = order
	ev.h = h
	ev.arg0 = arg0
	ev.arg1 = arg1
	ev.obj = obj
	e.schedule(ev)
	return Handle{ev: ev, gen: ev.gen}
}

// AfterHandler schedules h.OnEvent d nanoseconds from now; see AtHandler.
func (e *Engine) AfterHandler(d Time, h Handler, arg0 uint64, arg1 int, obj any) Handle {
	if d < 0 {
		panic(fmt.Sprintf("sim: negative delay %v", d))
	}
	return e.AtHandler(e.now+d, h, arg0, arg1, obj)
}

// get pops a recycled event or allocates a fresh pooled one.
func (e *Engine) get() *Event {
	if n := len(e.free); n > 0 {
		ev := e.free[n-1]
		e.free[n-1] = nil
		e.free = e.free[:n-1]
		e.Recycled++
		return ev
	}
	return &Event{eng: e, pooled: true, index: -1}
}

// release returns a pooled event to the free list, bumping its generation
// so outstanding Handles go stale. Closure events only drop their callback:
// their *Event may still be held by the caller, so flags (and the pointer
// identity) must survive.
func (e *Engine) release(ev *Event) {
	if !ev.pooled {
		ev.fn = nil
		return
	}
	ev.gen++
	ev.fn = nil
	ev.h = nil
	ev.obj = nil
	ev.arg0, ev.arg1 = 0, 0
	ev.canceled, ev.fired = false, false
	ev.where = locNone
	ev.index = -1
	e.free = append(e.free, ev)
}

// bucket returns the ring slot of absolute bucket number n.
func (e *Engine) bucket(n int64) *[]*Event { return &e.buckets[n&bucketMask] }

// schedule files the event into the hybrid queue.
func (e *Engine) schedule(ev *Event) {
	e.Scheduled++
	e.live++
	b := bucketOf(ev.at)
	if b < e.start {
		// The window was jumped ahead of the clock (RunUntil past a queue
		// gap, then a schedule before the far-future frontier). Restart the
		// whole calendar at the clock; rare, O(near events).
		e.rebase()
	} else if b >= e.start+numBuckets && bucketOf(e.now) > e.start {
		e.slide() // the window trails the clock: catch up before overflowing
	}
	if b >= e.start+numBuckets {
		ev.where = locFar
		heap.Push(&e.far, ev)
		return
	}
	if b == e.cursor && e.opened {
		ev.where = locCur
		heap.Push(&e.cur, ev)
		e.nearCount++
		return
	}
	if b < e.cursor {
		// An earlier-in-window insertion (a peek or RunUntil ran the cursor
		// ahead of the clock): step the cursor back.
		e.closeOpen()
		e.cursor = b
	}
	ev.where = locBucket
	slot := e.bucket(b)
	*slot = append(*slot, ev)
	e.nearCount++
}

// slide moves the window start up to the clock's bucket and pulls in the far
// events the window now covers. Buckets below the cursor are empty, so the
// ring slots the move re-numbers are free — which is why the start never
// passes the cursor while near events remain (cancelled entries the cursor
// has not swept yet can hold it behind the clock).
func (e *Engine) slide() {
	s := bucketOf(e.now)
	if e.nearCount > 0 && s > e.cursor {
		s = e.cursor
	}
	if s <= e.start {
		return
	}
	if e.nearCount == 0 {
		e.closeOpen() // open but exhausted; the cursor re-anchors on the clock
		e.cursor = s
	}
	e.start = s
	e.refill()
}

// closeOpen folds an open bucket back into closed state: the unconsumed
// sorted remainder and any open-bucket insertions (in heap-pop order, so two
// runs) go back into the bucket slice for a later openBucket to merge.
func (e *Engine) closeOpen() {
	if !e.opened {
		return
	}
	b := *e.bucket(e.cursor)
	n := copy(b, b[e.pos:])
	for i := n; i < len(b); i++ {
		b[i] = nil
	}
	b = b[:n]
	for len(e.cur) > 0 {
		ev := heap.Pop(&e.cur).(*Event)
		ev.where = locBucket
		b = append(b, ev)
	}
	*e.bucket(e.cursor) = b
	e.pos = 0
	e.opened = false
}

// rebase moves every near-future event to the far heap and restarts the
// window at the clock's bucket. Only schedule() calls it, for times below the
// window start.
func (e *Engine) rebase() {
	e.closeOpen()
	for i := range e.buckets {
		for _, ev := range e.buckets[i] {
			ev.where = locFar
			heap.Push(&e.far, ev)
		}
		e.buckets[i] = e.buckets[i][:0]
	}
	e.nearCount = 0
	e.start = bucketOf(e.now)
	e.cursor = e.start
	e.refill()
}

// refill drains far-future events that now fall inside the window into
// their buckets, all of them at or beyond the cursor.
func (e *Engine) refill() {
	for len(e.far) > 0 && bucketOf(e.far[0].at) < e.start+numBuckets {
		ev := heap.Pop(&e.far).(*Event)
		ev.where = locBucket
		slot := e.bucket(bucketOf(ev.at))
		*slot = append(*slot, ev)
		e.nearCount++
	}
}

// openBucket orders the cursor's bucket by (at, seq) and starts consuming
// it. A bucket fills by appends from a handful of sources that each
// schedule in ascending time — it is a few ascending runs laid end to end,
// usually one — so this is a natural merge sort: find the runs, return if
// there is one, otherwise merge adjacent runs pairwise until one remains.
// Stable (equal keys keep insertion order) and allocation-free once the
// engine-owned run list and scratch have grown to the bucket sizes in use.
func (e *Engine) openBucket() {
	b := *e.bucket(e.cursor)
	e.pos = 0
	e.opened = true
	runs := e.runs[:0] // start offset of every run
	for i := range b {
		if i == 0 || before(b[i], b[i-1]) {
			runs = append(runs, i)
		}
	}
	e.runs = runs
	if len(runs) <= 1 {
		return
	}
	if len(e.scratch) < len(b) {
		e.scratch = make([]*Event, len(b))
	}
	for len(runs) > 1 {
		merged := runs[:0]
		for i := 0; i < len(runs); i += 2 {
			lo := runs[i]
			merged = append(merged, lo)
			if i+1 == len(runs) {
				break // odd run out: already in place
			}
			hi := len(b)
			if i+2 < len(runs) {
				hi = runs[i+2]
			}
			mergeRuns(b[lo:hi], runs[i+1]-lo, e.scratch)
		}
		runs = merged
	}
	clear(e.scratch[:len(b)]) // pin no *Event past the sort
}

// mergeRuns merges the ascending runs b[:mid] and b[mid:] in place: the left
// run moves to scratch and the output overwrites b from the front, which
// never overtakes the unread part of the right run. Ties go to the left.
func mergeRuns(b []*Event, mid int, scratch []*Event) {
	left := scratch[:copy(scratch, b[:mid])]
	i, j, k := 0, mid, 0
	for i < len(left) && j < len(b) {
		if before(b[j], left[i]) {
			b[k] = b[j]
			j++
		} else {
			b[k] = left[i]
			i++
		}
		k++
	}
	copy(b[k:], left[i:]) // right-run leftovers are already in place
}

// advance moves the cursor to the next non-empty bucket and opens it. The
// window start stays where it is: the cursor never leaves the window while a
// near event remains. Precondition: the current bucket is closed and at least
// one event is queued somewhere.
func (e *Engine) advance() {
	if e.nearCount == 0 {
		// Nothing inside the window: jump it to the far-future frontier
		// instead of walking empty buckets toward a distant timer.
		e.start = bucketOf(e.far[0].at)
		e.cursor = e.start
		e.refill()
	}
	for len(*e.bucket(e.cursor)) == 0 {
		e.cursor++
	}
	e.openBucket()
}

// peekEvent returns the next live event without consuming it (nil when the
// queue is empty), pruning cancelled bucket entries as it goes.
func (e *Engine) peekEvent() *Event {
	for {
		if !e.opened {
			if e.nearCount == 0 && len(e.far) == 0 {
				return nil
			}
			e.advance()
		}
		b := *e.bucket(e.cursor)
		for e.pos < len(b) && b[e.pos].canceled {
			ev := b[e.pos]
			b[e.pos] = nil
			e.pos++
			e.nearCount--
			ev.where = locNone
			e.release(ev)
		}
		// No cancelled-entry sweep for e.cur: Cancel heap.Removes open-bucket
		// entries eagerly, so its root is always live.
		var next *Event
		if e.pos < len(b) {
			next = b[e.pos]
		}
		if len(e.cur) > 0 && (next == nil || before(e.cur[0], next)) {
			next = e.cur[0]
		}
		if next != nil {
			return next
		}
		// Open bucket exhausted: recycle its slice; the next iteration's
		// advance() finds the following non-empty bucket.
		*e.bucket(e.cursor) = b[:0]
		e.pos = 0
		e.opened = false
	}
}

// popEvent consumes and returns the next live event, or nil.
func (e *Engine) popEvent() *Event {
	ev := e.peekEvent()
	if ev == nil {
		return nil
	}
	if ev.where == locCur {
		heap.Pop(&e.cur)
	} else {
		(*e.bucket(e.cursor))[e.pos] = nil
		e.pos++
	}
	e.nearCount--
	ev.where = locNone
	return ev
}

// Pending returns the number of events still queued. Cancelled events leave
// the count at Cancel time.
func (e *Engine) Pending() int { return e.live }

// PeekTime returns the firing time of the next live event. ok is false when
// the queue is empty. Peeking may run the cursor ahead of the clock (and jump
// an empty window to the far-future frontier) but never consumes or reorders
// events; a later schedule below the cursor steps it back.
func (e *Engine) PeekTime() (t Time, ok bool) {
	ev := e.peekEvent()
	if ev == nil {
		return 0, false
	}
	return ev.at, true
}

// PoolSize returns the number of events currently parked on the free list
// (diagnostics for allocation tests).
func (e *Engine) PoolSize() int { return len(e.free) }

// Stop makes the current Run/RunUntil call return after the in-flight event
// completes.
func (e *Engine) Stop() { e.stopped = true }

// step fires the next event. It returns false when the queue is empty.
func (e *Engine) step() bool {
	ev := e.popEvent()
	if ev == nil {
		return false
	}
	if ev.at < e.now {
		panic("sim: event queue time went backwards")
	}
	e.now = ev.at
	e.Executed++
	e.live--
	ev.fired = true
	if e.EventHook != nil {
		e.EventHook(ev.at, ev.seq, ev.h)
	}
	if ev.fn != nil {
		fn := ev.fn
		// Release the closure before running it: a caller holding the
		// *Event for Cancel must not pin the capture past the firing.
		ev.fn = nil
		fn()
		return true
	}
	h, a0, a1, obj := ev.h, ev.arg0, ev.arg1, ev.obj
	hd := Handle{ev: ev, gen: ev.gen}
	// Recycle before dispatch so the handler's own scheduling reuses this
	// very event; hd stays distinguishable through its generation.
	e.release(ev)
	h.OnEvent(e, hd, a0, a1, obj)
	return true
}

// Step fires exactly one event and reports whether one was pending. It is
// the replay debugger's single-step primitive.
func (e *Engine) Step() bool { return e.step() }

// Run executes events until the queue is empty or Stop is called. It returns
// the final virtual time.
func (e *Engine) Run() Time {
	e.stopped = false
	for !e.stopped && e.step() {
	}
	return e.now
}

// RunUntil executes events with firing time <= deadline. Events scheduled
// beyond the deadline remain queued. The clock is advanced to the deadline
// if the simulation ran dry before reaching it, which keeps successive
// RunUntil calls monotonic.
func (e *Engine) RunUntil(deadline Time) Time {
	e.stopped = false
	for !e.stopped {
		next := e.peekEvent()
		if next == nil || next.at > deadline {
			break
		}
		e.step()
	}
	if e.now < deadline {
		e.now = deadline
	}
	return e.now
}

// RunFor advances the simulation by d nanoseconds of virtual time.
func (e *Engine) RunFor(d Time) Time { return e.RunUntil(e.now + d) }
