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
// a hybrid: a calendar queue (Brown, CACM 1988) of 2048 near-future buckets
// of 128 ns, indexed by absolute bucket number, covering a 262 µs window that
// slides with the clock one bucket at a time, backed by a binary heap for
// far-future events (retransmission timers, cutoff timers, scenario
// schedules). The invariant: near events live in buckets
// [cursor, start+numBuckets), far events at or beyond start+numBuckets, and
// start trails at the clock's bucket — so an event less than a window (minus
// the clock's partial bucket) ahead of now never touches the heap. Insertion
// into the window is an O(1) append; when the clock reaches a bucket its
// ascending runs are merged once (a bucket that was appended in order, the
// common case, costs one scan). The pop order is exactly the (at, seq) order
// a single binary heap would produce — hybrid_test.go checks this against a
// reference heap over randomized schedules.
//
// Buckets own no memory. A bucket is a chain of 16-slot chunks in one
// engine-owned store, linked by chunk index; opening a bucket drains its
// chain, in insertion order, into one reused slice and puts the chunks back
// on a free list. The store therefore grows with the events queued in the
// window (plus one partial chunk per non-empty bucket), not with the ring
// size times the largest burst a slot ever held. An empty bucket costs its
// 12-byte header and one bit of an occupancy bitmap, through which the
// cursor skips empty buckets 64 at a time; that is what lets the buckets be
// this narrow.
//
// # Events
//
// Every event is a typed Handler plus packed arguments (a uint64, an int,
// and one pointer-shaped payload), scheduled with AtHandler or
// AfterHandler. A producer that knows now which events it will schedule
// one at a time later takes their sequence numbers up front with Reserve
// and queues each with AtReserved: the events then fire exactly where
// scheduling them at once would have put them, while only a few of them
// are ever queued. There are two producers: a message train (each
// segment's arrival queues the next) and a congested switch port (each
// landing of one of its hops queues the next hop waiting at the port).
// Every reserved number must be queued: a queue that runs dry while
// Pending counts one is a producer bug, and Run and Step panic on it.
// Events are carved from engine-owned slabs and recycled through a free
// list once fired or cancelled, so steady-state scheduling does not
// allocate at all. The value-type Handle is the only reference to
// a scheduled event; it carries a generation number, so a stale handle held
// across the event's recycling is a no-op.
package sim

import (
	"container/heap"
	"fmt"
	"math"
	"math/bits"
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

// Calendar-queue geometry: a ring of 2048 buckets of 128 ns covers a 262 µs
// window ahead of the clock; bucket number n (at >> bucketShift) lives in
// slot n & bucketMask. A bucket is narrower than one MTU's serialization
// (~170 ns) and a hop latency (250 ns), so the next packet of a train and a
// packet's next hop land in a later bucket, not in the open one (whose late
// insertions go through a heap). RC retransmission timeouts (200 µs past
// the last segment) and scenario schedules overflow to the far-future heap.
const (
	bucketShift = 7 // log2(bucket width in ns)
	bucketWidth = Time(1) << bucketShift
	numBuckets  = 2048 // a power of two
	bucketMask  = numBuckets - 1
	windowSpan  = Time(numBuckets) << bucketShift
)

// bucketOf returns the absolute number of the bucket holding time t.
func bucketOf(t Time) int64 { return int64(t >> bucketShift) }

// chunkLen is the number of event slots in one chunk of bucket storage.
const chunkLen = 16

// bucketList is one calendar bucket: n events in a chain of chunks of
// Engine.store, from chunk head to chunk tail, linked through Engine.link.
// Every chunk but the tail is full, so the bucket's i-th event sits in slot
// i%chunkLen of its (i/chunkLen)-th chunk. head and tail mean nothing while
// n is 0.
type bucketList struct{ head, tail, n int32 }

// Event locations within the hybrid queue.
const (
	locNone   int8 = iota // not queued (fired, cancelled-and-removed, or free)
	locBucket             // in a (possibly unsorted) calendar bucket
	locCur                // in the open bucket's insertion heap
	locFar                // in the far-future binary heap
)

// Handler is the event callback: one OnEvent call per fired event, with the
// arguments packed at scheduling time. ev identifies the firing event (it
// equals the Handle returned by AtHandler, letting a handler that tracks its
// pending events find the entry without a wrapper closure); obj carries one
// pointer-shaped payload (a *Packet, a *QP — a pointer, so boxing it does
// not allocate) and may be nil.
//
// Events are pooled: the engine recycles the event before OnEvent runs, so
// implementations must not retain ev past the call.
type Handler interface {
	OnEvent(e *Engine, ev Handle, arg0 uint64, arg1 int, obj any)
}

// event is a scheduled Handler call. Events are ordered by time; ties are
// broken by sequence number so the execution order of simultaneous events is
// deterministic and FIFO with respect to scheduling order.
type event struct {
	at       Time
	seq      uint64
	gen      uint64 // bumped each time the event is recycled
	index    int    // heap index while in far/cur heaps; -1 otherwise
	where    int8
	canceled bool
	eng      *Engine
	h        Handler
	arg0     uint64
	arg1     int
	obj      any
}

// cancel prevents a pending event from firing. The event leaves the live
// count immediately and drops its handler and payload at once (so a
// cancelled long-lived timer pins nothing); far-future and open-bucket
// events are also removed and recycled immediately, while closed-bucket
// entries are recycled when the clock reaches their bucket.
func (ev *event) cancel() {
	if ev.canceled || ev.where == locNone {
		return
	}
	ev.canceled = true
	ev.h = nil
	ev.obj = nil
	e := ev.eng
	e.live--
	switch ev.where {
	case locFar:
		heap.Remove(&e.far, ev.index)
		ev.where = locNone
		e.release(ev)
	case locCur:
		heap.Remove(&e.cur, ev.index)
		e.nearCount--
		ev.where = locNone
		e.release(ev)
	case locBucket:
		// Left in place; the bucket sweep recycles it.
	}
}

// Handle is a value-type reference to a scheduled event. The zero Handle is
// inert. Because events are recycled, the handle carries the generation it
// was issued under: cancelling a handle whose event has since fired and
// been reused is a safe no-op, which is exactly the semantics a
// retransmission timer racing its own ack needs.
type Handle struct {
	ev  *event
	gen uint64
}

// Cancel cancels the referenced event if it is still the same incarnation
// and still pending; otherwise it does nothing.
func (h Handle) Cancel() {
	if h.ev != nil && h.ev.gen == h.gen {
		h.ev.cancel()
	}
}

// Active reports whether the referenced event is still pending. A fired
// event is recycled (its generation bumped) before its handler runs.
func (h Handle) Active() bool {
	return h.ev != nil && h.ev.gen == h.gen && !h.ev.canceled
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
type eventHeap []*event

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
	e := x.(*event)
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
func before(a, b *event) bool {
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
	// when opened, the cursor bucket's events have moved to open, open[pos:]
	// is the sorted remainder, and cur holds events inserted into the open
	// bucket after sorting.
	start     int64
	cursor    int64
	opened    bool
	pos       int
	buckets   [numBuckets]bucketList
	occupied  [numBuckets / 64]uint64 // bit i: ring slot i's bucket is non-empty
	open      []*event                // consumed slots are nil
	cur       eventHeap
	nearCount int // events physically held in buckets + open + cur (incl. cancelled)
	// Bucket storage: chunk c is store[c*chunkLen:][:chunkLen], link[c] is
	// the chunk after c in its bucket's chain or on the free list, and
	// freeChunk heads the free list (-1 when empty). Slots outside a bucket's
	// n events are nil.
	store     []*event
	link      []int32
	freeChunk int32
	// openBucket's working memory, kept between calls: the run offsets of
	// the bucket being ordered and the merge scratch (nil-filled when idle).
	runs    []int
	scratch []*event

	// Far-future overflow: everything at or beyond bucket start+numBuckets.
	far eventHeap

	live int // scheduled, not yet fired, not cancelled

	free []*event // recycled events
	slab []event  // fresh events not handed out yet (see carve)

	// Throughput counters, exported so harnesses can surface engine
	// throughput in their Records (all three are deterministic counts).
	//
	// Executed counts events that have fired, for diagnostics and for
	// guarding against runaway simulations in tests. Scheduled counts every
	// AtHandler/AfterHandler call and every number Reserve hands out.
	// Recycled counts events served from the free list instead of fresh
	// from a slab.
	Executed  uint64
	Scheduled uint64
	Recycled  uint64

	// splits records the child generators handed out by SplitRNG, in
	// creation order, so Snapshot and Restore can capture and rewind every
	// child's state.
	splits []*RNG

	// EventHook, when non-nil, observes every fired event just before its
	// handler runs: the firing time, its sequence number and the handler.
	// It exists for the replay debugger's step mode; the nil check is the
	// only cost on the hot path.
	EventHook func(at Time, seq uint64, h Handler)
}

// NewEngine returns an engine with virtual time 0 and a deterministic RNG
// seeded with seed.
func NewEngine(seed uint64) *Engine {
	return &Engine{rng: NewRNG(seed), freeChunk: -1}
}

// Now returns the current virtual time.
func (e *Engine) Now() Time { return e.now }

// RNG returns the engine's deterministic random number generator.
func (e *Engine) RNG() *RNG { return e.rng }

// SplitRNG derives a child generator from the engine's root RNG and records
// it, so Snapshot captures its state. Model layers that seed themselves from
// the engine at construction (the fabric's drop/jitter stream) must use this
// instead of RNG().Split() to stay snapshot-coherent.
func (e *Engine) SplitRNG() *RNG {
	r := e.rng.Split()
	e.splits = append(e.splits, r)
	return r
}

// AtHandler schedules h.OnEvent(e, handle, arg0, arg1, obj) at absolute
// virtual time t. The event is drawn from the engine's free list and
// recycled after firing or cancellation. obj must be pointer-shaped (or nil)
// to stay allocation-free. Scheduling in the past panics: that is always a
// protocol-logic bug, and silently clamping would mask it.
func (e *Engine) AtHandler(t Time, h Handler, arg0 uint64, arg1 int, obj any) Handle {
	if t < e.now {
		e.past(t)
	}
	ev := e.get()
	if ev == nil {
		ev = e.carve()
	}
	ev.at = t
	ev.seq = e.seq
	e.seq++
	ev.h = h
	ev.arg0 = arg0
	ev.arg1 = arg1
	ev.obj = obj
	e.Scheduled++
	e.live++
	e.schedule(ev)
	return Handle{ev: ev, gen: ev.gen}
}

// Reserve takes the next n sequence numbers for events the caller will
// queue later, one by one, with AtReserved, and returns the first. The n
// events count in Scheduled and Pending from now on, exactly as if they had
// all been scheduled here: every one of them must be queued eventually, each
// before the clock passes its firing time.
func (e *Engine) Reserve(n int) uint64 {
	seq := e.seq
	e.seq += uint64(n)
	e.Scheduled += uint64(n)
	e.live += n
	return seq
}

// AtReserved queues h.OnEvent(e, handle, arg0, arg1, obj) at time t under
// seq, a number Reserve handed out and not yet used: it fires where an
// AtHandler call at reservation time would have put it in the (at, seq)
// order, whatever was scheduled in between. See AtHandler for the rest.
func (e *Engine) AtReserved(t Time, seq uint64, h Handler, arg0 uint64, arg1 int, obj any) Handle {
	if t < e.now {
		e.past(t)
	}
	if seq >= e.seq {
		panic(fmt.Sprintf("sim: AtReserved with sequence number %d, never reserved", seq))
	}
	ev := e.get()
	if ev == nil {
		ev = e.carve()
	}
	ev.at, ev.seq = t, seq
	ev.h, ev.arg0, ev.arg1, ev.obj = h, arg0, arg1, obj
	e.schedule(ev)
	return Handle{ev: ev, gen: ev.gen}
}

// past panics on an event scheduled before now: that is always a
// protocol-logic bug, and silently clamping would mask it.
func (e *Engine) past(t Time) {
	panic(fmt.Sprintf("sim: scheduling event at %v before now %v", t, e.now))
}

// AfterHandler schedules h.OnEvent d nanoseconds from now; see AtHandler.
func (e *Engine) AfterHandler(d Time, h Handler, arg0 uint64, arg1 int, obj any) Handle {
	if d < 0 {
		panic(fmt.Sprintf("sim: negative delay %v", d))
	}
	return e.AtHandler(e.now+d, h, arg0, arg1, obj)
}

// eventSlab is how many fresh events one allocation carves.
const eventSlab = 256

// get pops a recycled event, or returns nil when the free list is empty
// and the caller must carve one. The carving stays out of get so that get
// inlines into the scheduling calls.
func (e *Engine) get() *event {
	n := len(e.free)
	if n == 0 {
		return nil
	}
	ev := e.free[n-1]
	e.free[n-1] = nil
	e.free = e.free[:n-1]
	e.Recycled++
	return ev
}

// carve hands out a fresh event from the slab: an engine grows its pool to
// the peak number of pending events, one allocation per eventSlab of them.
func (e *Engine) carve() *event {
	if len(e.slab) == 0 {
		e.slab = make([]event, eventSlab)
	}
	ev := &e.slab[0]
	e.slab = e.slab[1:]
	ev.eng, ev.index = e, -1
	return ev
}

// release returns an event to the free list, bumping its generation so
// outstanding Handles go stale.
func (e *Engine) release(ev *event) {
	ev.gen++
	ev.h = nil
	ev.obj = nil
	ev.arg0, ev.arg1 = 0, 0
	ev.canceled = false
	ev.where = locNone
	ev.index = -1
	e.free = append(e.free, ev)
}

// push appends ev to the chain of absolute bucket number n.
func (e *Engine) push(n int64, ev *event) {
	l := &e.buckets[n&bucketMask]
	i := l.n % chunkLen
	if i == 0 {
		c := e.newChunk()
		if l.n == 0 {
			l.head = c
			e.occupied[n&bucketMask>>6] |= 1 << (n & 63)
		} else {
			e.link[l.tail] = c
		}
		l.tail = c
	}
	e.store[int(l.tail)*chunkLen+int(i)] = ev
	l.n++
}

// newChunk takes a chunk off the free list, growing the store by one chunk
// when the list is empty.
func (e *Engine) newChunk() int32 {
	c := e.freeChunk
	if c < 0 {
		c = int32(len(e.link))
		e.link = append(e.link, -1)
		e.store = append(e.store, make([]*event, chunkLen)...)
		return c
	}
	e.freeChunk = e.link[c]
	return c
}

// drain appends the events of absolute bucket number n to dst in insertion
// order, empties the bucket and puts its chunks on the free list, clearing
// the slots it vacates. (An element loop: most buckets hold a few events,
// too few to pay for a bulk copy and clear.)
func (e *Engine) drain(n int64, dst []*event) []*event {
	l := &e.buckets[n&bucketMask]
	c := l.head
	for left := int(l.n); left > 0; left -= chunkLen {
		chunk := e.store[int(c)*chunkLen:][:min(left, chunkLen)]
		for i, ev := range chunk {
			dst = append(dst, ev)
			chunk[i] = nil
		}
		next := e.link[c]
		e.link[c], e.freeChunk = e.freeChunk, c
		c = next
	}
	*l = bucketList{}
	e.occupied[n&bucketMask>>6] &^= 1 << (n & 63)
	return dst
}

// drainAll empties every bucket, handing each event to f, bucket by bucket
// in ring-slot order and insertion order within a bucket. The open bucket
// must be closed.
func (e *Engine) drainAll(f func(*event)) {
	for i := range e.buckets {
		if e.buckets[i].n == 0 {
			continue
		}
		e.open = e.drain(int64(i), e.open[:0])
		for _, ev := range e.open {
			f(ev)
		}
		clear(e.open)
	}
	e.open = e.open[:0]
}

// schedule files the event into the hybrid queue. It counts nothing: the
// event is already in Scheduled and Pending.
func (e *Engine) schedule(ev *event) {
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
	e.push(b, ev)
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
// runs) go back into the bucket's chain for a later openBucket to merge.
func (e *Engine) closeOpen() {
	if !e.opened {
		return
	}
	rest := e.open[e.pos:]
	for _, ev := range rest {
		e.push(e.cursor, ev)
	}
	clear(rest)
	e.open = e.open[:0]
	for len(e.cur) > 0 {
		ev := heap.Pop(&e.cur).(*event)
		ev.where = locBucket
		e.push(e.cursor, ev)
	}
	e.pos = 0
	e.opened = false
}

// rebase moves every near-future event to the far heap and restarts the
// window at the clock's bucket. Only schedule() calls it, for times below the
// window start.
func (e *Engine) rebase() {
	e.closeOpen()
	e.drainAll(func(ev *event) {
		ev.where = locFar
		heap.Push(&e.far, ev)
	})
	e.nearCount = 0
	e.start = bucketOf(e.now)
	e.cursor = e.start
	e.refill()
}

// refill drains far-future events that now fall inside the window into
// their buckets, all of them at or beyond the cursor.
func (e *Engine) refill() {
	for len(e.far) > 0 && bucketOf(e.far[0].at) < e.start+numBuckets {
		ev := heap.Pop(&e.far).(*event)
		ev.where = locBucket
		e.push(bucketOf(ev.at), ev)
		e.nearCount++
	}
}

// openBucket drains the cursor's bucket into open, orders it by (at, seq)
// and starts consuming it. A bucket fills by appends from a handful of
// sources that each schedule in ascending time — it is a few ascending runs
// laid end to end, usually one — so this is a natural merge sort: find the
// runs, return if there is one, otherwise merge adjacent runs pairwise until
// one remains. Stable (equal keys keep insertion order) and allocation-free
// once open, the run list and the scratch have grown to the bucket sizes in
// use.
func (e *Engine) openBucket() {
	b := e.drain(e.cursor, e.open[:0])
	e.open = b
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
		e.scratch = make([]*event, len(b))
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
	clear(e.scratch[:len(b)]) // pin no *event past the sort
}

// mergeRuns merges the ascending runs b[:mid] and b[mid:] in place: the left
// run moves to scratch and the output overwrites b from the front, which
// never overtakes the unread part of the right run. Ties go to the left.
func mergeRuns(b []*event, mid int, scratch []*event) {
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
	// Skip empty buckets 64 at a time through the occupancy bitmap.
	for {
		i := e.cursor & bucketMask
		if w := e.occupied[i>>6] >> (i & 63); w != 0 {
			e.cursor += int64(bits.TrailingZeros64(w))
			break
		}
		e.cursor += 64 - i&63
	}
	e.openBucket()
}

// peekEvent returns the next live event without consuming it (nil when the
// queue is empty), pruning cancelled bucket entries as it goes.
func (e *Engine) peekEvent() *event {
	for {
		if !e.opened {
			if e.nearCount == 0 && len(e.far) == 0 {
				return nil
			}
			e.advance()
		}
		b := e.open
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
		var next *event
		if e.pos < len(b) {
			next = b[e.pos]
		}
		if len(e.cur) > 0 && (next == nil || before(e.cur[0], next)) {
			next = e.cur[0]
		}
		if next != nil {
			return next
		}
		// Open bucket exhausted (every slot already nil); the next
		// iteration's advance() finds the following non-empty bucket.
		e.open = b[:0]
		e.pos = 0
		e.opened = false
	}
}

// popEvent consumes and returns the next live event, or nil.
func (e *Engine) popEvent() *event {
	ev := e.peekEvent()
	if ev == nil {
		return nil
	}
	if ev.where == locCur {
		heap.Pop(&e.cur)
	} else {
		e.open[e.pos] = nil
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

// step fires the next event. It returns false when the queue is empty, and
// panics if reserved numbers are then still pending: nothing can queue them.
func (e *Engine) step() bool {
	ev := e.popEvent()
	if ev == nil {
		if e.live != 0 {
			panic(fmt.Sprintf("sim: queue ran dry with %d reserved events never queued", e.live))
		}
		return false
	}
	if ev.at < e.now {
		panic("sim: event queue time went backwards")
	}
	e.now = ev.at
	e.Executed++
	e.live--
	if e.EventHook != nil {
		e.EventHook(ev.at, ev.seq, ev.h)
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
