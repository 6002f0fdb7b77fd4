// Engine snapshot and restore.
//
// A Snapshot is a compact immutable record of an engine's execution state:
// the clock, the sequence counter, the throughput counters, the RNG tree
// (root state plus every SplitRNG child), and one record per live queued
// event. Taking one is O(live events); it does not copy history, the event
// pool, or the calendar geometry.
//
// Restore works in place: it rewinds the SAME engine (and, via
// the snap package, the same model object graph) back to the snapshot,
// rather than building a parallel copy. That choice is forced by the event
// representation — pending events hold Handler and payload pointers into
// live model objects, so a deep-copied engine would need a full
// object-graph relocation of every handler and payload. Restoring in place
// keeps every pointer valid: the queue is purged, the scalars rewound, and
// each recorded event re-filed under its original (time, seq) key, so the
// continuation fires the exact event sequence a cold run would.
//
// What a Snapshot does NOT capture is the deep state of the model objects
// its events point into (fabric channels, verbs queue pairs, telemetry
// counters). A caller that needs to rewind the whole model pairs an engine
// Snapshot with a state capture of those roots (internal/snap).
package sim

import (
	"fmt"
	"unsafe"
)

// eventRecord is one live event inside a Snapshot. Its payloads (h, obj)
// are captured by reference: re-filing them under the original key is what
// keeps restore O(live events), and deep payload state is the caller's to
// capture alongside the snapshot. The record also pins the *event struct
// and the generation it occupied at capture, so Restore can re-file into
// the identical incarnation: model state captured alongside the snapshot
// holds Handles to these events, and a mid-run rewind must leave those
// handles valid.
type eventRecord struct {
	at   Time
	seq  uint64
	h    Handler
	arg0 uint64
	arg1 int
	obj  any
	ev   *event
	gen  uint64
}

// Snapshot is an immutable record of an engine's state at one instant; see
// the file comment. Construct with Engine.Snapshot, consume with Restore.
type Snapshot struct {
	now       Time
	seq       uint64
	executed  uint64
	scheduled uint64
	recycled  uint64
	rootRNG   uint64
	splitRNG  []uint64
	events    []eventRecord
}

// Events returns the number of live events the snapshot carries.
func (s *Snapshot) Events() int { return len(s.events) }

// Now returns the virtual time the snapshot was taken at.
func (s *Snapshot) Now() Time { return s.now }

// Bytes estimates the snapshot's in-memory size — the informational
// "snapshot bytes" perf metric. It is exact for the record itself; payloads
// referenced by events are shared with the live model and not counted.
func (s *Snapshot) Bytes() int {
	return int(unsafe.Sizeof(*s)) +
		len(s.splitRNG)*8 +
		len(s.events)*int(unsafe.Sizeof(eventRecord{}))
}

// Snapshot captures the engine's current state. The engine may keep
// running afterwards; the snapshot is unaffected (event records are
// copied out of the queue, never aliased into it).
func (e *Engine) Snapshot() *Snapshot {
	s := &Snapshot{
		now:       e.now,
		seq:       e.seq,
		executed:  e.Executed,
		scheduled: e.Scheduled,
		recycled:  e.Recycled,
		rootRNG:   e.rng.State(),
		events:    make([]eventRecord, 0, e.live),
	}
	if len(e.splits) > 0 {
		s.splitRNG = make([]uint64, len(e.splits))
		for i, child := range e.splits {
			s.splitRNG[i] = child.State()
		}
	}
	record := func(ev *event) {
		if ev.canceled {
			return
		}
		s.events = append(s.events, eventRecord{
			at: ev.at, seq: ev.seq, h: ev.h,
			arg0: ev.arg0, arg1: ev.arg1, obj: ev.obj,
			ev: ev, gen: ev.gen,
		})
	}
	// Cancelled entries are flagged and record() skips them, so a plain walk
	// sees exactly the live set. The open bucket's chain is empty: its
	// unconsumed events are open[pos:], walked in its ring slot's place.
	for i := range e.buckets {
		if e.opened && int64(i) == e.cursor&bucketMask {
			for _, ev := range e.open[e.pos:] {
				record(ev)
			}
		}
		l := e.buckets[i]
		c := l.head
		for left := int(l.n); left > 0; left -= chunkLen {
			for _, ev := range e.store[int(c)*chunkLen:][:min(left, chunkLen)] {
				record(ev)
			}
			c = e.link[c]
		}
	}
	for _, ev := range e.cur {
		record(ev)
	}
	for _, ev := range e.far {
		record(ev)
	}
	if len(s.events) != e.live {
		// The rest are reserved numbers not yet queued (a train in flight,
		// or hops held at a congested switch port): their events exist only
		// in the producer's state.
		panic(fmt.Sprintf("sim: Snapshot with %d reserved events not yet queued", e.live-len(s.events)))
	}
	return s
}

// purge empties the queue: every event returns to the free list (its
// generation bumps, so outstanding Handles go stale).
func (e *Engine) purge() {
	e.closeOpen()
	e.drainAll(e.release)
	for i, ev := range e.far {
		e.far[i] = nil
		e.release(ev)
	}
	e.far = e.far[:0]
	e.nearCount = 0
	e.live = 0
}

// Restore rewinds the engine to the snapshot: the queue is purged and
// rebuilt from the recorded events under their original (time, seq) keys,
// the clock, sequence counter, throughput counters and RNG tree are
// rewound. Restore must run on the engine the snapshot was taken from (the
// event records point into its model graph); restoring a snapshot with a
// different SplitRNG child count panics, because the RNG tree could not be
// rewound coherently.
func (e *Engine) Restore(s *Snapshot) {
	if len(s.splitRNG) != len(e.splits) {
		panic(fmt.Sprintf("sim: Restore with %d split RNG states onto an engine with %d children; snapshots only restore onto their own engine",
			len(s.splitRNG), len(e.splits)))
	}
	e.purge()
	e.now = s.now
	e.stopped = false
	e.start = bucketOf(s.now)
	e.cursor = e.start
	// Re-file every recorded event into the SAME *event struct it occupied
	// at capture, with its original generation. After purge every event is
	// on the free list, so the recorded structs are reclaimed from it first.
	// Identity matters because model state captured alongside the snapshot
	// holds Handles {ev, gen} to these events — a rewind that re-filed into
	// fresh pool slots would leave every such handle stale.
	if len(s.events) > 0 {
		refiled := make(map[*event]bool, len(s.events))
		for i := range s.events {
			refiled[s.events[i].ev] = true
		}
		kept := e.free[:0]
		for _, fe := range e.free {
			if !refiled[fe] {
				kept = append(kept, fe)
			}
		}
		for i := len(kept); i < len(e.free); i++ {
			e.free[i] = nil
		}
		e.free = kept
	}
	for i := range s.events {
		r := &s.events[i]
		ev := r.ev
		ev.at = r.at
		ev.seq = r.seq
		ev.gen = r.gen
		ev.h = r.h
		ev.arg0 = r.arg0
		ev.arg1 = r.arg1
		ev.obj = r.obj
		ev.canceled = false
		ev.index = -1
		e.schedule(ev)
	}
	// Rewind the counters; the queue now holds exactly the recorded events.
	e.live = len(s.events)
	e.seq = s.seq
	e.Executed = s.executed
	e.Scheduled = s.scheduled
	e.Recycled = s.recycled
	e.rng.SetState(s.rootRNG)
	for i, st := range s.splitRNG {
		e.splits[i].SetState(st)
	}
}
