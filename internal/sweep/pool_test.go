package sweep

import (
	"reflect"
	"sync"
	"testing"
)

// fakeKernel is a (key, build, run) kernel that logs what the executor
// does with it: every Build, Capture and Run, in one global order.
type fakeKernel struct {
	mu       sync.Mutex
	builds   map[string]int // per key
	captures map[string]int // per key
	stacks   []*fakeStack   // in build order
	clock    int            // one tick per logged call
	atBuild  func()         // test hook, called inside Build
}

// fakeStack remembers when it was built and when it last ran; between the
// two the executor must have kept it alive.
type fakeStack struct {
	k              *fakeKernel
	key            string
	built, lastRun int
}

func newFakeKernel() *fakeKernel {
	return &fakeKernel{builds: map[string]int{}, captures: map[string]int{}}
}

// Key is the algorithm name; "solo" opts out of sharing.
func (k *fakeKernel) Key(s Spec) string {
	if s.Algorithm == "solo" {
		return ""
	}
	return s.Algorithm
}

func (k *fakeKernel) Build(s Spec) (Stack, error) {
	if k.atBuild != nil {
		k.atBuild()
	}
	k.mu.Lock()
	defer k.mu.Unlock()
	k.clock++
	k.builds[s.Algorithm]++
	st := &fakeStack{k: k, key: s.Algorithm, built: k.clock, lastRun: k.clock}
	k.stacks = append(k.stacks, st)
	return st, nil
}

func (st *fakeStack) Capture() {
	st.k.mu.Lock()
	defer st.k.mu.Unlock()
	st.k.captures[st.key]++
}

func (st *fakeStack) Run(s Spec) (Record, error) {
	st.k.mu.Lock()
	defer st.k.mu.Unlock()
	st.k.clock++
	st.lastRun = st.k.clock
	return Record{Spec: s, Metrics: map[string]float64{"seed": float64(s.Seed % 997)}}, nil
}

// peakLive is the largest number of stacks alive at one instant, a stack
// counting as alive from its Build to its last Run.
func (k *fakeKernel) peakLive() int {
	peak := 0
	for t := 1; t <= k.clock; t++ {
		live := 0
		for _, st := range k.stacks {
			if st.built <= t && t <= st.lastRun {
				live++
			}
		}
		peak = max(peak, live)
	}
	return peak
}

// interleaved is a spec list whose keys come back after other keys ran:
// a a b a c solo a a, with b and c occurring once.
func interleaved() []Spec {
	var lists [][]Spec
	for i, algo := range []string{"a", "a", "b", "a", "c", "solo", "solo", "a", "a"} {
		lists = append(lists, Grid{Algorithms: []string{algo}, Seed: uint64(i)}.Expand())
	}
	return Concat(lists...)
}

// TestWorkerHoldsOneStack drives one worker's state machine over the
// interleaved list in list order (b, c and solo unshared, as Run would
// key them): the held stack is dropped before every Build — so two never
// coexist, an unshared point included — a returning key is rebuilt rather
// than served from a cache, and only shared keys are ever captured.
func TestWorkerHoldsOneStack(t *testing.T) {
	k := newFakeKernel()
	var w worker
	k.atBuild = func() {
		if w.stack != nil {
			t.Error("Build called while the worker still holds a stack")
		}
	}
	for _, s := range interleaved() {
		key := ""
		if s.Algorithm == "a" {
			key = "a"
		}
		if _, err := w.point(k, s, key); err != nil {
			t.Fatal(err)
		}
	}
	if want := map[string]int{"a": 3, "b": 1, "c": 1, "solo": 2}; !reflect.DeepEqual(k.builds, want) {
		t.Errorf("builds = %v, want %v", k.builds, want)
	}
	if want := map[string]int{"a": 3}; !reflect.DeepEqual(k.captures, want) {
		t.Errorf("captures = %v, want %v", k.captures, want)
	}
	if got := k.peakLive(); got != 1 {
		t.Errorf("peak live stacks = %d, want 1", got)
	}
}

// TestRunSharingBounds checks the same bounds through the pool at several
// worker counts — at most one live stack per worker, no capture for a key
// that occurs once or is empty — that sharing never changes the records,
// and that one worker, handed a key's points back to back, builds an
// interleaved key exactly once.
func TestRunSharingBounds(t *testing.T) {
	specs := interleaved()
	want, err := Run(specs, 1, newFakeKernel(), false)
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{1, 2, 3, 16} {
		k := newFakeKernel()
		got, err := Run(specs, workers, k, true)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("workers=%d: shared records differ from unshared", workers)
		}
		if k.captures["b"]+k.captures["c"]+k.captures["solo"] != 0 {
			t.Errorf("workers=%d: captured a single-point or unshared key: %v", workers, k.captures)
		}
		if peak := k.peakLive(); peak > min(workers, len(specs)) {
			t.Errorf("workers=%d: %d stacks alive at once", workers, peak)
		}
		if workers == 1 && (k.builds["a"] != 1 || k.captures["a"] != 1) {
			t.Errorf("one worker built key a %d times (%d captures), want once", k.builds["a"], k.captures["a"])
		}
	}
	k := newFakeKernel()
	if _, err := Run(specs, 2, k, false); err != nil {
		t.Fatal(err)
	}
	if len(k.captures) != 0 || len(k.stacks) != len(specs) {
		t.Errorf("unshared run: %d builds for %d specs, captures %v", len(k.stacks), len(specs), k.captures)
	}
}
