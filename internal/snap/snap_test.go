package snap

import (
	"reflect"
	"testing"
)

// The synthetic model mirrors the shapes the real layers use: unexported
// fields, shared sub-objects, slices of structs and of pointers, maps with
// pointer values, func callbacks, a skip-typed immutable, and aliasing.

type immutable struct{ table [4]int }

type leaf struct {
	n       int
	label   string
	history []int
}

type node struct {
	id      int
	credit  float64
	l       *leaf
	peers   []*node
	queue   []leaf
	stats   map[string]uint64
	onDone  func() int
	topo    *immutable
	backref *world
}

type world struct {
	nodes map[int]*node
	order []*node
	seq   uint64
	note  string
	// lazy is nil until first written (as verbs.QP's maps are); cur points
	// into cells (as dpa.Thread.core points into its chip's cores).
	lazy  map[int]int
	cells []leaf
	cur   *leaf
}

func buildWorld() (*world, *immutable) {
	topo := &immutable{table: [4]int{1, 2, 3, 4}}
	w := &world{nodes: map[int]*node{}, note: "t0", cells: make([]leaf, 2)}
	w.cur = &w.cells[1]
	shared := &leaf{n: 7, label: "shared", history: []int{1, 2}}
	for i := 0; i < 3; i++ {
		n := &node{
			id:      i,
			credit:  float64(i) * 1.5,
			l:       shared,
			queue:   []leaf{{n: i * 10, label: "q"}},
			stats:   map[string]uint64{"tx": uint64(i), "rx": 0},
			onDone:  func() int { return 1 },
			topo:    topo,
			backref: w,
		}
		w.nodes[i] = n
		w.order = append(w.order, n)
	}
	w.order[0].peers = []*node{w.order[1], w.order[2]}
	return w, topo
}

func cfg() Config {
	return Config{Skip: []reflect.Type{reflect.TypeOf(immutable{})}}
}

func scramble(w *world) {
	w.seq = 999
	w.note = "dirty"
	w.nodes[0].credit = -1
	w.nodes[0].stats["tx"] = 42
	w.nodes[0].stats["new"] = 1
	delete(w.nodes[1].stats, "rx")
	w.nodes[1].l.n = 1000 // shared leaf: mutation visible from every node
	w.nodes[1].l.history[0] = -5
	w.nodes[2].queue[0].n = 77
	w.nodes[2].queue = append(w.nodes[2].queue, leaf{n: 5})
	w.order[0].peers = w.order[0].peers[:1]
	delete(w.nodes, 2) // map identity must survive entry deletion
	w.nodes[9] = &node{id: 9}
	w.lazy = map[int]int{1: 1}
	w.cur.n = 3
}

func TestCaptureRestoreRoundTrip(t *testing.T) {
	w, _ := buildWorld()
	s := Capture(cfg(), w)
	before := s.Digest()
	if s.Bytes() <= 0 || s.Regions() == 0 {
		t.Fatalf("empty capture: bytes=%d regions=%d", s.Bytes(), s.Regions())
	}

	origNodes := w.nodes // map identity
	origLeaf := w.nodes[0].l
	scramble(w)
	s.Restore()

	if &w.nodes == nil || reflect.ValueOf(w.nodes).Pointer() != reflect.ValueOf(origNodes).Pointer() {
		t.Fatal("map identity not preserved across restore")
	}
	if w.nodes[0].l != origLeaf || w.nodes[0].l != w.nodes[1].l {
		t.Fatal("shared leaf aliasing not preserved")
	}
	if w.seq != 0 || w.note != "t0" {
		t.Fatalf("scalars not rewound: seq=%d note=%q", w.seq, w.note)
	}
	if w.nodes[0].credit != 0 || w.nodes[0].stats["tx"] != 0 {
		t.Fatalf("node 0 not rewound: credit=%v tx=%d", w.nodes[0].credit, w.nodes[0].stats["tx"])
	}
	if _, ok := w.nodes[0].stats["new"]; ok {
		t.Fatal("inserted map key survived restore")
	}
	if w.nodes[1].stats["rx"] != 0 {
		t.Fatal("deleted map key not restored")
	}
	if _, ok := w.nodes[9]; ok {
		t.Fatal("inserted node survived restore")
	}
	if w.nodes[2] == nil || w.nodes[2].queue[0].n != 20 || len(w.nodes[2].queue) != 1 {
		t.Fatalf("node 2 slice not rewound: %+v", w.nodes[2].queue)
	}
	if w.nodes[1].l.n != 7 || w.nodes[1].l.history[0] != 1 {
		t.Fatalf("shared leaf not rewound: n=%d history=%v", w.nodes[1].l.n, w.nodes[1].l.history)
	}
	if len(w.order[0].peers) != 2 {
		t.Fatalf("peers slice header not rewound: %d", len(w.order[0].peers))
	}
	if w.lazy != nil {
		t.Fatalf("map that was nil at capture survived restore: %v", w.lazy)
	}
	if w.cur != &w.cells[1] || w.cells[1].n != 0 {
		t.Fatalf("pointer into a value slice not rewound: n=%d", w.cells[1].n)
	}
	if w.nodes[0].onDone == nil || w.nodes[0].onDone() != 1 {
		t.Fatal("func field lost")
	}

	// Recapturing a restored world must produce the identical digest.
	if after := Capture(cfg(), w).Digest(); after != before {
		t.Fatalf("digest drift after restore: %x vs %x", after, before)
	}
}

// TestRestoreIsRepeatable: a State may be restored many times, including
// after further mutation.
func TestRestoreIsRepeatable(t *testing.T) {
	w, _ := buildWorld()
	s := Capture(cfg(), w)
	want := s.Digest()
	for i := 0; i < 3; i++ {
		scramble(w)
		s.Restore()
		if got := Capture(cfg(), w).Digest(); got != want {
			t.Fatalf("round %d: digest %x != %x", i, got, want)
		}
	}
}

// TestDigestAddressFree: two independently built identical worlds must hash
// identically (digests carry no pointer bits), and a value difference must
// show.
func TestDigestAddressFree(t *testing.T) {
	w1, _ := buildWorld()
	w2, _ := buildWorld()
	d1 := Capture(cfg(), w1).Digest()
	d2 := Capture(cfg(), w2).Digest()
	if d1 != d2 {
		t.Fatalf("identical builds digest differently: %x vs %x", d1, d2)
	}
	w2.nodes[1].stats["rx"] = 1
	if d3 := Capture(cfg(), w2).Digest(); d3 == d1 {
		t.Fatal("value mutation not reflected in digest")
	}
}

// TestSkipTypesNotFollowed: the skip-typed pointee is neither captured nor
// restored — external mutation of it survives a Restore.
func TestSkipTypesNotFollowed(t *testing.T) {
	w, topo := buildWorld()
	s := Capture(cfg(), w)
	topo.table[0] = 99
	s.Restore()
	if topo.table[0] != 99 {
		t.Fatal("skip-typed object was captured/restored")
	}
	if w.nodes[0].topo != topo {
		t.Fatal("skip-typed pointer identity lost")
	}
}

// TestMultipleRoots: roots sharing structure are captured once.
func TestMultipleRoots(t *testing.T) {
	w, _ := buildWorld()
	s1 := Capture(cfg(), w, w.order[0], w.nodes[1].l)
	s2 := Capture(cfg(), w)
	if s1.Regions() != s2.Regions() {
		t.Fatalf("duplicate roots re-captured regions: %d vs %d", s1.Regions(), s2.Regions())
	}
	w.nodes[1].l.n = -3
	s1.Restore()
	if w.nodes[1].l.n != 7 {
		t.Fatal("restore through multi-root capture failed")
	}
}
