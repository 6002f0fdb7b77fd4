package bitmap

import (
	"testing"
	"testing/quick"
)

func TestNewEmpty(t *testing.T) {
	b := New(100)
	if b.Len() != 100 || b.Count() != 0 || b.Remaining() != 100 || b.Full() {
		t.Fatalf("fresh bitmap state wrong: %v", b)
	}
}

func TestNewZeroLength(t *testing.T) {
	b := New(0)
	if !b.Full() {
		t.Fatal("zero-length bitmap should report Full")
	}
	if got := b.Missing(nil); len(got) != 0 {
		t.Fatalf("Missing on empty bitmap = %v", got)
	}
}

func TestNewNegativePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("New(-1) did not panic")
		}
	}()
	New(-1)
}

func TestSetAndGet(t *testing.T) {
	b := New(130) // spans three words
	for _, i := range []int{0, 1, 63, 64, 65, 127, 128, 129} {
		if b.Get(i) {
			t.Fatalf("bit %d set before Set", i)
		}
		if !b.Set(i) {
			t.Fatalf("Set(%d) reported duplicate on first set", i)
		}
		if !b.Get(i) {
			t.Fatalf("bit %d not readable after Set", i)
		}
	}
	if b.Count() != 8 {
		t.Fatalf("Count = %d, want 8", b.Count())
	}
}

func TestDuplicateSet(t *testing.T) {
	b := New(10)
	b.Set(3)
	if b.Set(3) {
		t.Fatal("second Set(3) reported newly-set")
	}
	if b.Count() != 1 {
		t.Fatalf("duplicate Set corrupted count: %d", b.Count())
	}
}

func TestOutOfRangePanics(t *testing.T) {
	for _, i := range []int{-1, 10, 1000} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("Set(%d) on len-10 bitmap did not panic", i)
				}
			}()
			New(10).Set(i)
		}()
	}
}

func TestFull(t *testing.T) {
	b := New(65)
	for i := 0; i < 65; i++ {
		if b.Full() {
			t.Fatalf("Full before all bits set (at %d)", i)
		}
		b.Set(i)
	}
	if !b.Full() {
		t.Fatal("not Full after all bits set")
	}
}

// TestClear resets a partly set bitmap to the same size, smaller and larger:
// every bit reads unset at the new length, Missing lists exactly [0, n),
// and storage that still fits is reused.
func TestClear(t *testing.T) {
	for _, c := range []struct {
		name     string
		from, to int
		reused   bool
	}{
		{"same size", 100, 100, true},
		{"shrink", 200, 70, true},
		{"shrink to a partial word", 130, 65, true},
		{"shrink to zero", 100, 0, true},
		{"grow within the last word", 65, 128, true},
		{"grow past capacity", 100, 300, false},
		{"grow from zero", 0, 64, false},
	} {
		t.Run(c.name, func(t *testing.T) {
			b := New(c.from)
			for i := 0; i < c.from; i += 3 {
				b.Set(i)
			}
			storage := b.words[:cap(b.words)]
			b.Reset(c.to)
			if b.Len() != c.to || b.Count() != 0 || b.Remaining() != c.to || b.Full() != (c.to == 0) {
				t.Fatalf("Reset(%d) left state %v", c.to, b)
			}
			for i := 0; i < c.to; i++ {
				if b.Get(i) {
					t.Fatalf("bit %d survived Reset", i)
				}
			}
			if miss := b.Missing(nil); len(miss) != c.to || c.to > 0 && miss[c.to-1] != c.to-1 {
				t.Fatalf("Missing after Reset(%d) = %d indices", c.to, len(miss))
			}
			if got := len(storage) > 0 && cap(b.words) > 0 && &b.words[:1][0] == &storage[0]; got != c.reused {
				t.Fatalf("storage reused = %v, want %v", got, c.reused)
			}
			if c.to > 0 && (!b.Set(c.to-1) || b.Count() != 1) {
				t.Fatalf("Set(%d) after Reset: count %d", c.to-1, b.Count())
			}
		})
	}
}

func TestMissing(t *testing.T) {
	b := New(10)
	for _, i := range []int{0, 1, 3, 4, 5, 7, 8, 9} {
		b.Set(i)
	}
	got := b.Missing(nil)
	if len(got) != 2 || got[0] != 2 || got[1] != 6 {
		t.Fatalf("Missing = %v, want [2 6]", got)
	}
}

func TestMissingLastPartialWord(t *testing.T) {
	// n not a multiple of 64: bits beyond n must never be reported.
	b := New(70)
	for i := 0; i < 70; i++ {
		b.Set(i)
	}
	if got := b.Missing(nil); len(got) != 0 {
		t.Fatalf("full bitmap reported missing %v", got)
	}
}

func TestMissingAppends(t *testing.T) {
	b := New(4)
	b.Set(1)
	dst := []int{99}
	got := b.Missing(dst)
	want := []int{99, 0, 2, 3}
	if len(got) != len(want) {
		t.Fatalf("Missing = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("Missing = %v, want %v", got, want)
		}
	}
}

func TestMissingRanges(t *testing.T) {
	b := New(12)
	for _, i := range []int{0, 1, 5, 6, 7, 11} {
		b.Set(i)
	}
	got := b.MissingRanges(nil)
	want := [][2]int{{2, 5}, {8, 11}}
	if len(got) != len(want) {
		t.Fatalf("MissingRanges = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("MissingRanges = %v, want %v", got, want)
		}
	}
}

func TestMissingRangesTrailingGap(t *testing.T) {
	b := New(8)
	for i := 0; i < 5; i++ {
		b.Set(i)
	}
	got := b.MissingRanges(nil)
	if len(got) != 1 || got[0] != [2]int{5, 8} {
		t.Fatalf("MissingRanges = %v, want [[5 8]]", got)
	}
}

func TestMissingRangesAllMissing(t *testing.T) {
	b := New(5)
	got := b.MissingRanges(nil)
	if len(got) != 1 || got[0] != [2]int{0, 5} {
		t.Fatalf("MissingRanges = %v, want [[0 5]]", got)
	}
}

func TestSizeBytes(t *testing.T) {
	cases := []struct{ n, want int }{
		{0, 0}, {1, 8}, {64, 8}, {65, 16}, {4096, 512},
	}
	for _, c := range cases {
		if got := New(c.n).SizeBytes(); got != c.want {
			t.Errorf("SizeBytes(New(%d)) = %d, want %d", c.n, got, c.want)
		}
	}
}

func TestString(t *testing.T) {
	b := New(8)
	b.Set(0)
	if s := b.String(); s != "bitmap{1/8}" {
		t.Fatalf("String = %q", s)
	}
}

// Property: Count always equals the number of distinct indices set, and
// Missing returns exactly the complement.
func TestPropertySetMissingComplement(t *testing.T) {
	f := func(idx []uint16, nRaw uint16) bool {
		n := int(nRaw%500) + 1
		b := New(n)
		distinct := make(map[int]bool)
		for _, v := range idx {
			i := int(v) % n
			newly := b.Set(i)
			if newly == distinct[i] {
				return false // Set's return value disagreed with history
			}
			distinct[i] = true
		}
		if b.Count() != len(distinct) {
			return false
		}
		miss := b.Missing(nil)
		if len(miss)+b.Count() != n {
			return false
		}
		for _, m := range miss {
			if distinct[m] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

// Property: MissingRanges covers exactly the Missing set, with no overlaps.
func TestPropertyMissingRangesConsistent(t *testing.T) {
	f := func(idx []uint16, nRaw uint16) bool {
		n := int(nRaw%300) + 1
		b := New(n)
		for _, v := range idx {
			b.Set(int(v) % n)
		}
		var fromRanges []int
		prevEnd := -1
		for _, r := range b.MissingRanges(nil) {
			if r[0] >= r[1] || r[0] <= prevEnd {
				return false // empty, unsorted, or overlapping range
			}
			prevEnd = r[1] - 1
			for i := r[0]; i < r[1]; i++ {
				fromRanges = append(fromRanges, i)
			}
		}
		miss := b.Missing(nil)
		if len(miss) != len(fromRanges) {
			return false
		}
		for i := range miss {
			if miss[i] != fromRanges[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func BenchmarkSet(b *testing.B) {
	bm := New(1 << 20)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		bm.Set(i & (1<<20 - 1))
		if bm.Full() {
			bm.Reset(1 << 20)
		}
	}
}

func BenchmarkMissingSparse(b *testing.B) {
	bm := New(1 << 16)
	for i := 0; i < 1<<16; i++ {
		if i%1000 != 0 {
			bm.Set(i)
		}
	}
	buf := make([]int, 0, 128)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		buf = bm.Missing(buf[:0])
	}
}
