package bitmap

import (
	"math/rand"
	"slices"
	"testing"
	"testing/quick"
)

// newBitmap sizes a zero bitmap to n chunks, as the protocol's per-op
// Reset does.
func newBitmap(n int) *Bitmap {
	b := &Bitmap{}
	b.Reset(n)
	return b
}

func TestNewEmpty(t *testing.T) {
	b := newBitmap(100)
	if b.Len() != 100 || b.Count() != 0 {
		t.Fatalf("fresh bitmap state wrong: %v", b)
	}
}

func TestNewZeroLength(t *testing.T) {
	b := newBitmap(0)
	if b.Count() != b.Len() {
		t.Fatal("zero-length bitmap should be complete")
	}
	if got := b.MissingRanges(nil); len(got) != 0 {
		t.Fatalf("MissingRanges on empty bitmap = %v", got)
	}
}

func TestSetAndGet(t *testing.T) {
	b := newBitmap(130) // spans three words
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
	b := newBitmap(10)
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
			newBitmap(10).Set(i)
		}()
	}
}

func TestFull(t *testing.T) {
	b := newBitmap(65)
	for i := 0; i < 65; i++ {
		if b.Count() == b.Len() {
			t.Fatalf("complete before all bits set (at %d)", i)
		}
		b.Set(i)
	}
	if b.Count() != b.Len() {
		t.Fatal("not complete after all bits set")
	}
}

// TestClear resets a partly set bitmap to the same size, smaller and larger:
// every bit reads unset at the new length, MissingRanges is exactly [0, n),
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
			b := newBitmap(c.from)
			for i := 0; i < c.from; i += 3 {
				b.Set(i)
			}
			storage := b.words[:cap(b.words)]
			b.Reset(c.to)
			if b.Len() != c.to || b.Count() != 0 {
				t.Fatalf("Reset(%d) left state %v", c.to, b)
			}
			for i := 0; i < c.to; i++ {
				if b.Get(i) {
					t.Fatalf("bit %d survived Reset", i)
				}
			}
			if miss := b.MissingRanges(nil); c.to == 0 && len(miss) != 0 || c.to > 0 && (len(miss) != 1 || miss[0] != [2]int{0, c.to}) {
				t.Fatalf("MissingRanges after Reset(%d) = %v", c.to, miss)
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

// TestMissing: isolated unset bits are ranges of one chunk.
func TestMissing(t *testing.T) {
	b := newBitmap(10)
	for _, i := range []int{0, 1, 3, 4, 5, 7, 8, 9} {
		b.Set(i)
	}
	got := b.MissingRanges(nil)
	if len(got) != 2 || got[0] != [2]int{2, 3} || got[1] != [2]int{6, 7} {
		t.Fatalf("MissingRanges = %v, want [[2 3] [6 7]]", got)
	}
}

func TestMissingLastPartialWord(t *testing.T) {
	// n not a multiple of 64: bits beyond n must never be reported.
	b := newBitmap(70)
	for i := 0; i < 70; i++ {
		b.Set(i)
	}
	if got := b.MissingRanges(nil); len(got) != 0 {
		t.Fatalf("full bitmap reported missing %v", got)
	}
}

func TestMissingAppends(t *testing.T) {
	b := newBitmap(4)
	b.Set(1)
	dst := [][2]int{{99, 100}}
	got := b.MissingRanges(dst)
	want := [][2]int{{99, 100}, {0, 1}, {2, 4}}
	if len(got) != len(want) {
		t.Fatalf("MissingRanges = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("MissingRanges = %v, want %v", got, want)
		}
	}
}

func TestMissingRanges(t *testing.T) {
	b := newBitmap(12)
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
	b := newBitmap(8)
	for i := 0; i < 5; i++ {
		b.Set(i)
	}
	got := b.MissingRanges(nil)
	if len(got) != 1 || got[0] != [2]int{5, 8} {
		t.Fatalf("MissingRanges = %v, want [[5 8]]", got)
	}
}

func TestMissingRangesAllMissing(t *testing.T) {
	b := newBitmap(5)
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
		if got := newBitmap(c.n).SizeBytes(); got != c.want {
			t.Errorf("SizeBytes(%d chunks) = %d, want %d", c.n, got, c.want)
		}
	}
}

func TestString(t *testing.T) {
	b := newBitmap(8)
	b.Set(0)
	if s := b.String(); s != "bitmap{1/8}" {
		t.Fatalf("String = %q", s)
	}
}

// Property: Count always equals the number of distinct indices set, and
// Get reads exactly those indices as set.
func TestPropertySetMissingComplement(t *testing.T) {
	f := func(idx []uint16, nRaw uint16) bool {
		n := int(nRaw%500) + 1
		b := newBitmap(n)
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
		for i := 0; i < n; i++ {
			if b.Get(i) != distinct[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

// Property: MissingRanges covers exactly the unset bits, with no overlaps.
func TestPropertyMissingRangesConsistent(t *testing.T) {
	f := func(idx []uint16, nRaw uint16) bool {
		n := int(nRaw%300) + 1
		b := newBitmap(n)
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
		var miss []int
		for i := 0; i < n; i++ {
			if !b.Get(i) {
				miss = append(miss, i)
			}
		}
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

// TestMissingRangesMatchesBitByBit compares the word-at-a-time scan with a
// bit-by-bit reference over random bitmaps: lengths on and off word
// boundaries, densities from empty to full, bits set in runs that straddle
// words, and storage reused from a longer bitmap.
func TestMissingRangesMatchesBitByBit(t *testing.T) {
	reference := func(b *Bitmap) [][2]int {
		var out [][2]int
		for i := 0; i < b.Len(); i++ {
			if b.Get(i) {
				continue
			}
			if k := len(out) - 1; k >= 0 && out[k][1] == i {
				out[k][1]++
			} else {
				out = append(out, [2]int{i, i + 1})
			}
		}
		return out
	}
	rng := rand.New(rand.NewSource(1))
	lengths := []int{1, 63, 64, 65, 127, 128, 129, 191, 192, 1000, 4096, 4097}
	for trial := 0; trial < 2000; trial++ {
		n := lengths[trial%len(lengths)]
		if trial >= 2*len(lengths) {
			n = 1 + rng.Intn(700)
		}
		b := newBitmap(n)
		if trial%2 == 1 { // storage reused from a longer, full bitmap
			b = newBitmap(n + 1 + rng.Intn(128))
			for i := 0; i < b.Len(); i++ {
				b.Set(i)
			}
			b.Reset(n)
		}
		density := []float64{0, 0.01, 0.5, 0.97, 1}[rng.Intn(5)]
		for i := 0; i < n; i++ {
			if rng.Float64() < density {
				b.Set(i)
			}
		}
		// Runs of set bits across word boundaries.
		for k := rng.Intn(4); k > 0; k-- {
			lo := rng.Intn(n)
			for i := lo; i < min(n, lo+rng.Intn(200)); i++ {
				b.Set(i)
			}
		}
		prefix := [][2]int{{-1, -1}}
		want := append(slices.Clone(prefix), reference(b)...)
		if got := b.MissingRanges(slices.Clone(prefix)); !slices.Equal(got, want) {
			t.Fatalf("n=%d density=%v: MissingRanges = %v, want %v", n, density, got, want)
		}
	}
}

func BenchmarkSet(b *testing.B) {
	bm := newBitmap(1 << 20)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		bm.Set(i & (1<<20 - 1))
		if bm.Count() == bm.Len() {
			bm.Reset(1 << 20)
		}
	}
}

func BenchmarkMissingSparse(b *testing.B) {
	bm := newBitmap(1 << 16)
	for i := 0; i < 1<<16; i++ {
		if i%1000 != 0 {
			bm.Set(i)
		}
	}
	buf := make([][2]int, 0, 128)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		buf = bm.MissingRanges(buf[:0])
	}
}
