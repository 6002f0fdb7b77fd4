package stats

import (
	"math"
	"sort"
	"testing"
	"testing/quick"
)

func TestSummarizeBasics(t *testing.T) {
	s := Summarize([]float64{3, 1, 2})
	if s.N != 3 || s.Min != 1 || s.Max != 3 || s.Median != 2 {
		t.Fatalf("summary wrong: %+v", s)
	}
	if math.Abs(s.Mean-2) > 1e-12 {
		t.Fatalf("mean = %v", s.Mean)
	}
	if math.Abs(s.Stddev-1) > 1e-12 {
		t.Fatalf("stddev = %v", s.Stddev)
	}
}

func TestSummarizeSingleton(t *testing.T) {
	s := Summarize([]float64{7})
	if s.Median != 7 || s.Stddev != 0 || s.CILow != 7 || s.CIHigh != 7 {
		t.Fatalf("singleton summary: %+v", s)
	}
}

func TestSummarizeEmptyPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("Summarize(nil) did not panic")
		}
	}()
	Summarize(nil)
}

func TestSummarizeDoesNotMutateInput(t *testing.T) {
	xs := []float64{5, 1, 3}
	Summarize(xs)
	if xs[0] != 5 || xs[1] != 1 || xs[2] != 3 {
		t.Fatalf("input mutated: %v", xs)
	}
}

func TestPercentile(t *testing.T) {
	s := []float64{10, 20, 30, 40, 50}
	cases := []struct{ p, want float64 }{
		{0, 10}, {100, 50}, {50, 30}, {25, 20}, {75, 40}, {10, 14},
	}
	for _, c := range cases {
		if got := Percentile(s, c.p); math.Abs(got-c.want) > 1e-9 {
			t.Errorf("Percentile(%v) = %v, want %v", c.p, got, c.want)
		}
	}
}

func TestMedianCIContainsMedian(t *testing.T) {
	f := func(raw []uint16) bool {
		if len(raw) == 0 {
			return true
		}
		xs := make([]float64, len(raw))
		for i, v := range raw {
			xs[i] = float64(v)
		}
		s := Summarize(xs)
		return s.CILow <= s.Median && s.Median <= s.CIHigh &&
			s.Min <= s.CILow && s.CIHigh <= s.Max
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestPropertyOrderInvariance(t *testing.T) {
	f := func(raw []int16) bool {
		if len(raw) == 0 {
			return true
		}
		a := make([]float64, len(raw))
		for i, v := range raw {
			a[i] = float64(v)
		}
		b := append([]float64(nil), a...)
		sort.Float64s(b)
		sa, sb := Summarize(a), Summarize(b)
		return sa.Median == sb.Median && sa.Mean == sb.Mean && sa.Min == sb.Min
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

func TestSummaryString(t *testing.T) {
	if s := Summarize([]float64{1, 2, 3}).String(); s == "" {
		t.Fatal("empty String()")
	}
}
