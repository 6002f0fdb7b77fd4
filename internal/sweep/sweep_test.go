package sweep

import (
	"bytes"
	"errors"
	"fmt"
	"strings"
	"sync/atomic"
	"testing"
)

func testGrid() Grid {
	return Grid{
		Algorithms: []string{"a", "b"},
		MsgBytes:   []int{1024, 2048, 4096},
		Threads:    []int{1, 2},
		Seed:       7,
	}
}

func TestGridExpansionCountAndOrder(t *testing.T) {
	g := testGrid()
	specs := g.Expand()
	if got, want := len(specs), g.Points(); got != want {
		t.Fatalf("Expand produced %d specs, Points says %d", got, want)
	}
	if len(specs) != 2*3*2 {
		t.Fatalf("want 12 points, got %d", len(specs))
	}
	// Row-major: Algorithms outermost, Threads innermost here.
	want := []Spec{
		{Algorithm: "a", MsgBytes: 1024, Threads: 1},
		{Algorithm: "a", MsgBytes: 1024, Threads: 2},
		{Algorithm: "a", MsgBytes: 2048, Threads: 1},
	}
	for i, w := range want {
		s := specs[i]
		if s.Algorithm != w.Algorithm || s.MsgBytes != w.MsgBytes || s.Threads != w.Threads {
			t.Fatalf("spec %d = %+v, want axes %+v", i, s, w)
		}
		if s.Index != i {
			t.Fatalf("spec %d has Index %d", i, s.Index)
		}
	}
	// Last point closes the product.
	last := specs[len(specs)-1]
	if last.Algorithm != "b" || last.MsgBytes != 4096 || last.Threads != 2 {
		t.Fatalf("last spec = %+v", last)
	}
}

func TestGridSeedsDeterministicAndDistinct(t *testing.T) {
	a, b := testGrid().Expand(), testGrid().Expand()
	seen := map[uint64]int{}
	for i := range a {
		if a[i].Seed != b[i].Seed {
			t.Fatalf("point %d seed differs across expansions: %d vs %d", i, a[i].Seed, b[i].Seed)
		}
		if a[i].Seed == 0 {
			t.Fatalf("point %d got the zero seed", i)
		}
		if prev, dup := seen[a[i].Seed]; dup {
			t.Fatalf("points %d and %d share seed %d", prev, i, a[i].Seed)
		}
		seen[a[i].Seed] = i
	}
	// A different base seed moves every point.
	g := testGrid()
	g.Seed = 8
	for i, s := range g.Expand() {
		if s.Seed == a[i].Seed {
			t.Fatalf("point %d seed unchanged under a new base seed", i)
		}
	}
}

func TestRunByteIdenticalJSONAcrossWorkerCounts(t *testing.T) {
	kernel := Func(func(s Spec) (Record, error) {
		return Record{Spec: s, Metrics: map[string]float64{
			"gibps": float64(s.MsgBytes) / float64(s.Threads),
			"seed":  float64(s.Seed % 1000),
		}}, nil
	})
	var blobs [][]byte
	for _, workers := range []int{1, 3, 16} {
		recs, err := Run(testGrid().Expand(), workers, kernel)
		if err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		if err := WriteJSON(&buf, Report{Name: "t", Records: recs}); err != nil {
			t.Fatal(err)
		}
		blobs = append(blobs, buf.Bytes())
	}
	for i := 1; i < len(blobs); i++ {
		if !bytes.Equal(blobs[0], blobs[i]) {
			t.Fatalf("JSON differs between worker counts 1 and %d", []int{1, 3, 16}[i])
		}
	}
}

func TestRunErrorPropagation(t *testing.T) {
	errBoom := errors.New("boom")
	specs := testGrid().Expand()
	var calls atomic.Int64
	_, err := Run(specs, 4, Func(func(s Spec) (Record, error) {
		calls.Add(1)
		if s.Index == 5 || s.Index == 9 {
			return Record{}, fmt.Errorf("%w at %d", errBoom, s.Index)
		}
		return Record{Spec: s}, nil
	}))
	if !errors.Is(err, errBoom) {
		t.Fatalf("error %v does not wrap the kernel error", err)
	}
	var pe *PointError
	if !errors.As(err, &pe) {
		t.Fatalf("error %v carries no PointError", err)
	}
	if pe.Spec.Index != 5 {
		t.Fatalf("first PointError is for index %d, want 5 (deterministic order)", pe.Spec.Index)
	}
	// All points still ran to completion.
	if got := calls.Load(); got != int64(len(specs)) {
		t.Fatalf("kernel ran %d times, want %d", got, len(specs))
	}
}

func TestConcatReindexes(t *testing.T) {
	g1 := Grid{Transports: []string{"cpu-ud"}, MsgBytes: []int{1, 2}, Seed: 1}
	g2 := Grid{Transports: []string{"ud"}, MsgBytes: []int{1, 2}, Seed: 2}
	specs := Concat(g1.Expand(), g2.Expand())
	for i, s := range specs {
		if s.Index != i {
			t.Fatalf("spec %d has Index %d after Concat", i, s.Index)
		}
	}
	if specs[0].Seed == specs[2].Seed {
		t.Fatal("distinct base seeds still collided")
	}
}

func TestTableDeterministicColumns(t *testing.T) {
	recs, err := Run(testGrid().Expand(), 0, Func(func(s Spec) (Record, error) {
		return Record{Spec: s, Metrics: map[string]float64{"b_metric": 1, "a_metric": 2}}, nil
	}))
	if err != nil {
		t.Fatal(err)
	}
	var tbl bytes.Buffer
	if err := WriteTable(&tbl, recs); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(tbl.String(), "\n")
	if got := strings.Fields(lines[0]); strings.Join(got, ",") != "algorithm,msg_bytes,threads,a_metric,b_metric" {
		t.Fatalf("table header = %q", lines[0])
	}
	if len(lines) != len(recs)+2 { // header + rows + trailing newline
		t.Fatalf("table has %d lines, want %d", len(lines), len(recs)+2)
	}
}

func TestScenarioAxisExpansion(t *testing.T) {
	// The Scenario axis participates in the product (innermost) and in
	// Key/String; leaving it empty reproduces the pre-axis expansion
	// exactly, seeds included, so existing grids are unchanged.
	g := Grid{Algorithms: []string{"a"}, MsgBytes: []int{1, 2},
		Scenarios: []string{"quiet", "flap-spine"}, Seed: 3}
	specs := g.Expand()
	if len(specs) != 4 || g.Points() != 4 {
		t.Fatalf("want 4 points, got %d (Points %d)", len(specs), g.Points())
	}
	wantOrder := []string{"quiet", "flap-spine", "quiet", "flap-spine"}
	for i, s := range specs {
		if s.Scenario != wantOrder[i] {
			t.Fatalf("point %d scenario %q, want %q", i, s.Scenario, wantOrder[i])
		}
	}
	if k0, k1 := specs[0].Key(), specs[1].Key(); k0 == k1 {
		t.Fatalf("scenario not part of Key: %q", k0)
	}
	if s := specs[1].String(); !strings.Contains(s, "scenario=flap-spine") {
		t.Fatalf("String() %q does not name the scenario", s)
	}

	// A grid without the axis must reproduce the pre-axis expansion
	// exactly — pinned against golden seeds captured before the Scenario
	// axis existed (testGrid: 12 points, base seed 7).
	specs = testGrid().Expand()
	golden := map[int]uint64{
		0:  8581286081765471666,
		1:  1988111358474182198,
		11: 10844028036091490113,
	}
	for i, want := range golden {
		if specs[i].Scenario != "" {
			t.Fatalf("axis-free grid produced scenario %q at point %d", specs[i].Scenario, i)
		}
		if got := specs[i].Seed; got != want {
			t.Fatalf("point %d seed = %d, want pre-axis golden %d", i, got, want)
		}
	}
}

func TestWorkloadAxisExpansion(t *testing.T) {
	// The Workload axis participates in the product (after Algorithms) and
	// in Key/String; leaving it empty reproduces the pre-axis expansion
	// exactly, seeds included, so existing grids are unchanged.
	g := Grid{Workloads: []string{"fsdp-ring", "fsdp-inc"}, MsgBytes: []int{1, 2}, Seed: 3}
	specs := g.Expand()
	if len(specs) != 4 || g.Points() != 4 {
		t.Fatalf("want 4 points, got %d (Points %d)", len(specs), g.Points())
	}
	wantOrder := []string{"fsdp-ring", "fsdp-ring", "fsdp-inc", "fsdp-inc"}
	for i, s := range specs {
		if s.Workload != wantOrder[i] {
			t.Fatalf("point %d workload %q, want %q", i, s.Workload, wantOrder[i])
		}
	}
	if k0, k2 := specs[0].Key(), specs[2].Key(); k0 == k2 {
		t.Fatalf("workload not part of Key: %q", k0)
	}
	if s := specs[2].String(); !strings.Contains(s, "fsdp-inc") {
		t.Fatalf("String() %q does not name the workload", s)
	}

	// Axis-free grids keep their pre-axis seeds (same goldens as the
	// Scenario-axis check).
	free := testGrid().Expand()
	golden := map[int]uint64{0: 8581286081765471666, 11: 10844028036091490113}
	for i, want := range golden {
		if free[i].Workload != "" {
			t.Fatalf("axis-free grid produced workload %q at point %d", free[i].Workload, i)
		}
		if got := free[i].Seed; got != want {
			t.Fatalf("point %d seed = %d, want pre-axis golden %d", i, got, want)
		}
	}
}

func TestRecordWorkloadMetadataOmittedWhenEmpty(t *testing.T) {
	// Records without workload metadata must serialize exactly as before
	// the fields existed — the BENCH_*.json byte-identity contract.
	var buf strings.Builder
	rec := Record{Spec: Spec{Algorithm: "a", Seed: 1}, Metrics: map[string]float64{"m": 1}}
	if err := WriteJSON(&buf, Report{Name: "r", Records: []Record{rec}}); err != nil {
		t.Fatal(err)
	}
	if strings.Contains(buf.String(), "workload") || strings.Contains(buf.String(), "overlap_frac") {
		t.Fatalf("empty metadata serialized: %s", buf.String())
	}
	buf.Reset()
	rec.Workload, rec.OverlapFrac = "fsdp-inc", 0.5
	if err := WriteJSON(&buf, Report{Name: "r", Records: []Record{rec}}); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), `"workload": "fsdp-inc"`) ||
		!strings.Contains(buf.String(), `"overlap_frac": 0.5`) {
		t.Fatalf("metadata missing: %s", buf.String())
	}
}
