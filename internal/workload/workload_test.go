package workload

import (
	"fmt"
	"runtime"
	"strings"
	"testing"

	"repro/internal/cluster"
	"repro/internal/collective"
	"repro/internal/fabric"
	"repro/internal/sim"
	"repro/internal/topology"
)

func testCluster(t *testing.T, hosts int, seed uint64) *cluster.Cluster {
	t.Helper()
	eng := sim.NewEngine(seed)
	g := topology.Star(hosts)
	f := fabric.New(eng, g, fabric.Config{})
	return cluster.New(f, cluster.Config{})
}

func mustRun(t *testing.T, cl *cluster.Cluster, w Workload) *Report {
	t.Helper()
	rep, err := Run(cl, w)
	if err != nil {
		t.Fatal(err)
	}
	return rep
}

// TestComputeChainSerializes checks dependent compute phases execute back
// to back on the job's CPU thread.
func TestComputeChainSerializes(t *testing.T) {
	cl := testCluster(t, 2, 1)
	rep := mustRun(t, cl, Workload{Name: "chain", Jobs: []Job{{
		Name: "j",
		Phases: []Phase{
			{Name: "a", Compute: 100 * sim.Microsecond},
			{Name: "b", After: []string{"a"}, Compute: 50 * sim.Microsecond},
		},
	}}})
	j := rep.Job("j")
	if got, want := j.StepTime(), 150*sim.Microsecond; got != want {
		t.Fatalf("step = %v, want %v", got, want)
	}
	if j.ComputeBusy != 150*sim.Microsecond {
		t.Fatalf("compute busy = %v", j.ComputeBusy)
	}
	if j.CommBusy != 0 || j.OverlapFrac() != 0 {
		t.Fatalf("pure-compute job reported comm: busy=%v overlap=%v", j.CommBusy, j.OverlapFrac())
	}
}

// TestComputePhasesAllocFree: a compute phase's completion is a pooled
// engine event carrying the phase, so once the engine's pool is warm a long
// compute chain allocates only its amortized span bookkeeping, nothing per
// phase.
func TestComputePhasesAllocFree(t *testing.T) {
	const n = 1000
	phases := make([]Phase, n)
	for i := range phases {
		phases[i] = Phase{Name: fmt.Sprintf("c%d", i), Compute: sim.Microsecond}
		if i > 0 {
			phases[i].After = []string{phases[i-1].Name}
		}
	}
	w := Workload{Name: "compute", Jobs: []Job{{Name: "j", Phases: phases}}}
	cl := testCluster(t, 2, 1)
	mustRun(t, cl, w) // warms the engine's event pool
	p, err := Start(cl, w)
	if err != nil {
		t.Fatal(err)
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	cl.Fabric().Engine().Run()
	runtime.ReadMemStats(&after)
	rep, err := p.Report()
	if err != nil {
		t.Fatal(err)
	}
	if got := len(rep.Job("j").Spans); got != n {
		t.Fatalf("%d spans, want %d", got, n)
	}
	if per := float64(after.Mallocs-before.Mallocs) / n; per > 0.05 {
		t.Fatalf("%.3f allocations per compute phase, want <= 0.05", per)
	}
}

// TestStreamSerializesCollectives checks two ready phases on one comm run
// one after the other, while phases on distinct comms overlap.
func TestStreamSerializesCollectives(t *testing.T) {
	cl := testCluster(t, 4, 1)
	rep := mustRun(t, cl, Workload{Name: "streams", Jobs: []Job{{
		Name:  "j",
		Comms: []Comm{{Name: "s", Algorithm: "ring-allgather"}},
		Phases: []Phase{
			{Name: "a", Comm: "s", Bytes: 64 << 10},
			{Name: "b", Comm: "s", Bytes: 64 << 10},
		},
	}}})
	spans := rep.Job("j").Spans
	if len(spans) != 2 {
		t.Fatalf("spans = %d", len(spans))
	}
	if spans[1].Start < spans[0].End {
		t.Fatalf("stream overlap: second starts %v before first ends %v", spans[1].Start, spans[0].End)
	}

	// Same two operations on separate comms on a fresh system: they overlap
	// and finish later per-op (sharing NICs) but the streams start together.
	cl2 := testCluster(t, 4, 1)
	rep2 := mustRun(t, cl2, Workload{Name: "streams2", Jobs: []Job{{
		Name: "j",
		Comms: []Comm{
			{Name: "s1", Algorithm: "ring-allgather"},
			{Name: "s2", Algorithm: "ring-allgather"},
		},
		Phases: []Phase{
			{Name: "a", Comm: "s1", Bytes: 64 << 10},
			{Name: "b", Comm: "s2", Bytes: 64 << 10},
		},
	}}})
	spans2 := rep2.Job("j").Spans
	if spans2[0].Start != spans2[1].Start {
		t.Fatalf("distinct comms should start together, got %v and %v", spans2[0].Start, spans2[1].Start)
	}
	if rep2.Span() >= rep.Span() {
		t.Fatalf("concurrent streams (%v) should beat the serial stream (%v)", rep2.Span(), rep.Span())
	}
}

// TestOverlapHidesCommBehindCompute checks the overlap metric: a collective
// issued alongside a longer compute phase is fully hidden.
func TestOverlapHidesCommBehindCompute(t *testing.T) {
	cl := testCluster(t, 4, 1)
	rep := mustRun(t, cl, Workload{Name: "hide", Jobs: []Job{{
		Name:  "j",
		Comms: []Comm{{Name: "s", Algorithm: "ring-allgather"}},
		Phases: []Phase{
			{Name: "comp", Compute: 10 * sim.Millisecond},
			{Name: "coll", Comm: "s", Bytes: 64 << 10},
		},
	}}})
	j := rep.Job("j")
	if j.StepTime() != 10*sim.Millisecond {
		t.Fatalf("step = %v, want the compute duration", j.StepTime())
	}
	if got := j.OverlapFrac(); got != 1 {
		t.Fatalf("overlap = %v, want 1 (comm fully hidden)", got)
	}
}

// TestConcurrentJobsContend checks two identical jobs on the same hosts
// slow each other down relative to one job alone.
func TestConcurrentJobsContend(t *testing.T) {
	job := func(name string) Job {
		return Job{
			Name:  name,
			Comms: []Comm{{Name: "s", Algorithm: "ring-allgather"}},
			Phases: []Phase{
				{Name: "a", Comm: "s", Bytes: 256 << 10},
			},
		}
	}
	alone := mustRun(t, testCluster(t, 4, 1), Workload{Name: "solo", Jobs: []Job{job("j0")}})
	both := mustRun(t, testCluster(t, 4, 1), Workload{Name: "duo", Jobs: []Job{job("j0"), job("j1")}})
	if both.Job("j0").StepTime() <= alone.Job("j0").StepTime() {
		t.Fatalf("contended job (%v) should be slower than solo (%v)",
			both.Job("j0").StepTime(), alone.Job("j0").StepTime())
	}
}

// TestDeterminism checks the same workload on the same seed is bit-equal.
func TestDeterminism(t *testing.T) {
	run := func() *Report {
		cl := testCluster(t, 16, 3)
		w, err := New("fsdp-inc", Config{Nodes: 16, Layers: 3, ShardBytes: 128 << 10})
		if err != nil {
			t.Fatal(err)
		}
		return mustRun(t, cl, w)
	}
	a, b := run(), run()
	if a.Span() != b.Span() {
		t.Fatalf("span %v vs %v", a.Span(), b.Span())
	}
	sa, sb := a.Jobs[0].Spans, b.Jobs[0].Spans
	if len(sa) != len(sb) {
		t.Fatalf("span counts differ")
	}
	for i := range sa {
		if sa[i].Start != sb[i].Start || sa[i].End != sb[i].End || sa[i].Phase != sb[i].Phase {
			t.Fatalf("span %d differs: %+v vs %+v", i, sa[i], sb[i])
		}
	}
}

// TestFSDPIncBeatsRing reproduces the paper's application-level claim at
// the workload layer: the {mcast AG, inc RS} pairing beats {ring, ring}.
func TestFSDPIncBeatsRing(t *testing.T) {
	cfg := Config{Nodes: 16, Layers: 4, ShardBytes: 256 << 10}
	step := func(name string) sim.Time {
		w, err := New(name, cfg)
		if err != nil {
			t.Fatal(err)
		}
		rep := mustRun(t, testCluster(t, 16, 7), w)
		return rep.Job("fsdp").StepTime()
	}
	ring, inc := step("fsdp-ring"), step("fsdp-inc")
	if inc >= ring {
		t.Fatalf("inc pair (%v) should beat ring pair (%v)", inc, ring)
	}
}

// TestMultiTenantHostSlices checks the tenant preset lands jobs on
// disjoint host slices and MinHosts sizes the fabric.
func TestMultiTenantHostSlices(t *testing.T) {
	w, err := New("fsdp-tenants", Config{Nodes: 4, Layers: 2, ShardBytes: 64 << 10})
	if err != nil {
		t.Fatal(err)
	}
	if got := w.MinHosts(); got != 8 {
		t.Fatalf("MinHosts = %d, want 8", got)
	}
	rep := mustRun(t, testCluster(t, 8, 5), w)
	if len(rep.Jobs) != 2 {
		t.Fatalf("jobs = %d", len(rep.Jobs))
	}
	for _, j := range rep.Jobs {
		if j.StepTime() <= 0 {
			t.Fatalf("tenant %s did not run", j.Name)
		}
	}
}

// TestValidationErrors exercises the declaration error paths.
func TestValidationErrors(t *testing.T) {
	cl := testCluster(t, 4, 1)
	cases := []struct {
		name string
		w    Workload
		want string
	}{
		{"no jobs", Workload{Name: "w"}, "no jobs"},
		{"dup job", Workload{Name: "w", Jobs: []Job{
			{Name: "j", Phases: []Phase{{Name: "a", Compute: 1}}},
			{Name: "j", Phases: []Phase{{Name: "a", Compute: 1}}},
		}}, "unique name"},
		{"unknown comm", Workload{Name: "w", Jobs: []Job{
			{Name: "j", Phases: []Phase{{Name: "a", Comm: "nope", Bytes: 1}}},
		}}, "unknown comm"},
		{"unknown dep", Workload{Name: "w", Jobs: []Job{
			{Name: "j", Phases: []Phase{{Name: "a", Compute: 1, After: []string{"ghost"}}}},
		}}, "unknown dependency"},
		{"cycle", Workload{Name: "w", Jobs: []Job{
			{Name: "j", Phases: []Phase{
				{Name: "a", Compute: 1, After: []string{"b"}},
				{Name: "b", Compute: 1, After: []string{"a"}},
			}},
		}}, "cycle"},
		{"both kinds", Workload{Name: "w", Jobs: []Job{
			{Name: "j",
				Comms:  []Comm{{Name: "s", Algorithm: "ring-allgather"}},
				Phases: []Phase{{Name: "a", Compute: 1, Comm: "s", Bytes: 1}}},
		}}, "exactly one"},
		{"bad algorithm", Workload{Name: "w", Jobs: []Job{
			{Name: "j",
				Comms:  []Comm{{Name: "s", Algorithm: "no-such-algo"}},
				Phases: []Phase{{Name: "a", Comm: "s", Bytes: 1}}},
		}}, "unknown algorithm"},
		{"host slice", Workload{Name: "w", Jobs: []Job{
			{Name: "j", HostOffset: 2, HostCount: 8,
				Phases: []Phase{{Name: "a", Compute: 1}}},
		}}, "outside cluster"},
	}
	for _, c := range cases {
		if _, err := Start(cl, c.w); err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("%s: err = %v, want substring %q", c.name, err, c.want)
		}
	}
}

// TestUnknownPreset checks New's error lists the registry.
func TestUnknownPreset(t *testing.T) {
	if _, err := New("nope", Config{}); err == nil || !strings.Contains(err.Error(), "fsdp-inc") {
		t.Fatalf("err = %v", err)
	}
}

// TestOnSpanObserver checks the completion hook fires once per phase, at
// the phase's completion time, with the comm's algorithm for collectives
// and nil for compute.
func TestOnSpanObserver(t *testing.T) {
	cl := testCluster(t, 4, 1)
	w := Workload{Name: "obs", Jobs: []Job{{
		Name:  "j",
		Comms: []Comm{{Name: "s", Algorithm: "ring-allgather"}},
		Phases: []Phase{
			{Name: "comp", Compute: 10 * sim.Microsecond},
			{Name: "coll", After: []string{"comp"}, Comm: "s", Bytes: 16 << 10},
		},
	}}}
	type seen struct {
		span   Span
		hadAlg bool
	}
	var calls []seen
	w.OnSpan = func(s Span, alg collective.Algorithm) {
		calls = append(calls, seen{s, alg != nil})
		if alg != nil && alg.Name() != "ring-allgather" {
			t.Errorf("observer got algorithm %q", alg.Name())
		}
	}
	rep := mustRun(t, cl, w)
	if len(calls) != 2 {
		t.Fatalf("observer fired %d times, want 2", len(calls))
	}
	if calls[0].span.Phase != "comp" || calls[0].hadAlg {
		t.Fatalf("first call = %+v, want compute span without algorithm", calls[0])
	}
	if calls[1].span.Phase != "coll" || !calls[1].hadAlg {
		t.Fatalf("second call = %+v, want collective span with algorithm", calls[1])
	}
	if got := rep.Job("j").Spans; got[1].End != calls[1].span.End {
		t.Fatalf("observer span end %v != reported %v", calls[1].span.End, got[1].End)
	}
}
