package telemetry

import (
	"os"
	"strings"
	"testing"

	"repro/internal/sim"
)

// TestNilRegistryIsFree pins the zero-cost-when-disabled contract: every
// handle obtained from a nil registry is a nil-safe no-op, and the whole
// disabled instrumentation path allocates nothing. The harness kernels
// thread nil registries unconditionally, so this gate is what keeps the
// pinned 0-alloc hot-path baselines intact.
func TestNilRegistryIsFree(t *testing.T) {
	var r *Registry
	c := r.Counter("sim", "events", "")
	g := r.Gauge("fabric", "backlog_ns", "")
	h := r.Histogram("verbs", "rc_completion_ns", "", LatencyBounds)
	s := r.NewSampler(nil)
	if c != nil || g != nil || h != nil || s != nil {
		t.Fatal("nil registry must hand out nil handles")
	}
	if allocs := testing.AllocsPerRun(100, func() {
		c := r.Counter("sim", "events", "")
		c.Add(1)
		_ = c.Value()
		r.Gauge("fabric", "backlog_ns", "").Sample(sim.Microsecond, 3)
		r.Histogram("verbs", "rc_completion_ns", "", LatencyBounds).Observe(sim.Millisecond)
		r.Span("coll", "allgather", 0, sim.Microsecond)
		r.Record(sim.Microsecond, 0, 1, PhaseDispatch, "")
		sp := r.NewSampler(nil)
		sp.Add(func(sim.Time) {})
		sp.Arm()
	}); allocs != 0 {
		t.Fatalf("disabled telemetry path allocates %v per run, want 0", allocs)
	}
	if r.Snapshot() != nil {
		t.Fatal("nil registry must snapshot to nil")
	}
}

// TestSnapshotCanonical covers the canonical serialization rules: sorted
// keys, sparse histogram buckets with the
// overflow rendered as Le=-1, and spans sorted by (track, start).
func TestSnapshotCanonical(t *testing.T) {
	r := New()
	r.Counter("sim", "events", "").Add(7)
	r.Counter("fabric", "drops", "ch=0").Add(1)
	h := r.Histogram("verbs", "rc_completion_ns", "", []sim.Time{sim.Microsecond, sim.Millisecond})
	h.Observe(500 * sim.Nanosecond) // <= 1µs
	h.Observe(2 * sim.Millisecond)  // overflow
	r.Span("coll", "allgather", 10, 20)
	r.Span("coll", "allgather", 0, 5)

	s := r.Snapshot()
	keys := make([]string, len(s.Metrics))
	for i, m := range s.Metrics {
		keys[i] = m.Key
	}
	want := []string{"fabric/drops{ch=0}", "sim/events", "verbs/rc_completion_ns"}
	if strings.Join(keys, ",") != strings.Join(want, ",") {
		t.Fatalf("snapshot keys %v, want %v (sorted)", keys, want)
	}
	var hist Metric
	for _, m := range s.Metrics {
		if m.Key == "verbs/rc_completion_ns" {
			hist = m
		}
	}
	if hist.Count != 2 || len(hist.Buckets) != 2 {
		t.Fatalf("histogram serialized as %+v, want count 2 with 2 sparse buckets", hist)
	}
	if hist.Buckets[0].Le != sim.Microsecond || hist.Buckets[0].N != 1 {
		t.Fatalf("first bucket %+v, want {1µs 1}", hist.Buckets[0])
	}
	if hist.Buckets[1].Le != -1 || hist.Buckets[1].N != 1 {
		t.Fatalf("overflow bucket %+v, want {-1 1}", hist.Buckets[1])
	}
	if len(s.Spans) != 2 || s.Spans[0].Start != 0 {
		t.Fatalf("spans %+v, want sorted by start within track", s.Spans)
	}
}

// TestKindMismatchPanics pins the registration discipline: one key, one
// metric kind.
func TestKindMismatchPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("re-registering a counter key as a gauge must panic")
		}
	}()
	r := New()
	r.Counter("sim", "events", "")
	r.Gauge("sim", "events", "")
}

// drainHost keeps an engine busy for a fixed number of self-events so the
// sampler has model work to interleave with.
type drainHost struct {
	left int
	gap  sim.Time
}

func (h *drainHost) OnEvent(e *sim.Engine, _ sim.Handle, _ uint64, _ int, _ any) {
	if h.left--; h.left > 0 {
		e.AfterHandler(h.gap, h, 0, 0, nil)
	}
}

// TestSamplerDrains checks the termination contract: the sampler ticks
// every 100 µs while the model runs and stops re-arming when the queue
// empties, so Run() returns on its own.
func TestSamplerDrains(t *testing.T) {
	eng := sim.NewEngine(1)
	r := New()
	g := r.Gauge("fabric", "backlog_ns", "")
	s := r.NewSampler(eng)
	s.Add(func(ts sim.Time) { g.Sample(ts, float64(ts)) })
	s.Arm()
	host := &drainHost{left: 20, gap: 250 * sim.Microsecond}
	eng.AfterHandler(host.gap, host, 0, 0, nil)
	eng.Run()

	snap := r.Snapshot()
	if len(snap.Metrics) != 1 {
		t.Fatalf("want 1 gauge, got %+v", snap.Metrics)
	}
	samples := snap.Metrics[0].Samples
	if len(samples) < 10 {
		t.Fatalf("sampler fired %d times over a ~5ms run at a 100µs period, want >= 10", len(samples))
	}
	for i, sm := range samples {
		if want := sim.Time(i+1) * samplePeriod; sm.T != want {
			t.Fatalf("sample %d at t=%v, want %v", i, sm.T, want)
		}
	}
	last := samples[len(samples)-1].T
	// 20 hops x 250µs = 5ms of model time; sampling must not outlive it
	// by more than one period (the tick in flight when the queue drained).
	if limit := 5000*sim.Microsecond + samplePeriod; last > limit {
		t.Fatalf("sampler kept the engine alive until %v, limit %v", last, limit)
	}
	// Re-arming while armed must not double-schedule.
	s.Arm()
	s.Arm()
	before := eng.Executed
	eng.Run()
	if eng.Executed-before > 1 {
		t.Fatalf("double Arm scheduled %d events, want 1", eng.Executed-before)
	}
}

// TestDocumentRoundTrip pins Encode/LoadDocument as inverses on the
// canonical form.
func TestDocumentRoundTrip(t *testing.T) {
	doc := Document{Name: "osu", Points: []Point{{
		Key: "mcast-allgather/allgather/n16/b65536",
		Metrics: []Metric{
			{Key: "sim/events", Type: "counter", Value: 42},
			{Key: "fabric/backlog_ns", Type: "gauge", Samples: []Sample{{T: 100, V: 1.5}}},
		},
	}}}
	path := t.TempDir() + "/metrics.json"
	if err := os.WriteFile(path, doc.Encode(), 0o644); err != nil {
		t.Fatal(err)
	}
	got, err := LoadDocument(path)
	if err != nil {
		t.Fatal(err)
	}
	if string(got.Encode()) != string(doc.Encode()) {
		t.Fatalf("round trip changed the document:\n%s\nvs\n%s", doc.Encode(), got.Encode())
	}
}
