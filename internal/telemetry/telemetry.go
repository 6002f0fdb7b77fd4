// Package telemetry is the unified observability layer: one deterministic
// recorder, the Registry, holding metrics (counters, gauges, fixed-bucket
// histograms, keyed by subsystem/name{labels}) sampled in *virtual* time,
// spans, and the protocol phase events of the paper's Figure 9. Its
// Snapshot renders as the canonical metrics document, a text timeline, or
// a Chrome-trace-event/Perfetto document.
//
// Two invariants define the design:
//
//   - Zero cost when disabled. The disabled state is a nil *Registry; every
//     method (and every handle method) is nil-safe and allocation-free on
//     nil, so instrumented hot paths keep their pinned 0-alloc baselines
//     and all goldens stay byte-identical.
//   - Determinism when enabled. Metrics are pure functions of the simulated
//     run — counters count virtual events, gauges sample at virtual times,
//     histograms bucket virtual durations — so enabled output is
//     byte-identical at any -workers count. Telemetry is part of the
//     determinism contract, not an exception to it.
package telemetry

import (
	"sort"

	"repro/internal/sim"
)

// Config is a run's telemetry setting, handed to every kernel.
type Config struct {
	// Enabled gates the whole subsystem; harness helpers return a nil
	// *Registry when false.
	Enabled bool
}

// metric is the registry's internal storage for one key; the registry's
// map holds the key.
type metric struct {
	kind    string // "counter", "gauge" or "histogram"
	counter Counter
	gauge   Gauge
	hist    Histogram
}

// Registry holds a run's metrics, spans and protocol phase events. A nil
// *Registry is the disabled state: every method is a nil-safe no-op, so
// instrumentation points need no guards and cost nothing when telemetry is
// off. A run attaches it once, where its cluster is built, and every layer
// reads it from there. Registries are not goroutine-safe; the sweep engine
// gives each point its own.
type Registry struct {
	metrics map[string]*metric
	spans   []SpanRec
	events  []Event
}

// New builds an enabled registry. Callers that want the disabled state use
// a nil *Registry instead.
func New() *Registry {
	return &Registry{metrics: make(map[string]*metric)}
}

// Key renders the canonical metric key: subsystem/name{labels}, with the
// label block omitted when empty.
func Key(subsystem, name, labels string) string {
	if labels == "" {
		return subsystem + "/" + name
	}
	return subsystem + "/" + name + "{" + labels + "}"
}

// lookup returns (creating on first use) the storage for a key, panicking
// on a kind mismatch — two subsystems disagreeing about a key's type is a
// programming error, not a runtime condition.
func (r *Registry) lookup(subsystem, name, labels, kind string) *metric {
	k := Key(subsystem, name, labels)
	if m, ok := r.metrics[k]; ok {
		if m.kind != kind {
			panic("telemetry: " + k + " registered as " + m.kind + ", requested as " + kind)
		}
		return m
	}
	m := &metric{kind: kind}
	r.metrics[k] = m
	return m
}

// --- counter ----------------------------------------------------------------------

// Counter is a monotonically increasing event count.
type Counter struct {
	v uint64
}

// Counter returns the named counter handle, nil on a nil registry.
func (r *Registry) Counter(subsystem, name, labels string) *Counter {
	if r == nil {
		return nil
	}
	return &r.lookup(subsystem, name, labels, "counter").counter
}

// Add increments the counter; a no-op on a nil handle.
func (c *Counter) Add(n uint64) {
	if c != nil {
		c.v += n
	}
}

// Value reports the accumulated count (0 on nil).
func (c *Counter) Value() uint64 {
	if c == nil {
		return 0
	}
	return c.v
}

// --- gauge ------------------------------------------------------------------------

// Sample is one (virtual time, value) gauge observation.
type Sample struct {
	T sim.Time `json:"t_ns"`
	V float64  `json:"v"`
}

// Gauge is a sampled time series of instantaneous values.
type Gauge struct {
	samples []Sample
}

// Gauge returns the named gauge handle, nil on a nil registry.
func (r *Registry) Gauge(subsystem, name, labels string) *Gauge {
	if r == nil {
		return nil
	}
	return &r.lookup(subsystem, name, labels, "gauge").gauge
}

// Sample appends one observation at virtual time t; a no-op on nil.
func (g *Gauge) Sample(t sim.Time, v float64) {
	if g != nil {
		g.samples = append(g.samples, Sample{T: t, V: v})
	}
}

// --- histogram --------------------------------------------------------------------

// Bucket is one cumulative-style histogram cell: the count of observations
// with value <= Le (the last bucket is the overflow, Le < 0 rendered as
// +Inf).
type Bucket struct {
	Le sim.Time `json:"le_ns"`
	N  uint64   `json:"n"`
}

// Histogram buckets virtual-duration observations into fixed bounds.
type Histogram struct {
	bounds []sim.Time
	counts []uint64 // len(bounds)+1; the last cell is the overflow
	total  uint64
}

// LatencyBounds is the shared exponential nanosecond bucket ladder for
// completion-latency histograms: 1 µs to ~33 ms, doubling.
var LatencyBounds = func() []sim.Time {
	var b []sim.Time
	for t := sim.Microsecond; t <= 33*sim.Millisecond; t *= 2 {
		b = append(b, t)
	}
	return b
}()

// Histogram returns the named histogram handle (with the given bucket
// bounds on first registration), nil on a nil registry.
func (r *Registry) Histogram(subsystem, name, labels string, bounds []sim.Time) *Histogram {
	if r == nil {
		return nil
	}
	m := r.lookup(subsystem, name, labels, "histogram")
	if m.hist.counts == nil {
		m.hist.bounds = bounds
		m.hist.counts = make([]uint64, len(bounds)+1)
	}
	return &m.hist
}

// Observe buckets one duration; a no-op on nil.
func (h *Histogram) Observe(v sim.Time) {
	if h == nil {
		return
	}
	h.total++
	for i, le := range h.bounds {
		if v <= le {
			h.counts[i]++
			return
		}
	}
	h.counts[len(h.bounds)]++
}

// --- spans ------------------------------------------------------------------------

// SpanRec is one named interval on a named track — collective operations,
// workload phases — rendered as Perfetto slices.
type SpanRec struct {
	Track string   `json:"track"`
	Name  string   `json:"name"`
	Start sim.Time `json:"start_ns"`
	End   sim.Time `json:"end_ns"`
}

// Span records an interval; a no-op on a nil registry.
func (r *Registry) Span(track, name string, start, end sim.Time) {
	if r == nil {
		return
	}
	r.spans = append(r.spans, SpanRec{Track: track, Name: name, Start: start, End: end})
}

// --- snapshot ---------------------------------------------------------------------

// Metric is the serialized form of one registry entry.
type Metric struct {
	Key     string   `json:"key"`
	Type    string   `json:"type"`
	Value   uint64   `json:"value,omitempty"`
	Samples []Sample `json:"samples,omitempty"`
	Count   uint64   `json:"count,omitempty"`
	Buckets []Bucket `json:"buckets,omitempty"`
}

// Snapshot is the end-of-run state of a registry: its metrics, sorted by
// key, plus the recorded spans and protocol phase events in record order
// (the timeline and Perfetto payload; neither is part of the canonical
// metrics document).
type Snapshot struct {
	Metrics []Metric  `json:"metrics"`
	Spans   []SpanRec `json:"-"`
	Events  []Event   `json:"-"`
}

// Snapshot serializes the registry. Nil registries snapshot to nil.
func (r *Registry) Snapshot() *Snapshot {
	if r == nil {
		return nil
	}
	keys := make([]string, 0, len(r.metrics))
	for k := range r.metrics {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	s := &Snapshot{Metrics: make([]Metric, 0, len(keys))}
	for _, k := range keys {
		m := r.metrics[k]
		out := Metric{Key: k, Type: m.kind}
		switch m.kind {
		case "counter":
			out.Value = m.counter.v
		case "gauge":
			out.Samples = m.gauge.samples
		case "histogram":
			out.Count = m.hist.total
			for i, le := range m.hist.bounds {
				if m.hist.counts[i] > 0 {
					out.Buckets = append(out.Buckets, Bucket{Le: le, N: m.hist.counts[i]})
				}
			}
			if over := m.hist.counts[len(m.hist.bounds)]; over > 0 {
				out.Buckets = append(out.Buckets, Bucket{Le: -1, N: over})
			}
		}
		s.Metrics = append(s.Metrics, out)
	}
	s.Spans = append(s.Spans, r.spans...)
	sort.SliceStable(s.Spans, func(i, j int) bool {
		a, b := s.Spans[i], s.Spans[j]
		if a.Track != b.Track {
			return a.Track < b.Track
		}
		return a.Start < b.Start
	})
	s.Events = append(s.Events, r.events...)
	return s
}
