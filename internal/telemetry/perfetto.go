package telemetry

import (
	"bytes"
	"encoding/json"
	"io"
	"sort"
	"strconv"

	"repro/internal/sim"
)

// tev is one Chrome trace event. Field order and omitempty choices are
// part of the canonical encoding; timestamps are virtual-time microseconds
// (the unit the trace-event format mandates).
type tev struct {
	Name string  `json:"name"`
	Ph   string  `json:"ph"`
	Ts   float64 `json:"ts"`
	Dur  float64 `json:"dur,omitempty"`
	Pid  int     `json:"pid"`
	Tid  int     `json:"tid"`
	Args any     `json:"args,omitempty"`
}

type nameArgs struct {
	Name string `json:"name"`
}

type detailArgs struct {
	Detail string `json:"detail,omitempty"`
}

type valueArgs struct {
	Value float64 `json:"value"`
}

// Process ids of the exported tracks. Protocol ranks are threads of pid 1,
// registry span tracks threads of pid 2, metric counters live on pid 3.
const (
	pidProtocol = 1
	pidSpans    = 2
	pidMetrics  = 3
)

func us(t sim.Time) float64 { return float64(t) / 1e3 }

// WritePerfetto renders the snapshot as a Chrome trace-event JSON document
// (open at ui.perfetto.dev or chrome://tracing): one named thread per
// protocol rank carrying its phase slices, one per registry span track
// (collective operations, workload phases), and one counter track per
// gauge series. The output is a pure function of the snapshot — deterministic
// across -workers like everything else telemetry emits.
func (s *Snapshot) WritePerfetto(w io.Writer) error {
	var evs []tev
	add := func(e tev) { evs = append(evs, e) }

	// Protocol ranks: pid 1, tid = rank. Consecutive events of a rank
	// bound the phase slices: entering phase P at t1 and the next phase at
	// t2 renders P as [t1, t2); the final event becomes an instant.
	ranks := map[int]bool{}
	for _, e := range s.Events {
		ranks[e.Rank] = true
	}
	if len(ranks) > 0 {
		add(tev{Name: "process_name", Ph: "M", Pid: pidProtocol, Args: nameArgs{Name: "protocol"}})
		rankIDs := make([]int, 0, len(ranks))
		for r := range ranks {
			rankIDs = append(rankIDs, r)
		}
		sort.Ints(rankIDs)
		for _, r := range rankIDs {
			add(tev{Name: "thread_name", Ph: "M", Pid: pidProtocol, Tid: r,
				Args: nameArgs{Name: "rank " + strconv.Itoa(r)}})
			byRank := s.ByRank(r)
			for i, e := range byRank {
				if i+1 < len(byRank) {
					add(tev{Name: e.Phase, Ph: "X", Ts: us(e.T), Dur: us(byRank[i+1].T - e.T),
						Pid: pidProtocol, Tid: r, Args: detailArgs{Detail: e.Detail}})
				} else {
					add(tev{Name: e.Phase, Ph: "i", Ts: us(e.T),
						Pid: pidProtocol, Tid: r, Args: detailArgs{Detail: e.Detail}})
				}
			}
		}
	}

	// Registry spans: pid 2, one thread per track name (sorted).
	if len(s.Spans) > 0 {
		add(tev{Name: "process_name", Ph: "M", Pid: pidSpans, Args: nameArgs{Name: "spans"}})
		tracks := map[string]bool{}
		for _, sp := range s.Spans {
			tracks[sp.Track] = true
		}
		names := make([]string, 0, len(tracks))
		for n := range tracks {
			names = append(names, n)
		}
		sort.Strings(names)
		tid := map[string]int{}
		for i, n := range names {
			tid[n] = i
			add(tev{Name: "thread_name", Ph: "M", Pid: pidSpans, Tid: i, Args: nameArgs{Name: n}})
		}
		for _, sp := range s.Spans {
			add(tev{Name: sp.Name, Ph: "X", Ts: us(sp.Start), Dur: us(sp.End - sp.Start),
				Pid: pidSpans, Tid: tid[sp.Track]})
		}
	}

	// Gauge series: pid 3 counter tracks, one per metric key, in snapshot
	// (sorted-key) order.
	named := false
	for _, m := range s.Metrics {
		if m.Type != "gauge" || len(m.Samples) == 0 {
			continue
		}
		if !named {
			add(tev{Name: "process_name", Ph: "M", Pid: pidMetrics, Args: nameArgs{Name: "metrics"}})
			named = true
		}
		for _, smp := range m.Samples {
			add(tev{Name: m.Key, Ph: "C", Ts: us(smp.T), Pid: pidMetrics, Args: valueArgs{Value: smp.V}})
		}
	}

	doc := struct {
		DisplayTimeUnit string `json:"displayTimeUnit"`
		TraceEvents     []tev  `json:"traceEvents"`
	}{DisplayTimeUnit: "ns", TraceEvents: evs}
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	enc.SetIndent("", " ")
	if err := enc.Encode(doc); err != nil {
		return err
	}
	_, err := w.Write(buf.Bytes())
	return err
}
