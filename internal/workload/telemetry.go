package workload

import (
	"repro/internal/telemetry"
)

// export renders the report into reg: one span per recorded phase
// execution on a per-job track, a phase counter per job, and the job's
// overlap fraction as a gauge point at its end time. Jobs are walked in
// declaration order and spans in completion order, so the export is
// deterministic. A nil registry is a no-op.
func (r *Report) export(reg *telemetry.Registry) {
	if reg == nil {
		return
	}
	for i := range r.Jobs {
		j := &r.Jobs[i]
		lbl := "job=" + j.Name
		for _, sp := range j.Spans {
			name := sp.Phase
			if sp.Comm != "" {
				name += "/" + sp.Comm
			}
			reg.Span("workload/"+j.Name, name, sp.Start, sp.End)
		}
		reg.Counter("workload", "phases_total", lbl).Add(uint64(len(j.Spans)))
		reg.Gauge("workload", "overlap_frac", lbl).Sample(j.End, j.OverlapFrac())
	}
}
