package verbs

import "repro/internal/telemetry"

// CollectTelemetry exports the context's transport counters into reg.
// Per-QP counters are summed context-wide; summing is commutative, so the
// exported totals do not depend on QP order. A UC message counts as dropped
// when a lost segment has left it incomplete at collection time. A nil
// registry is a no-op.
func (ctx *Context) CollectTelemetry(reg *telemetry.Registry) {
	if reg == nil {
		return
	}
	var rnr, retx, ucDrop uint64
	rnr = ctx.RNRDrops
	for _, qp := range ctx.qps {
		rnr += qp.RNRDrops
		retx += qp.Retransmits
		ucDrop += uint64(len(qp.assembly))
	}
	reg.Counter("verbs", "rnr_drops", "").Add(rnr)
	reg.Counter("verbs", "retransmits", "").Add(retx)
	reg.Counter("verbs", "uc_msg_dropped", "").Add(ucDrop)
}
