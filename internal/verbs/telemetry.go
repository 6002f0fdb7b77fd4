package verbs

import "repro/internal/telemetry"

// CollectTelemetry exports the context's transport counters into reg.
// Per-QP counters are summed context-wide; summing is commutative, so the
// exported totals do not depend on QP order. A nil registry is a no-op.
func (ctx *Context) CollectTelemetry(reg *telemetry.Registry) {
	if reg == nil {
		return
	}
	var rnr, retx, ucDrop uint64
	rnr = ctx.RNRDrops
	for _, qp := range ctx.qps {
		rnr += qp.RNRDrops
		retx += qp.Retransmits
		ucDrop += qp.UCMsgDropped
	}
	reg.Counter("verbs", "rnr_drops", "", telemetry.Stable).Add(rnr)
	reg.Counter("verbs", "retransmits", "", telemetry.Stable).Add(retx)
	reg.Counter("verbs", "uc_msg_dropped", "", telemetry.Stable).Add(ucDrop)
}
