package harness

import (
	"sync"

	"repro/internal/model"
	"repro/internal/sweep"
	"repro/internal/telemetry"
	"repro/internal/topology"
)

// The analytic kernels: the closed-form results of the paper's model
// (traffic savings, PSN sizing) and the §VII economics comparison,
// rendered as sweep Records so they serialize, table and diff exactly like
// the simulated experiments.

// TrafficModelKernel evaluates the closed-form Allgather traffic model of
// Figure 2 at the point's MsgBytes on the paper's 1024-node cluster, a
// three-level radix-32 fat-tree — an analytic sweep, no simulation engine
// involved. The model is built once, on the first point, and shared
// read-only by every point after it.
func TrafficModelKernel(telemetry.Config) sweep.Func {
	build := sync.OnceValues(func() (*model.TrafficModel, error) {
		g, err := topology.ThreeLevelFatTree(32, 1024)
		if err != nil {
			return nil, err
		}
		return model.NewTrafficModel(g)
	})
	return func(s sweep.Spec) (sweep.Record, error) {
		m, err := build()
		if err != nil {
			return sweep.Record{}, err
		}
		return sweep.Record{Spec: s, Metrics: map[string]float64{
			"ring_ag_bytes":   m.RingAllgatherBytes(s.MsgBytes),
			"linear_ag_bytes": m.LinearAllgatherBytes(s.MsgBytes),
			"mcast_ag_bytes":  m.McastAllgatherBytes(s.MsgBytes),
			"savings":         m.Savings(s.MsgBytes),
		}}, nil
	}
}

// PSNSizingRecords renders the PSN-bits sizing model of Figure 7 at 4 KiB
// chunks; psn_bits is the swept quantity, carried as a metric column.
func PSNSizingRecords() []sweep.Record {
	var recs []sweep.Record
	for i, p := range model.BitmapModel(16, 28, 4096) {
		fits := 0.0
		if p.FitsDPALLC {
			fits = 1
		}
		recs = append(recs, sweep.Record{
			Spec: sweep.Spec{ChunkSize: 4096, Index: i},
			Metrics: map[string]float64{
				"psn_bits":        float64(p.PSNBits),
				"max_recv_buffer": p.MaxRecvBuffer,
				"bitmap_bytes":    p.BitmapBytes,
				"fits_dpa_llc":    fits,
			},
		})
	}
	return recs
}

// EconomicsRecords reports the §VII cost/power comparison as one record.
func EconomicsRecords() []sweep.Record {
	in := model.SuperPODNode()
	r := in.Economics()
	return []sweep.Record{{
		Spec: sweep.Spec{Algorithm: "superpod-node"},
		Metrics: map[string]float64{
			"links":           float64(in.Links),
			"link_gbps":       in.LinkGbps,
			"cores_needed":    r.CoresNeeded,
			"cpu_cost_usd":    r.CPUCost,
			"cpu_watts":       r.CPUWatts,
			"nic_cost_usd":    r.NICCost,
			"nic_watts":       r.NICWatts,
			"cost_advantage":  r.CostAdvantage,
			"power_advantage": r.PowerAdvantage,
		},
	}}
}
