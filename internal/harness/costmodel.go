package harness

import (
	"fmt"

	"repro/internal/model"
	"repro/internal/sweep"
)

// The analytic record builders behind the cost kind: the closed-form
// figures of the paper's model (traffic savings, PSN sizing) and the §VII
// economics comparison, rendered as sweep Records so they serialize, table
// and diff exactly like the simulated experiments.

// Fig2Records evaluates the closed-form traffic model over a send-buffer
// grid — an analytic sweep, no simulation engine involved.
func Fig2Records() ([]sweep.Record, error) {
	g, err := model.Fig2Cluster()
	if err != nil {
		return nil, err
	}
	m, err := model.NewTrafficModel(g)
	if err != nil {
		return nil, err
	}
	grid := sweep.Grid{MsgBytes: []int{64 << 10, 256 << 10, 1 << 20, 4 << 20}}
	return sweep.RunGrid(grid, 0, sweep.Func(func(s sweep.Spec) (sweep.Record, error) {
		return sweep.Record{Spec: s, Metrics: map[string]float64{
			"ring_ag_bytes":   m.RingAllgatherBytes(s.MsgBytes),
			"linear_ag_bytes": m.LinearAllgatherBytes(s.MsgBytes),
			"mcast_ag_bytes":  m.McastAllgatherBytes(s.MsgBytes),
			"savings":         m.Savings(s.MsgBytes),
		}}, nil
	}))
}

// Fig7Records renders the PSN-bits sizing model; psn_bits is the swept
// quantity, carried as a metric column.
func Fig7Records() []sweep.Record {
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

// Fig7Note renders the Figure 7 footnote: the LLC-limited receive-buffer
// and communicator-count headlines of the sizing model.
func Fig7Note() string {
	return fmt.Sprintf("LLC-limited receive buffer: %.1f GB (paper: ~50 GB); communicators fitting the LLC: %d (paper: >16).",
		model.MaxBufferFittingLLC(4096)/1e9,
		model.CommunicatorsFittingLLC(64<<10, 16<<10))
}

// EconRecords reports the §VII cost/power comparison as one record.
func EconRecords() []sweep.Record {
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
