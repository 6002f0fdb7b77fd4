package dpa

import (
	"testing"

	"repro/internal/sim"
	"repro/internal/verbs"
)

func TestArbiterServesAllQueues(t *testing.T) {
	eng := sim.NewEngine(1)
	d := NewDPA(eng)
	a := NewArbiter(eng, d.AllocThreads(1)[0], DPAUCRecv)
	cqs := []*verbs.CQ{{}, {}, {}}
	got := make([]int, 3)
	for i, cq := range cqs {
		i := i
		a.Subscribe(cq, func(e verbs.CQE) { got[i]++ })
	}
	for i, cq := range cqs {
		for k := 0; k < (i+1)*10; k++ {
			cq.Push(verbs.CQE{})
		}
	}
	eng.Run()
	for i, want := range []int{10, 20, 30} {
		if got[i] != want {
			t.Fatalf("queue %d served %d, want %d", i, got[i], want)
		}
	}
	if a.Processed != 60 {
		t.Fatalf("Processed = %d", a.Processed)
	}
}

func TestArbiterRoundRobinFairness(t *testing.T) {
	// Two always-full queues must be served in strict alternation: a busy
	// communicator cannot starve another (§V-C).
	eng := sim.NewEngine(1)
	d := NewDPA(eng)
	a := NewArbiter(eng, d.AllocThreads(1)[0], DPAUCRecv)
	cqA, cqB := &verbs.CQ{}, &verbs.CQ{}
	var order []string
	a.Subscribe(cqA, func(verbs.CQE) { order = append(order, "A") })
	a.Subscribe(cqB, func(verbs.CQE) { order = append(order, "B") })
	for i := 0; i < 50; i++ {
		cqA.Push(verbs.CQE{})
		cqB.Push(verbs.CQE{})
	}
	eng.Run()
	if len(order) != 100 {
		t.Fatalf("served %d", len(order))
	}
	for i := 1; i < len(order); i++ {
		if order[i] == order[i-1] {
			t.Fatalf("round robin violated at %d: %v...", i, order[max(0, i-3):i+1])
		}
	}
	if a.Served(0) != 50 || a.Served(1) != 50 {
		t.Fatalf("uneven service: %d/%d", a.Served(0), a.Served(1))
	}
}

func TestArbiterWakesOnLateTraffic(t *testing.T) {
	eng := sim.NewEngine(1)
	d := NewDPA(eng)
	a := NewArbiter(eng, d.AllocThreads(1)[0], DPAUCRecv)
	cqA, cqB := &verbs.CQ{}, &verbs.CQ{}
	served := 0
	a.Subscribe(cqA, func(verbs.CQE) { served++ })
	a.Subscribe(cqB, func(verbs.CQE) { served++ })
	// Nothing yet; traffic arrives later on the second queue only.
	eng.AfterHandler(10*sim.Microsecond, call(func() {
		for i := 0; i < 5; i++ {
			cqB.Push(verbs.CQE{})
		}
	}), 0, 0, nil)
	eng.Run()
	if served != 5 {
		t.Fatalf("served %d of 5 late completions", served)
	}
}

// call adapts a func() to sim.Handler, for tests that schedule a one-off
// action.
type call func()

func (f call) OnEvent(*sim.Engine, sim.Handle, uint64, int, any) { f() }

func TestArbiterThroughputMatchesDedicated(t *testing.T) {
	// One thread serving k queues processes at the same aggregate rate as
	// one thread on one queue: arbitration adds no modeled overhead beyond
	// the per-CQE kernel cost.
	run := func(k int) float64 {
		eng := sim.NewEngine(1)
		d := NewDPA(eng)
		a := NewArbiter(eng, d.AllocThreads(1)[0], DPAUDRecv)
		const per = 500
		for i := 0; i < k; i++ {
			cq := &verbs.CQ{}
			a.Subscribe(cq, nil)
			for j := 0; j < per; j++ {
				cq.Push(verbs.CQE{})
			}
		}
		end := eng.Run()
		return float64(per*k) / end.Seconds()
	}
	r1, r4 := run(1), run(4)
	if r4 < r1*0.99 || r4 > r1*1.01 {
		t.Fatalf("arbitrated rate %.3g differs from dedicated %.3g", r4, r1)
	}
}

func TestArbiterStop(t *testing.T) {
	eng := sim.NewEngine(1)
	d := NewDPA(eng)
	a := NewArbiter(eng, d.AllocThreads(1)[0], DPAUCRecv)
	cq := &verbs.CQ{}
	a.Subscribe(cq, nil)
	cq.Push(verbs.CQE{})
	cq.Push(verbs.CQE{})
	a.Stop()
	eng.Run()
	if a.Processed > 1 {
		t.Fatalf("arbiter processed %d after Stop", a.Processed)
	}
}

func max(a, b int) int {
	if a > b {
		return a
	}
	return b
}
