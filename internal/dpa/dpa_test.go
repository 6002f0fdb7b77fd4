package dpa

import (
	"math"
	"testing"

	"repro/internal/sim"
	"repro/internal/verbs"
)

func TestChipGeometry(t *testing.T) {
	eng := sim.NewEngine(1)
	d := NewDPA(eng)
	if len(d.cores) != 16 || d.cores[0].threads != 16 || d.Capacity() != 256 {
		t.Fatalf("DPA geometry wrong: %d cores x %d threads", len(d.cores), d.cores[0].threads)
	}
	c := NewCPU(eng, 24)
	if len(c.cores) != 24 || c.cores[0].threads != 1 {
		t.Fatalf("CPU geometry wrong")
	}
}

func TestAllocThreadsCompact(t *testing.T) {
	eng := sim.NewEngine(1)
	d := NewDPA(eng)
	ths := d.AllocThreads(20)
	// First 16 share core 0, next 4 on core 1.
	for i := 0; i < 16; i++ {
		if ths[i].core != ths[0].core {
			t.Fatalf("thread %d not on core 0", i)
		}
	}
	for i := 16; i < 20; i++ {
		if ths[i].core == ths[0].core {
			t.Fatalf("thread %d should be on core 1", i)
		}
	}
}

func TestAllocThreadsExhaustion(t *testing.T) {
	eng := sim.NewEngine(1)
	d := NewChip(eng, "tiny", 1, 2, 1e9, 0)
	d.AllocThreads(2)
	defer func() {
		if recover() == nil {
			t.Error("over-allocation did not panic")
		}
	}()
	d.AllocThreads(1)
}

func TestSingleThreadRateMatchesTableI(t *testing.T) {
	// One DPA thread: rate = freq / LatencyCycles. Table I: UD 1084 cycles
	// at 1.8 GHz -> 1.66M CQE/s -> 6.8e9 B/s with 4 KiB chunks (the paper
	// reports 5.2 GiB/s = 5.58e9; our model is within 25%, see EXPERIMENTS).
	eng := sim.NewEngine(1)
	d := NewDPA(eng)
	th := d.AllocThreads(1)[0]
	var done sim.Time
	const n = 1000
	for i := 0; i < n; i++ {
		done = th.Run(DPAUDRecv, 0)
	}
	rate := float64(n) / done.Seconds()
	want := 1.8e9 / 1084
	if math.Abs(rate-want)/want > 0.01 {
		t.Fatalf("single-thread UD rate %.3g, want %.3g", rate, want)
	}
}

func TestSingleThreadIPC(t *testing.T) {
	if ipc := DPAUCRecv.IPC(); math.Abs(ipc-0.11) > 0.005 {
		t.Errorf("UC IPC = %.3f, want ≈0.11 (Table I)", ipc)
	}
	if ipc := DPAUDRecv.IPC(); math.Abs(ipc-0.104) > 0.005 {
		t.Errorf("UD IPC = %.3f, want ≈0.10 (Table I)", ipc)
	}
}

func TestMultithreadingHidesLatency(t *testing.T) {
	// With k threads on one core, aggregate throughput must rise roughly
	// k-fold (minus contention) until the issue pipeline binds.
	rate := func(k int) float64 {
		eng := sim.NewEngine(1)
		d := NewDPA(eng)
		ths := d.AllocThreads(k)
		const per = 500
		var last sim.Time
		for i := 0; i < per; i++ {
			for _, th := range ths {
				if done := th.Run(DPAUDRecv, 0); done > last {
					last = done
				}
			}
		}
		return float64(per*k) / last.Seconds()
	}
	r1, r4, r16 := rate(1), rate(4), rate(16)
	if r4 < 2.5*r1 {
		t.Errorf("4 threads only %.2fx of 1 thread", r4/r1)
	}
	if r16 < r4 {
		t.Errorf("16 threads slower than 4: %.3g vs %.3g", r16, r4)
	}
	// Issue bound: rate can never exceed freq/IssueCycles.
	if bound := 1.8e9 / 113; r16 > bound*1.001 {
		t.Errorf("16-thread rate %.3g exceeds issue bound %.3g", r16, bound)
	}
}

func TestContentionInflatesLatency(t *testing.T) {
	eng := sim.NewEngine(1)
	d := NewDPA(eng)
	ths := d.AllocThreads(16)
	want := 1084 * (1 + 0.10*15)
	ths[0].Run(DPAUDRecv, 0)
	if got := ths[0].BusyCycles; math.Abs(got-want) > 0.5 {
		t.Fatalf("effective latency %.1f, want %.1f", got, want)
	}
}

func TestCPUCoreNoContention(t *testing.T) {
	eng := sim.NewEngine(1)
	c := NewCPU(eng, 2)
	ths := c.AllocThreads(2)
	// Single CPU core UD rate: 2.6e9/800 = 3.25M CQE/s. With 4 KiB chunks
	// that is 13.3 GB/s ~= 106 Gbit/s — about half of a 200 Gbit/s link,
	// matching Figure 5's observation.
	var done sim.Time
	for i := 0; i < 1000; i++ {
		done = ths[0].Run(CPUUDRecv, 0)
	}
	if got := ths[0].BusyCycles / 1000; got != 800 {
		t.Fatalf("CPU effective latency %.1f, want 800", got)
	}
	gbits := 1000.0 * 4096 * 8 / done.Seconds() / 1e9
	if gbits < 95 || gbits > 115 {
		t.Fatalf("single CPU core sustains %.1f Gbit/s, want ≈106", gbits)
	}
}

func TestRunRespectsReadyTime(t *testing.T) {
	eng := sim.NewEngine(1)
	d := NewDPA(eng)
	th := d.AllocThreads(1)[0]
	done := th.Run(DPAUCRecv, 1000*sim.Nanosecond)
	lat := float64(598) / 1.8e9 * 1e9
	wantLat := sim.Time(lat)
	if done != 1000+wantLat {
		t.Fatalf("done = %v, want %v", done, 1000+wantLat)
	}
}

func TestThreadCounters(t *testing.T) {
	eng := sim.NewEngine(1)
	d := NewDPA(eng)
	th := d.AllocThreads(1)[0]
	th.Run(DPAUCRecv, 0)
	th.Run(DPAUCRecv, 0)
	if th.Handled != 2 {
		t.Fatalf("Handled = %d", th.Handled)
	}
	if th.IssueCyclesRetired != 132 {
		t.Fatalf("IssueCyclesRetired = %v", th.IssueCyclesRetired)
	}
	if th.BusyCycles != 2*598 {
		t.Fatalf("BusyCycles = %v", th.BusyCycles)
	}
}

func TestWorkerPumpsCQ(t *testing.T) {
	eng := sim.NewEngine(1)
	d := NewDPA(eng)
	th := d.AllocThreads(1)[0]
	cq := &verbs.CQ{}
	var handled []uint32
	w := NewWorker(eng, th, DPAUCRecv)
	w.Serve(cq, func(e verbs.CQE) { handled = append(handled, e.Imm) })
	for i := uint32(0); i < 10; i++ {
		cq.Push(verbs.CQE{Imm: i})
	}
	eng.Run()
	if len(handled) != 10 {
		t.Fatalf("handled %d of 10", len(handled))
	}
	for i, imm := range handled {
		if imm != uint32(i) {
			t.Fatalf("out-of-order handling: %v", handled)
		}
	}
	if w.Processed != 10 {
		t.Fatalf("Processed = %d", w.Processed)
	}
}

func TestWorkerWakesOnArm(t *testing.T) {
	eng := sim.NewEngine(1)
	d := NewDPA(eng)
	th := d.AllocThreads(1)[0]
	cq := &verbs.CQ{}
	w := NewWorker(eng, th, DPAUCRecv)
	w.Serve(cq, nil) // CQ empty: arms and sleeps
	if cq.Armed == nil {
		t.Fatalf("worker did not arm the empty CQ")
	}
	// A push at t=5µs must wake it.
	eng.AfterHandler(5*sim.Microsecond, call(func() { cq.Push(verbs.CQE{}) }), 0, 0, nil)
	eng.Run()
	if w.Processed != 1 {
		t.Fatalf("worker did not wake on push")
	}
}

func TestWorkerServiceRate(t *testing.T) {
	// A worker saturated with completions must process at freq/latency.
	eng := sim.NewEngine(1)
	d := NewDPA(eng)
	th := d.AllocThreads(1)[0]
	cq := &verbs.CQ{}
	w := NewWorker(eng, th, DPAUDRecv)
	const n = 2000
	for i := 0; i < n; i++ {
		cq.Push(verbs.CQE{})
	}
	w.Serve(cq, nil)
	end := eng.Run()
	rate := float64(n) / end.Seconds()
	want := 1.8e9 / 1084
	if math.Abs(rate-want)/want > 0.02 {
		t.Fatalf("saturated worker rate %.3g, want %.3g", rate, want)
	}
}

// The tests below cover a worker serving several queues: the software
// traffic arbitration of §V-C.

func TestArbiterServesAllQueues(t *testing.T) {
	eng := sim.NewEngine(1)
	d := NewDPA(eng)
	w := NewWorker(eng, d.AllocThreads(1)[0], DPAUCRecv)
	cqs := []*verbs.CQ{{}, {}, {}}
	got := make([]int, 3)
	for i, cq := range cqs {
		i := i
		w.Serve(cq, func(e verbs.CQE) { got[i]++ })
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
	if w.Processed != 60 {
		t.Fatalf("Processed = %d", w.Processed)
	}
}

func TestArbiterRoundRobinFairness(t *testing.T) {
	// Two always-full queues must be served in strict alternation: a busy
	// communicator cannot starve another (§V-C).
	eng := sim.NewEngine(1)
	d := NewDPA(eng)
	w := NewWorker(eng, d.AllocThreads(1)[0], DPAUCRecv)
	cqA, cqB := &verbs.CQ{}, &verbs.CQ{}
	var order []string
	served := make([]int, 2)
	w.Serve(cqA, func(verbs.CQE) { order = append(order, "A"); served[0]++ })
	w.Serve(cqB, func(verbs.CQE) { order = append(order, "B"); served[1]++ })
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
	if served[0] != 50 || served[1] != 50 {
		t.Fatalf("uneven service: %d/%d", served[0], served[1])
	}
}

func TestArbiterWakesOnLateTraffic(t *testing.T) {
	eng := sim.NewEngine(1)
	d := NewDPA(eng)
	w := NewWorker(eng, d.AllocThreads(1)[0], DPAUCRecv)
	cqA, cqB := &verbs.CQ{}, &verbs.CQ{}
	served := 0
	w.Serve(cqA, func(verbs.CQE) { served++ })
	w.Serve(cqB, func(verbs.CQE) { served++ })
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

func TestArbiterThroughputMatchesDedicated(t *testing.T) {
	// One thread serving k queues processes at the same aggregate rate as
	// one thread on one queue: arbitration adds no modeled overhead beyond
	// the per-CQE kernel cost.
	run := func(k int) float64 {
		eng := sim.NewEngine(1)
		d := NewDPA(eng)
		w := NewWorker(eng, d.AllocThreads(1)[0], DPAUDRecv)
		const per = 500
		for i := 0; i < k; i++ {
			cq := &verbs.CQ{}
			w.Serve(cq, nil)
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

// call adapts a func() to sim.Handler, for tests that schedule a one-off
// action.
type call func()

func (f call) OnEvent(*sim.Engine, sim.Handle, uint64, int, any) { f() }

func TestInvalidGeometryPanics(t *testing.T) {
	eng := sim.NewEngine(1)
	for _, f := range []func(){
		func() { NewChip(eng, "x", 0, 1, 1e9, 0) },
		func() { NewChip(eng, "x", 1, 0, 1e9, 0) },
		func() { NewChip(eng, "x", 1, 1, 0, 0) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Error("invalid geometry accepted")
				}
			}()
			f()
		}()
	}
}
