package sim

import "testing"

// The engine benchmarks fix the work per benchmark iteration (one iteration
// = churnEvents schedule/fire cycles on a prewarmed engine) so allocs/op is
// a steady-state number independent of b.N, and events/sec is reported as
// a custom metric. (The committed trajectory is the host-time ledger's
// sim.* layer drivers: bench/, perf/*.json.)

const churnEvents = 1 << 14

// benchChurn self-rearms with a cheap LCG-spread delay, exercising bucket
// hits, window wraps and the occasional far-future overflow.
type benchChurn struct {
	state     uint64
	remaining int
}

func (h *benchChurn) delay() Time {
	h.state = h.state*6364136223846793005 + 1442695040888963407
	return Time(h.state >> 52) // 0..4095 ns: a few buckets of spread
}

func (h *benchChurn) OnEvent(e *Engine, _ Handle, _ uint64, _ int, _ any) {
	if h.remaining > 0 {
		h.remaining--
		e.AfterHandler(h.delay(), h, 0, 0, nil)
	}
}

// BenchmarkEngineHandlerChurn measures the pooled hot path: the scheduling
// shape of fabric hops and send completions.
func BenchmarkEngineHandlerChurn(b *testing.B) {
	e := NewEngine(1)
	h := &benchChurn{state: 1, remaining: churnEvents}
	e.AfterHandler(1, h, 0, 0, nil)
	e.Run() // warm the pool and the bucket store
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		h.remaining = churnEvents
		e.AfterHandler(1, h, 0, 0, nil)
		e.Run()
	}
	b.StopTimer()
	b.ReportMetric(float64(b.N)*float64(churnEvents+1)/b.Elapsed().Seconds(), "events/sec")
}

// BenchmarkEngineTimerCancelRearm measures the RC retransmission pattern:
// arm a far-future timer, cancel it, arm the next — pure far-heap traffic
// through the pool.
func BenchmarkEngineTimerCancelRearm(b *testing.B) {
	e := NewEngine(1)
	h := &benchChurn{}
	for i := 0; i < 64; i++ {
		e.AfterHandler(300*Microsecond, h, 0, 0, nil).Cancel()
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for j := 0; j < churnEvents; j++ {
			e.AfterHandler(300*Microsecond, h, 0, 0, nil).Cancel()
		}
	}
	b.StopTimer()
	b.ReportMetric(float64(b.N)*float64(churnEvents)/b.Elapsed().Seconds(), "timers/sec")
}
