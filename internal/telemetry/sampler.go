package telemetry

import "repro/internal/sim"

// samplePeriod is the gauge sampling cadence: 100 µs of virtual time.
const samplePeriod = 100 * sim.Microsecond

// Sampler drives virtual-time gauge sampling on an engine: once armed it
// fires every samplePeriod, invokes its sample functions at the current
// virtual time, and re-arms only while the engine still holds other
// pending events — so a run's natural drain (Engine.Run returning when the
// queue empties) is never kept alive by its own telemetry.
//
// Sampling is part of the simulated event stream, so an enabled sampler
// changes engine event counts — deterministically, identically at every
// -workers value. The disabled path never creates one.
type Sampler struct {
	eng   *sim.Engine
	fns   []func(t sim.Time)
	armed bool
}

// NewSampler builds a sampler on eng; nil on a nil registry.
func (r *Registry) NewSampler(eng *sim.Engine) *Sampler {
	if r == nil {
		return nil
	}
	return &Sampler{eng: eng}
}

// Add registers a sample function; a no-op on nil.
func (s *Sampler) Add(fn func(t sim.Time)) {
	if s != nil {
		s.fns = append(s.fns, fn)
	}
}

// Arm schedules the next sample one period from now. A no-op on nil or
// when already armed, so kernels can re-arm before every iteration without
// double-scheduling.
func (s *Sampler) Arm() {
	if s == nil || s.armed {
		return
	}
	s.armed = true
	s.eng.AfterHandler(samplePeriod, s, 0, 0, nil)
}

// OnEvent fires one sampling tick and conditionally re-arms.
func (s *Sampler) OnEvent(e *sim.Engine, _ sim.Handle, _ uint64, _ int, _ any) {
	s.armed = false
	now := e.Now()
	for _, fn := range s.fns {
		fn(now)
	}
	// Re-arm only while the model still has work: after this event was
	// popped, any remaining queue entry belongs to the model (or to mail
	// already accepted), so sampling continues exactly until the run's
	// natural end.
	if _, ok := e.PeekTime(); ok {
		s.Arm()
	}
}
