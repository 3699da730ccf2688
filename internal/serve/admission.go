package serve

import (
	"sync/atomic"

	"repro/internal/obs"
)

// admission is a bounded in-flight budget. It is deliberately
// memoryless — no queues, no token refill schedule — because the
// failure mode it exists to prevent is latency collapse under overload:
// a queue converts overload into unbounded latency; a hard budget
// converts it into fast, honest 503s that a client can back off from.
type admission struct {
	// max is the rejection threshold on the in-flight request
	// population.
	max int64

	inflight atomic.Int64

	// gauges/counters exporting the controller's behaviour.
	inflightG *obs.Gauge
	shed      *obs.Counter
}

// newAdmission sizes the controller. max <= 0 disables shedding
// entirely (an explicit operator choice, not a default).
func newAdmission(max int64, rec *obs.Recorder) *admission {
	return &admission{
		max:       max,
		inflightG: rec.Gauge("serve.inflight"),
		shed:      rec.Counter("serve.shed"),
	}
}

// acquire admits or sheds one request. An admitted caller gets a
// release func it must invoke exactly once when the request finishes;
// a shed one gets nil.
func (a *admission) acquire() func() {
	n := a.inflight.Add(1)
	a.inflightG.Set(n)
	if a.max > 0 && n > a.max {
		// Over the budget: undo the reservation and shed. The admitted
		// population stays bounded, so per-request memory and tail
		// latency stay bounded with it.
		a.inflight.Add(-1)
		a.shed.Inc()
		return nil
	}
	return func() {
		a.inflightG.Set(a.inflight.Add(-1))
	}
}
