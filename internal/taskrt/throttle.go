package taskrt

import (
	"fmt"
	"time"

	"repro/internal/apex"
	"repro/internal/core"
)

// IdleThrottle builds the paper's motivating adaptation (§VII): every
// period it reads the runtime's total idle-rate (0.01% units) from reg,
// where the runtime's counters are registered, and decides through an
// apex.Band — above high the concurrency limit steps down (never below
// 1) at once, below low it steps back up (never past NumWorkers).
func (rt *Runtime) IdleThrottle(reg *core.Registry, period time.Duration, low, high float64) (apex.Policy, error) {
	idle, err := reg.Bind(core.LocalityName("threads", "idle-rate", rt.locality, -1).String())
	if err != nil {
		return apex.Policy{}, err
	}
	by := func(d int) func() string {
		return func() string {
			from := rt.ConcurrencyLimit()
			if to := from + d; to >= 1 && to <= rt.NumWorkers() {
				rt.SetConcurrencyLimit(to)
				return fmt.Sprintf("concurrency limit %d -> %d", from, to)
			}
			return ""
		}
	}
	band := &apex.Band{Low: low, High: high, Calm: 1, Period: period, Up: by(1), Down: by(-1)}
	return apex.Policy{Name: "idle-throttle", Period: period, Step: func(now time.Time) string {
		if v := idle.Evaluate(false); v.Valid() {
			return band.Step(now, v.Float64())
		}
		return ""
	}}, nil
}
