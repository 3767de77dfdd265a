package sim

import (
	"repro/internal/core"
)

// RegisterCounters exposes a completed run's metrics through the same
// counter framework and names the live runtime uses — the design's
// "one framework, two backends" property. Tools built on core.Registry
// (the perfcli printer, remote monitors, meta counters) consume
// simulated and real measurements identically.
//
// The locality id distinguishes multiple registered results in one
// registry (e.g. one locality per core count of a sweep).
func (r Result) RegisterCounters(reg *core.Registry, locality int64) error {
	specs := []struct {
		object, counter, help, unit string
		value                       int64
	}{
		{"threads", "count/cumulative", "tasks executed (simulated)", core.UnitEvents, r.Tasks},
		{"threads", "time/cumulative", "cumulative task time (simulated)", core.UnitNanoseconds, r.TaskTimeNs},
		{"threads", "time/cumulative-overhead", "cumulative scheduling overhead (simulated)", core.UnitNanoseconds, r.OverheadNs},
		{"threads", "time/idle", "cumulative idle core time (simulated)", core.UnitNanoseconds, r.IdleNs},
		{"threads", "count/peak-live", "peak live tasks/threads (simulated)", core.UnitEvents, r.PeakLive},
		{"threads", "idle-rate", "idle core time over wall time (simulated)", "0.01%", int64(r.IdleRate() * 10000)},
		{"runtime", "uptime", "makespan (simulated)", core.UnitNanoseconds, r.MakespanNs},
	}
	for _, s := range specs {
		if err := reg.Register(core.NewLocalityFunc(s.object, s.counter, locality, s.help, s.unit,
			func() int64 { return s.value }, nil)); err != nil {
			return err
		}
	}
	// The averages carry the live runtime's ratio convention.
	ratios := []struct {
		counter, help string
		num           int64
	}{
		{"time/average", "average task duration (simulated)", r.TaskTimeNs},
		{"time/average-overhead", "average per-task overhead (simulated)", r.OverheadNs},
	}
	for _, s := range ratios {
		if err := reg.Register(core.NewRatioCounter(core.LocalityName("threads", s.counter, locality, -1),
			core.TypeInfo("threads", s.counter, s.help, core.UnitNanoseconds),
			func() (int64, int64) { return s.num, r.Tasks }, nil)); err != nil {
			return err
		}
	}
	return nil
}
