package sim

import (
	"repro/internal/core"
)

// RegisterCounters exposes a completed run's metrics through the same
// counter framework and names the live runtime uses — the design's
// "one framework, two backends" property. Tools built on core.Registry
// (the perfcli printer, remote monitors, meta counters) consume
// simulated and real measurements identically, and the paper's figures
// are drawn from these counters alone.
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
		{"runtime", "uptime", "makespan (simulated)", core.UnitNanoseconds, r.MakespanNs},
	}
	for _, s := range specs {
		if err := reg.Register(core.NewLocalityFunc(s.object, s.counter, locality, s.help, s.unit,
			func() int64 { return s.value }, nil)); err != nil {
			return err
		}
	}
	// The averages and the idle-rate (in 0.01% units) carry the live
	// runtime's ratio convention.
	ratios := []struct {
		counter, help, unit string
		num, den            int64
	}{
		{"time/average", "average task duration (simulated)", core.UnitNanoseconds, r.TaskTimeNs, r.Tasks},
		{"time/average-overhead", "average per-task overhead (simulated)", core.UnitNanoseconds, r.OverheadNs, r.Tasks},
		{"idle-rate", "idle core time over wall time (simulated)", "0.01%", r.IdleNs * 10000, int64(r.Cores) * r.MakespanNs},
	}
	for _, s := range ratios {
		if err := reg.Register(core.NewRatioCounter(core.LocalityName("threads", s.counter, locality, -1),
			core.TypeInfo("threads", s.counter, s.help, s.unit),
			func() (int64, int64) { return s.num, s.den }, nil)); err != nil {
			return err
		}
	}
	// The PAPI substitute: off-core traffic in cache lines, split across
	// the three request types the paper sums for its bandwidth estimate —
	// reads dominate, with a small code-read share and the store
	// (read-for-ownership) rest. Data reads take the rounding remainder,
	// so the three counts sum to exactly OffcoreBytes / LineBytes.
	var lines int64
	if r.LineBytes > 0 {
		lines = r.OffcoreBytes / r.LineBytes
	}
	code, rfo := int64(0.05*float64(lines)), int64(0.25*float64(lines))
	papi := []struct {
		event string
		count int64
	}{
		{"ALL_DATA_RD", lines - code - rfo},
		{"DEMAND_CODE_RD", code},
		{"DEMAND_RFO", rfo},
	}
	info := core.TypeInfo("papi", "OFFCORE_REQUESTS",
		"off-core requests of the @parameter event (ALL_DATA_RD, DEMAND_CODE_RD or DEMAND_RFO), modelled from the platform memory-traffic model",
		core.UnitEvents)
	for _, p := range papi {
		name := core.LocalityName("papi", "OFFCORE_REQUESTS", locality, -1)
		name.Parameters = p.event
		if err := reg.Register(core.NewFuncCounter(name, info, 0, func() int64 { return p.count }, nil)); err != nil {
			return err
		}
	}
	return nil
}
