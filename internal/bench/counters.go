package bench

import (
	"repro/internal/core"
	"repro/internal/sim"
)

// reading is what the paper takes from one run's performance counters.
type reading struct {
	taskNs, overheadNs       int64   // time/cumulative, time/cumulative-overhead
	avgTaskNs, avgOverheadNs float64 // time/average, time/average-overhead
	idleRate                 float64 // idle-rate as a fraction
	// bandwidth is the paper's off-core estimate in bytes/s: the summed
	// OFFCORE_REQUESTS times the cache-line size over /runtime/uptime.
	bandwidth float64
}

// readNames are the counters readCounters unpacks, in its order.
var readNames = []string{
	"/threads{locality#0/total}/time/cumulative",
	"/threads{locality#0/total}/time/cumulative-overhead",
	"/threads{locality#0/total}/time/average",
	"/threads{locality#0/total}/time/average-overhead",
	"/threads{locality#0/total}/idle-rate",
	"/runtime{locality#0/total}/uptime",
	"/papi{locality#0/total}/OFFCORE_REQUESTS@ALL_DATA_RD",
	"/papi{locality#0/total}/OFFCORE_REQUESTS@DEMAND_CODE_RD",
	"/papi{locality#0/total}/OFFCORE_REQUESTS@DEMAND_RFO",
}

// readCounters registers a run's counters in a fresh registry and reads
// them back by name, as the paper read every figure's values.
func readCounters(r sim.Result) (reading, error) {
	reg := core.NewRegistry()
	if err := r.RegisterCounters(reg, 0); err != nil {
		return reading{}, err
	}
	set, err := reg.BindSet(readNames)
	if err != nil {
		return reading{}, err
	}
	v := set.EvaluateBatch(nil, false)
	rd := reading{
		taskNs: v[0].Raw, overheadNs: v[1].Raw,
		avgTaskNs: v[2].Float64(), avgOverheadNs: v[3].Float64(),
		idleRate: v[4].Float64() / 10000,
	}
	if uptime := v[5].Raw; uptime > 0 {
		lines := v[6].Raw + v[7].Raw + v[8].Raw
		rd.bandwidth = float64(lines*r.LineBytes) / (float64(uptime) / 1e9)
	}
	return rd, nil
}
