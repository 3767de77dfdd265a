// Package hwsim substitutes for the PAPI hardware-counter access the
// paper reaches through HPX's /papi counters. Real off-core request
// counters are not available in this reproduction, so the package
// provides the same counter names backed by an Accumulator fed with
// modelled off-core traffic (the simulator's memory model or an
// instrumented application), split across the three request types the
// paper sums for its bandwidth estimate.
//
// The paper's bandwidth metric is reproduced by Bandwidth: the summed
// request counts times the cache-line size divided by elapsed time.
package hwsim

import (
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/machine"
)

// The offcore request events the paper queries through PAPI.
const (
	EventAllDataRead  = "ALL_DATA_RD"
	EventDemandCodeRd = "DEMAND_CODE_RD"
	EventDemandRFO    = "DEMAND_RFO"
)

// Events lists the three modelled request types in the paper's order.
var Events = []string{EventAllDataRead, EventDemandCodeRd, EventDemandRFO}

// trafficSplit is the modelled share of each request type in total
// off-core traffic: reads dominate, with a small code-read share and the
// store (read-for-ownership) remainder.
var trafficSplit = map[string]float64{
	EventAllDataRead:  0.70,
	EventDemandCodeRd: 0.05,
	EventDemandRFO:    0.25,
}

// Accumulator models the uncore request counters of one locality. The
// traffic source (simulator or instrumented code) calls AddTraffic; the
// counters report line-granular request counts per event type.
type Accumulator struct {
	machine  machine.Machine
	locality int64
	bytes    atomic.Int64
}

// NewAccumulator creates an accumulator for the given platform model.
func NewAccumulator(m machine.Machine, locality int64) *Accumulator {
	return &Accumulator{machine: m, locality: locality}
}

// AddTraffic records off-core traffic in bytes.
func (a *Accumulator) AddTraffic(bytes int64) { a.bytes.Add(bytes) }

// Bytes returns the accumulated traffic.
func (a *Accumulator) Bytes() int64 { return a.bytes.Load() }

// Reset clears the accumulated traffic.
func (a *Accumulator) Reset() { a.bytes.Store(0) }

// count returns the request count for one event type.
func (a *Accumulator) count(event string) int64 {
	share := trafficSplit[event]
	return int64(share * float64(a.bytes.Load()) / float64(a.machine.CacheLineBytes))
}

// RegisterCounters exposes the three events as
// /papi{locality#L/total}/OFFCORE_REQUESTS@<event>, the naming the paper
// uses for its bandwidth estimate.
func (a *Accumulator) RegisterCounters(reg *core.Registry) error {
	info := core.TypeInfo("papi", "OFFCORE_REQUESTS",
		"off-core requests of the @parameter event (ALL_DATA_RD, DEMAND_CODE_RD or DEMAND_RFO), modelled from the platform memory-traffic model",
		core.UnitEvents)
	for _, ev := range Events {
		name := core.LocalityName("papi", "OFFCORE_REQUESTS", a.locality, -1)
		name.Parameters = ev
		c := core.NewFuncCounter(name, info, 0,
			func() int64 { return a.count(ev) },
			func() { a.Reset() })
		if err := reg.Register(c); err != nil {
			return err
		}
	}
	return nil
}

// Bandwidth reproduces the paper's estimate: the summed request counts
// multiplied by the cache-line size, divided by the elapsed time.
func Bandwidth(counts []int64, lineBytes int64, elapsed time.Duration) float64 {
	var total int64
	for _, c := range counts {
		total += c
	}
	secs := elapsed.Seconds()
	if secs <= 0 {
		return 0
	}
	return float64(total*lineBytes) / secs
}

// BandwidthOf evaluates the three counters of a locality in reg and
// derives the bandwidth over the given interval.
func BandwidthOf(reg *core.Registry, locality int64, lineBytes int64, elapsed time.Duration) (float64, error) {
	counts := make([]int64, 0, len(Events))
	for _, ev := range Events {
		name := core.LocalityName("papi", "OFFCORE_REQUESTS", locality, -1)
		name.Parameters = ev
		v, err := reg.Evaluate(name.String(), false)
		if err != nil {
			return 0, err
		}
		counts = append(counts, v.Raw)
	}
	return Bandwidth(counts, lineBytes, elapsed), nil
}
