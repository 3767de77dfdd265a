package core

import (
	"fmt"
	"math"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"
)

// statisticsKinds lists the aggregation operations supported by the
// /statistics counter family.
var statisticsKinds = []string{
	"average", "rolling_average", "max", "rolling_max", "min", "rolling_min",
	"stddev", "rolling_stddev", "median", "rate",
}

// statScale is the fixed-point scaling used for fractional statistics.
const statScale = 1000

func registerStatistics(r *Registry) {
	for _, kind := range statisticsKinds {
		kind := kind
		info := Info{
			TypeName: "/statistics/" + kind,
			HelpText: "returns the " + strings.ReplaceAll(kind, "_", " ") +
				" of the values of its base counter, sampled at the given interval " +
				"(/statistics{<base-counter>}/" + kind + "@interval-ms[,window])",
			Unit:    UnitNone,
			Version: "1.0",
		}
		r.MustRegisterType(info, func(n Name, reg *Registry) (Counter, error) {
			return newStatisticsCounter(n, kind, reg)
		}, nil)
	}
	// Percentile: exact when the base counter is histogram-backed
	// (implements Quantiler), otherwise the percentile of periodic
	// samples like the other statistics kinds.
	r.MustRegisterType(Info{
		TypeName: "/statistics/percentile",
		HelpText: "returns the given percentile of its base counter's distribution " +
			"(/statistics{<base-counter>}/percentile@Q[,interval-ms[,window]]); " +
			"exact for histogram-backed bases, sampled otherwise",
		Unit:    UnitNone,
		Version: "1.0",
	}, func(n Name, reg *Registry) (Counter, error) {
		return newStatisticsCounter(n, "percentile", reg)
	}, nil)
}

// StatisticsCounter aggregates periodic samples of a base counter. It
// implements Startable: while active, an Every ticker samples the base
// counter at the configured interval. Sample may also be called
// directly, which the tests and the simulator (virtual time) use.
type StatisticsCounter struct {
	name     Name
	nameStr  string
	info     Info
	kind     string
	reg      *Registry // evaluates base with panic isolation
	base     Counter
	interval time.Duration
	window   int // rolling window size; 0 = unbounded

	mu      sync.Mutex
	samples []float64
	last    float64 // previous sample, for "rate"
	lastT   time.Time
	haveOne bool
	ticker  *Ticker

	// quantile is the requested percentile (0..100) for the
	// "percentile" kind; direct marks a histogram-backed base that
	// answers quantiles exactly, making periodic sampling unnecessary.
	quantile float64
	direct   Quantiler
}

func newStatisticsCounter(n Name, kind string, r *Registry) (*StatisticsCounter, error) {
	if n.BaseCounter == "" {
		return nil, fmt.Errorf("core: statistics counter %q needs a base counter in braces", n)
	}
	base, err := r.Get(n.BaseCounter)
	if err != nil {
		return nil, fmt.Errorf("core: statistics counter %q: base: %w", n, err)
	}
	interval := time.Second
	window := 10
	quantile := 0.0
	params := []string(nil)
	if n.Parameters != "" {
		params = strings.Split(n.Parameters, ",")
	}
	if kind == "percentile" {
		// First parameter is the percentile (50, 95, 99, 99.9, ...);
		// interval and window follow for sampled (non-histogram) bases.
		if len(params) == 0 {
			return nil, fmt.Errorf("core: statistics counter %q needs a percentile parameter", n)
		}
		q, err := strconv.ParseFloat(strings.TrimSpace(params[0]), 64)
		if err != nil || q <= 0 || q > 100 {
			return nil, fmt.Errorf("core: statistics counter %q: bad percentile %q", n, params[0])
		}
		quantile = q
		params = params[1:]
	}
	if len(params) > 0 {
		ms, err := strconv.Atoi(strings.TrimSpace(params[0]))
		if err != nil || ms <= 0 {
			return nil, fmt.Errorf("core: statistics counter %q: bad interval %q", n, params[0])
		}
		interval = time.Duration(ms) * time.Millisecond
		if len(params) > 1 {
			w, err := strconv.Atoi(strings.TrimSpace(params[1]))
			if err != nil || w <= 0 {
				return nil, fmt.Errorf("core: statistics counter %q: bad window %q", n, params[1])
			}
			window = w
		}
	}
	if !strings.HasPrefix(kind, "rolling_") {
		window = 0
	}
	c := &StatisticsCounter{
		name:     n,
		nameStr:  n.String(),
		info:     Info{TypeName: n.TypeName(), HelpText: "statistics/" + kind + " of " + n.BaseCounter, Unit: base.Info().Unit},
		kind:     kind,
		reg:      r,
		base:     base,
		interval: interval,
		window:   window,
		quantile: quantile,
	}
	if kind == "percentile" {
		if qb, ok := base.(Quantiler); ok {
			c.direct = qb
		}
	}
	return c, nil
}

// Name implements Counter.
func (c *StatisticsCounter) Name() Name { return c.name }

// Info implements Counter.
func (c *StatisticsCounter) Info() Info { return c.info }

// Sample reads the base counter once and folds the observation into the
// aggregation state. A no-op for histogram-backed percentile counters,
// which answer from the base's own distribution. A base whose Value
// panics yields no sample and counts in the registry's EvalErrors.
func (c *StatisticsCounter) Sample() {
	if c.direct != nil {
		return
	}
	v := c.reg.safeValue(c.base, false)
	if !v.Valid() {
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	f := v.Float64()
	if c.kind == "rate" {
		if c.haveOne {
			dt := v.Time.Sub(c.lastT).Seconds()
			if dt > 0 {
				c.samples = append(c.samples, (f-c.last)/dt)
			}
		}
		c.last, c.lastT, c.haveOne = f, v.Time, true
	} else {
		c.samples = append(c.samples, f)
	}
	if c.window > 0 && len(c.samples) > c.window {
		c.samples = c.samples[len(c.samples)-c.window:]
	}
}

// Start implements Startable: begins periodic sampling. Histogram-
// backed percentile counters need no sampler and start nothing.
func (c *StatisticsCounter) Start() {
	if c.direct != nil {
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.ticker == nil {
		c.ticker = Every(c.interval, func(time.Time) time.Duration {
			c.Sample()
			return c.interval
		})
	}
}

// Stop implements Startable: ends periodic sampling, returning once a
// sample in flight has been folded in.
func (c *StatisticsCounter) Stop() {
	c.mu.Lock()
	t := c.ticker
	c.ticker = nil
	c.mu.Unlock()
	t.Stop()
}

// Value implements Counter. Raw carries the statistic in fixed-point
// (scaling statScale); Count carries the number of samples aggregated.
func (c *StatisticsCounter) Value(reset bool) Value {
	if c.direct != nil {
		// Exact quantile straight from the base histogram; reset is
		// deliberately not forwarded (the base distribution is shared
		// with the base counter and any sibling percentiles).
		v, ok := c.direct.Quantile(c.quantile / 100)
		status := StatusValid
		if !ok {
			status = StatusInvalidData
		}
		return Value{Name: c.nameStr, Raw: v, Time: now(), Status: status}
	}
	c.mu.Lock()
	samples := append([]float64(nil), c.samples...)
	if reset {
		c.samples = c.samples[:0]
	}
	c.mu.Unlock()

	status := StatusValid
	var stat float64
	if len(samples) == 0 {
		status = StatusInvalidData
	} else {
		switch c.kind {
		case "average", "rolling_average", "rate":
			stat = mean(samples)
		case "max", "rolling_max":
			stat = samples[0]
			for _, s := range samples[1:] {
				stat = math.Max(stat, s)
			}
		case "min", "rolling_min":
			stat = samples[0]
			for _, s := range samples[1:] {
				stat = math.Min(stat, s)
			}
		case "stddev", "rolling_stddev":
			stat = stddev(samples)
		case "median":
			stat = median(samples)
		case "percentile":
			stat = percentileOf(samples, c.quantile)
		}
	}
	return Value{
		Name:    c.nameStr,
		Raw:     int64(math.Round(stat * statScale)),
		Scaling: statScale,
		Count:   int64(len(samples)),
		Time:    now(),
		Status:  status,
	}
}

// Reset implements Counter.
func (c *StatisticsCounter) Reset() {
	c.mu.Lock()
	c.samples = c.samples[:0]
	c.haveOne = false
	c.mu.Unlock()
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var s float64
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

func stddev(xs []float64) float64 {
	if len(xs) < 2 {
		return 0
	}
	m := mean(xs)
	var ss float64
	for _, x := range xs {
		d := x - m
		ss += d * d
	}
	return math.Sqrt(ss / float64(len(xs)))
}

func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// percentileOf is the nearest-rank percentile (q in 0..100) of xs.
func percentileOf(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	rank := int(q/100*float64(len(s)) + 0.5)
	if rank < 1 {
		rank = 1
	}
	if rank > len(s) {
		rank = len(s)
	}
	return s[rank-1]
}
