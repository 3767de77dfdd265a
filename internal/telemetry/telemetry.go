// Package telemetry is the live export plane over the performance
// counter system: a fixed-capacity time-series sampler that any counter
// source (a local registry, or a remote application reached over
// parcel) feeds, and an HTTP handler that serves the recent series as a
// Prometheus text exposition and as a JSON snapshot. The paper's
// counters answer one query at a time; this layer turns the same
// counters into something a dashboard can watch while the application
// runs, without the application adjusting its behaviour.
package telemetry

import (
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/core"
)

// Point is one observation of one counter.
type Point struct {
	// Time is when the sample was taken.
	Time time.Time `json:"t"`
	// Value is the scaled counter value.
	Value float64 `json:"v"`
	// Count is the counter's observation count (0 when the counter
	// does not carry one).
	Count int64 `json:"n,omitempty"`
}

// Series is a named sequence of points, oldest first.
type Series struct {
	Name   string  `json:"name"`
	Points []Point `json:"points"`
}

// ring is a fixed-capacity point buffer.
type ring struct {
	buf  []Point
	next int
	full bool
}

func (r *ring) push(p Point) {
	r.buf[r.next] = p
	r.next++
	if r.next == len(r.buf) {
		r.next = 0
		r.full = true
	}
}

// last returns the newest point without copying the ring.
func (r *ring) last() (Point, bool) {
	if r.next == 0 && !r.full {
		return Point{}, false
	}
	i := r.next - 1
	if i < 0 {
		i = len(r.buf) - 1
	}
	return r.buf[i], true
}

func (r *ring) points() []Point {
	if !r.full {
		return append([]Point(nil), r.buf[:r.next]...)
	}
	out := make([]Point, 0, len(r.buf))
	out = append(out, r.buf[r.next:]...)
	return append(out, r.buf[:r.next]...)
}

// DefaultCapacity is the per-series ring capacity when NewSampler is
// given a non-positive one: at a one-second sampling interval this
// keeps ~5 minutes of history per counter.
const DefaultCapacity = 300

// Sampler keeps the most recent points of every observed series. All
// methods are safe for concurrent use; a sampling loop feeds it while
// HTTP handlers snapshot it.
type Sampler struct {
	mu       sync.Mutex
	capacity int
	series   map[string]*ring
	order    []string // first-observation order, for stable output
	// rows is WritePrometheus's order, metric name then first
	// observation; a new series replaces the slice, never changes it.
	rows []promRow
}

// NewSampler creates a sampler keeping up to capacity points per
// series (DefaultCapacity when capacity <= 0).
func NewSampler(capacity int) *Sampler {
	if capacity <= 0 {
		capacity = DefaultCapacity
	}
	return &Sampler{capacity: capacity, series: make(map[string]*ring)}
}

// Observe appends one point to the named series, evicting the oldest
// point once the series is at capacity.
func (s *Sampler) Observe(name string, p Point) {
	s.mu.Lock()
	r := s.series[name]
	if r == nil {
		r = &ring{buf: make([]Point, s.capacity)}
		s.series[name] = r
		s.order = append(s.order, name)
		s.rows = insertRow(s.rows, promRow{toPromMetric(name), r})
	}
	r.push(p)
	s.mu.Unlock()
}

// ObserveValue folds one counter evaluation into the matching series.
// Invalid values are dropped: a counter that cannot answer right now
// (no data yet, target unreachable) leaves a gap instead of a zero.
func (s *Sampler) ObserveValue(v core.Value) {
	if !v.Valid() {
		return
	}
	t := v.Time
	if t.IsZero() {
		t = time.Now()
	}
	s.Observe(v.Name, Point{Time: t, Value: v.Float64(), Count: v.Count})
}

// Snapshot copies all series in first-observation order.
func (s *Sampler) Snapshot() []Series {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]Series, 0, len(s.order))
	for _, name := range s.order {
		out = append(out, Series{Name: name, Points: s.series[name].points()})
	}
	return out
}

// Latest returns the most recent point of each series, in
// first-observation order. ok is false for a series observed but
// currently empty (cannot happen through Observe, but kept total).
func (s *Sampler) Latest() []Series {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]Series, 0, len(s.order))
	for _, name := range s.order {
		p, ok := s.series[name].last()
		if !ok {
			continue
		}
		out = append(out, Series{Name: name, Points: []Point{p}})
	}
	return out
}

// ---------------------------------------------------------------------------
// Collector: periodic sampling of a counter source.

// Source yields one batch of counter values per tick. RegistrySource
// adapts a local registry's active set; perfmon adapts its parcel
// client the same way for remote targets.
type Source func() []core.Value

// RegistrySource samples a registry's active counter set. With reset,
// every sample evaluates-and-resets (per-interval deltas, the paper's
// per-sample measurement style). The closure reuses one value buffer
// across ticks, so steady-state sampling does not allocate; the
// returned slice is only valid until the next call.
func RegistrySource(reg *core.Registry, reset bool) Source {
	var buf []core.Value
	return func() []core.Value {
		buf = reg.EvaluateActiveInto(buf[:0], reset)
		return buf
	}
}

// MinInterval is the floor for the collector's steady-state sampling
// interval. Flight-recorder bursts may go below it (bounded by
// FlightRecorder.BurstInterval's own floor).
const MinInterval = time.Millisecond

// Collector drives a Source into a Sampler. The interval can be changed
// while running (SetInterval) — the budget controller's actuator — and
// an attached FlightRecorder both receives every sampled batch and
// overrides the interval to burst rate while a burst window is open.
type Collector struct {
	sampler *Sampler
	src     Source

	interval atomic.Int64 // current steady-state interval, ns
	flight   atomic.Pointer[FlightRecorder]

	// sampleMu serializes pulls from the source: SampleOnce is public
	// and may race the sampling loop, and sources reuse one value
	// buffer across calls.
	sampleMu sync.Mutex

	mu     sync.Mutex // serializes Start and Stop
	ticker atomic.Pointer[core.Ticker]
}

// NewCollector creates a collector sampling src into s every interval
// (minimum MinInterval; 1s when interval <= 0).
func NewCollector(s *Sampler, src Source, interval time.Duration) *Collector {
	if interval <= 0 {
		interval = time.Second
	}
	if interval < MinInterval {
		interval = MinInterval
	}
	c := &Collector{sampler: s, src: src}
	c.interval.Store(int64(interval))
	return c
}

// Interval returns the current steady-state sampling interval.
func (c *Collector) Interval() time.Duration {
	return time.Duration(c.interval.Load())
}

// SetInterval changes the sampling interval, effective immediately —
// a running loop re-arms its timer rather than sleeping out the old
// interval. Clamped to MinInterval.
func (c *Collector) SetInterval(d time.Duration) {
	if d < MinInterval {
		d = MinInterval
	}
	c.interval.Store(int64(d))
	c.kickLoop()
}

// EnableFlight attaches a flight recorder: every subsequent sample is
// recorded into its ring, and while the recorder is bursting the loop
// samples at burst rate. Pass nil to detach.
func (c *Collector) EnableFlight(fr *FlightRecorder) {
	c.flight.Store(fr)
	c.kickLoop()
}

// Flight returns the attached flight recorder, or nil.
func (c *Collector) Flight() *FlightRecorder { return c.flight.Load() }

// TriggerFlight arms the attached recorder's burst and immediately
// re-arms the sampling loop at burst rate (no waiting out the current
// steady-state sleep). Reports whether the burst is capturing; false
// with no recorder attached or while cooldown suppresses the trigger.
func (c *Collector) TriggerFlight(reason string) bool {
	fr := c.flight.Load()
	if fr == nil {
		return false
	}
	ok := fr.Trigger(reason)
	if ok {
		c.kickLoop()
	}
	return ok
}

// kickLoop re-arms a running sampling loop to the current effective
// interval.
func (c *Collector) kickLoop() {
	if t := c.ticker.Load(); t != nil {
		t.Reset(c.effectiveInterval())
	}
}

// effectiveInterval is what the loop actually sleeps: burst rate while
// the flight recorder is in a burst window, the steady-state interval
// otherwise.
func (c *Collector) effectiveInterval() time.Duration {
	d := time.Duration(c.interval.Load())
	if fr := c.flight.Load(); fr != nil && fr.Bursting() {
		return fr.BurstInterval(d)
	}
	return d
}

// SampleOnce pulls one batch from the source immediately, feeding the
// sampler and (when attached) the flight recorder.
func (c *Collector) SampleOnce() {
	c.sampleMu.Lock()
	vals := c.src()
	for _, v := range vals {
		c.sampler.ObserveValue(v)
	}
	if fr := c.flight.Load(); fr != nil {
		fr.Record(time.Now(), vals)
	}
	c.sampleMu.Unlock()
}

// Start begins periodic sampling (idempotent). The first batch is
// taken synchronously so the export plane is never empty after Start.
// After a Stop, Start resumes into the same sampler — series and their
// history are kept.
func (c *Collector) Start() {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.ticker.Load() != nil {
		return
	}
	c.SampleOnce()
	c.ticker.Store(core.Every(c.effectiveInterval(), func(time.Time) time.Duration {
		c.SampleOnce()
		return c.effectiveInterval()
	}))
}

// Stop ends periodic sampling (idempotent); it returns once a sample in
// flight has been taken.
func (c *Collector) Stop() {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.ticker.Swap(nil).Stop()
}
