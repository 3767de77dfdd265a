package core

import (
	"sync"
	"sync/atomic"
	"time"
)

// Counter is the uniform interface every performance counter exposes.
// Consumers never need to know what a counter measures: the command-line
// printer, the policy engine and the remote monitor all operate on this
// interface alone.
type Counter interface {
	// Name returns the full instance name of the counter.
	Name() Name
	// Info returns the counter-type metadata.
	Info() Info
	// Value evaluates the counter. If reset is true the counter's state
	// is atomically reset as part of the same evaluation (the HPX
	// "evaluate and reset" idiom the paper uses between samples).
	Value(reset bool) Value
	// Reset clears the counter's state without reading it.
	Reset()
}

// Startable is implemented by counters that need background activity
// (e.g. periodic sampling for rolling statistics). The registry starts a
// counter when it is added to the active set and stops it when removed.
type Startable interface {
	Start()
	Stop()
}

// now is replaceable for tests.
var now = time.Now

// ---------------------------------------------------------------------------
// Naming and value conventions shared by every counter provider.

// LocalityName returns the conventional instance name
// /object{locality#loc/total}/counter, or
// /object{locality#loc/worker-thread#worker}/counter when worker >= 0.
func LocalityName(object, counter string, loc, worker int64) Name {
	inst := LocalityInstance(loc, "total", -1)
	if worker >= 0 {
		inst = LocalityInstance(loc, "worker-thread", worker)
	}
	return Name{Object: object, Counter: counter}.WithInstances(inst...)
}

// TypeInfo returns the metadata of the counter type /object/counter.
// Every instance of one type carries the same Info.
func TypeInfo(object, counter, help, unit string) Info {
	return Info{TypeName: "/" + object + "/" + counter, HelpText: help, Unit: unit, Version: "1.0"}
}

// ratioValue is the HPX average convention: the sum in Raw, the count
// in Count and in Scaling (1 when empty, so Float64 reads 0).
func ratioValue(nameStr string, num, den int64) Value {
	scaling := den
	if scaling == 0 {
		scaling = 1
	}
	return Value{Name: nameStr, Raw: num, Scaling: scaling, Count: den, Time: now(), Status: StatusValid}
}

// ---------------------------------------------------------------------------
// Raw counter: a monotonically adjustable integer event count.

// RawCounter is a thread-safe integer counter. The zero value is unusable;
// use NewRawCounter.
type RawCounter struct {
	name Name
	// nameStr caches name.String() so Value is allocation-free: the
	// canonical name is rendered once at construction, not per sample.
	nameStr string
	info    Info
	value   atomic.Int64
}

// NewRawCounter creates a raw counter with the given full name and info.
func NewRawCounter(name Name, info Info) *RawCounter {
	return &RawCounter{name: name, nameStr: name.String(), info: info}
}

// NewLocalityRaw builds a raw counter under the conventional
// /object{locality#loc/total}/counter instance name — the shape every
// self-observation plane (parcels, agas, the remote-spawn plane) uses
// for its per-locality event counters.
func NewLocalityRaw(object, counter string, loc int64, help, unit string) *RawCounter {
	return NewRawCounter(LocalityName(object, counter, loc, -1), TypeInfo(object, counter, help, unit))
}

// Add increments the counter by delta (may be negative).
func (c *RawCounter) Add(delta int64) { c.value.Add(delta) }

// Inc increments the counter by one.
func (c *RawCounter) Inc() { c.value.Add(1) }

// Set stores an absolute value.
func (c *RawCounter) Set(v int64) { c.value.Store(v) }

// Load returns the current value without producing a Value record.
func (c *RawCounter) Load() int64 { return c.value.Load() }

// Name implements Counter.
func (c *RawCounter) Name() Name { return c.name }

// Info implements Counter.
func (c *RawCounter) Info() Info { return c.info }

// Value implements Counter.
func (c *RawCounter) Value(reset bool) Value {
	var raw int64
	if reset {
		raw = c.value.Swap(0)
	} else {
		raw = c.value.Load()
	}
	return Value{Name: c.nameStr, Raw: raw, Time: now(), Status: StatusValid}
}

// Reset implements Counter.
func (c *RawCounter) Reset() { c.value.Store(0) }

// ---------------------------------------------------------------------------
// Func counter: wraps an arbitrary sampling function.

// FuncCounter adapts a plain function into a Counter. The function is
// invoked on every evaluation; an optional reset function supports the
// evaluate-and-reset idiom.
type FuncCounter struct {
	name    Name
	nameStr string
	info    Info
	scaling int64
	sample  func() int64
	reset   func()
}

// NewFuncCounter creates a counter backed by sample. reset may be nil if
// the underlying quantity cannot be reset (Reset is then a no-op).
// scaling, if > 1, is attached to every produced Value.
func NewFuncCounter(name Name, info Info, scaling int64, sample func() int64, reset func()) *FuncCounter {
	return &FuncCounter{name: name, nameStr: name.String(), info: info, scaling: scaling, sample: sample, reset: reset}
}

// NewLocalityFunc is the sampled-value twin of NewLocalityRaw: a
// FuncCounter under /object{locality#loc/total}/counter.
func NewLocalityFunc(object, counter string, loc int64, help, unit string, sample func() int64, reset func()) *FuncCounter {
	return NewFuncCounter(LocalityName(object, counter, loc, -1), TypeInfo(object, counter, help, unit), 0, sample, reset)
}

// Name implements Counter.
func (c *FuncCounter) Name() Name { return c.name }

// Info implements Counter.
func (c *FuncCounter) Info() Info { return c.info }

// Value implements Counter.
func (c *FuncCounter) Value(reset bool) Value {
	raw := c.sample()
	if reset && c.reset != nil {
		c.reset()
	}
	return Value{Name: c.nameStr, Raw: raw, Scaling: c.scaling, Time: now(), Status: StatusValid}
}

// Reset implements Counter.
func (c *FuncCounter) Reset() {
	if c.reset != nil {
		c.reset()
	}
}

// ---------------------------------------------------------------------------
// Ratio counter: an average read as a (sum, count) pair.

// RatioCounter reports num/den in the HPX average convention (see
// /threads/time/average): read returns the sum and the count, which
// the Value carries in Raw and in Scaling and Count.
type RatioCounter struct {
	name    Name
	nameStr string
	info    Info
	read    func() (num, den int64)
	reset   func()
}

// NewRatioCounter creates a ratio counter. read must produce num and
// den in one pass over its sources, so the pair is consistent; reset
// may be nil when the quantity cannot be reset.
func NewRatioCounter(name Name, info Info, read func() (num, den int64), reset func()) *RatioCounter {
	return &RatioCounter{name: name, nameStr: name.String(), info: info, read: read, reset: reset}
}

// Name implements Counter.
func (c *RatioCounter) Name() Name { return c.name }

// Info implements Counter.
func (c *RatioCounter) Info() Info { return c.info }

// Value implements Counter.
func (c *RatioCounter) Value(reset bool) Value {
	num, den := c.read()
	if reset {
		c.Reset()
	}
	return ratioValue(c.nameStr, num, den)
}

// Reset implements Counter.
func (c *RatioCounter) Reset() {
	if c.reset != nil {
		c.reset()
	}
}

// histRatioCounter is a RatioCounter whose distribution is also
// available as a histogram.
type histRatioCounter struct {
	*RatioCounter
	snapshot func() HistogramSnapshot
}

// Quantile implements Quantiler.
func (c *histRatioCounter) Quantile(q float64) (int64, bool) {
	return c.snapshot().Quantile(q)
}

// NewHistRatioCounter creates a ratio counter backed by the distribution
// snapshot returns, so /statistics{...}/percentile@Q answers exactly
// instead of from periodic samples. The returned Counter implements
// Quantiler.
func NewHistRatioCounter(name Name, info Info, read func() (num, den int64), reset func(),
	snapshot func() HistogramSnapshot) Counter {
	return &histRatioCounter{NewRatioCounter(name, info, read, reset), snapshot}
}

// ---------------------------------------------------------------------------
// Elapsed-time counter.

// ElapsedTimeCounter reports nanoseconds since creation or since the last
// reset — HPX's /runtime/uptime.
type ElapsedTimeCounter struct {
	name    Name
	nameStr string
	info    Info
	mu      sync.Mutex
	start   time.Time
}

// NewElapsedTimeCounter creates an elapsed-time counter starting now.
func NewElapsedTimeCounter(name Name, info Info) *ElapsedTimeCounter {
	return &ElapsedTimeCounter{name: name, nameStr: name.String(), info: info, start: now()}
}

// Name implements Counter.
func (c *ElapsedTimeCounter) Name() Name { return c.name }

// Info implements Counter.
func (c *ElapsedTimeCounter) Info() Info { return c.info }

// Value implements Counter.
func (c *ElapsedTimeCounter) Value(reset bool) Value {
	t := now()
	c.mu.Lock()
	elapsed := t.Sub(c.start).Nanoseconds()
	if reset {
		c.start = t
	}
	c.mu.Unlock()
	return Value{Name: c.nameStr, Raw: elapsed, Time: t, Status: StatusValid}
}

// Reset implements Counter.
func (c *ElapsedTimeCounter) Reset() {
	c.mu.Lock()
	c.start = now()
	c.mu.Unlock()
}
