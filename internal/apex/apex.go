// Package apex is a miniature of the APEX introspection and adaptivity
// library the paper points to in its outlook (§VII): a policy engine
// that periodically samples performance counters through the uniform
// counter framework and executes user-defined actions when rule
// conditions hold — closing the loop from measurement to runtime
// adaptation.
//
// The shipped IdleThrottlePolicy demonstrates the paper's motivating use
// case: watch /threads{...}/idle-rate and throttle the task runtime's
// active worker count when cores mostly idle, releasing them again when
// the runtime saturates.
package apex

import (
	"fmt"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/taskrt"
)

// Policy is one measure→decide→act rule.
type Policy struct {
	// Name identifies the policy in the event log.
	Name string
	// Counter is the full name of the counter to sample.
	Counter string
	// Period is the sampling interval.
	Period time.Duration
	// Rule inspects the sampled value and decides whether to act.
	Rule func(v core.Value) bool
	// Action executes when Rule returns true.
	Action func(v core.Value)
}

// Event records one policy firing.
type Event struct {
	// Policy names the rule that fired.
	Policy string
	// Value is the counter sample that triggered it.
	Value core.Value
	// Time is when the action ran.
	Time time.Time
	// Panicked marks an event where the rule or action panicked; the
	// engine contained it and the policy keeps running.
	Panicked bool
}

// Engine samples counters and drives policies. Create with NewEngine,
// register policies, then Start.
type Engine struct {
	reg *core.Registry

	mu       sync.Mutex
	policies []*Policy
	events   []Event
	tickers  []*core.Ticker // one per policy; nil while stopped
}

// NewEngine creates an engine over a counter registry.
func NewEngine(reg *core.Registry) *Engine {
	return &Engine{reg: reg}
}

// AddPolicy validates and registers a policy. Policies added after
// Start are picked up only by the next Start.
func (e *Engine) AddPolicy(p *Policy) error {
	if p.Counter == "" || p.Rule == nil || p.Action == nil || p.Period <= 0 {
		return fmt.Errorf("apex: policy %q incomplete", p.Name)
	}
	if _, err := e.reg.Get(p.Counter); err != nil {
		return fmt.Errorf("apex: policy %q: %w", p.Name, err)
	}
	e.mu.Lock()
	e.policies = append(e.policies, p)
	e.mu.Unlock()
	return nil
}

// Start launches one sampling loop per policy.
func (e *Engine) Start() {
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.tickers != nil {
		return
	}
	e.tickers = make([]*core.Ticker, 0, len(e.policies))
	for _, p := range e.policies {
		p := p
		e.tickers = append(e.tickers, core.Every(p.Period, func(time.Time) time.Duration {
			e.tick(p)
			return p.Period
		}))
	}
}

// Stop halts all sampling loops and waits for them.
func (e *Engine) Stop() {
	e.mu.Lock()
	tickers := e.tickers
	e.tickers = nil
	e.mu.Unlock()
	for _, t := range tickers {
		t.Stop()
	}
}

// Events returns a copy of the action log.
func (e *Engine) Events() []Event {
	e.mu.Lock()
	defer e.mu.Unlock()
	return append([]Event(nil), e.events...)
}

// tick samples the policy's counter once and applies the rule; exported
// through Poll for deterministic tests. A panicking rule or action is
// contained: the policy keeps running on later ticks and the panic is
// recorded as a failure event — a broken policy must not take down the
// application it is tuning.
func (e *Engine) tick(p *Policy) {
	c, err := e.reg.Get(p.Counter)
	if err != nil {
		return
	}
	v := c.Value(false)
	if !v.Valid() {
		return
	}
	fired, panicked := e.apply(p, v)
	if !fired && !panicked {
		return
	}
	ev := Event{Policy: p.Name, Value: v, Time: time.Now(), Panicked: panicked}
	e.mu.Lock()
	e.events = append(e.events, ev)
	e.mu.Unlock()
}

// apply runs rule+action under a recover barrier.
func (e *Engine) apply(p *Policy, v core.Value) (fired, panicked bool) {
	defer func() {
		if recover() != nil {
			panicked = true
		}
	}()
	if !p.Rule(v) {
		return false, false
	}
	p.Action(v)
	return true, false
}

// Poll runs every registered policy once, synchronously — the
// deterministic path tests and batch tools use instead of Start's
// timers.
func (e *Engine) Poll() {
	e.mu.Lock()
	policies := append([]*Policy(nil), e.policies...)
	e.mu.Unlock()
	for _, p := range policies {
		e.tick(p)
	}
}

// ThresholdPolicy builds the common rule shape: fire action when the
// counter's value crosses the threshold in the given direction.
func ThresholdPolicy(name, counter string, period time.Duration, threshold float64, above bool, action func(core.Value)) *Policy {
	return &Policy{
		Name:    name,
		Counter: counter,
		Period:  period,
		Rule: func(v core.Value) bool {
			if above {
				return v.Float64() > threshold
			}
			return v.Float64() < threshold
		},
		Action: action,
	}
}

// IdleThrottlePolicy builds the paper's motivating adaptation: sample
// the runtime's total idle-rate (in 0.01% units) every period; when it
// exceeds highIdle the concurrency limit steps down (never below 1),
// and when it falls below lowIdle the limit steps back up.
func IdleThrottlePolicy(rt *taskrt.Runtime, period time.Duration, lowIdle, highIdle float64) *Policy {
	counter := core.Name{Object: "threads", Counter: "idle-rate"}.
		WithInstances(core.LocalityInstance(rt.Locality(), "total", -1)...).String()
	return &Policy{
		Name:    "idle-throttle",
		Counter: counter,
		Period:  period,
		Rule: func(v core.Value) bool {
			r := v.Float64()
			return r > highIdle || r < lowIdle
		},
		Action: func(v core.Value) {
			limit := rt.ConcurrencyLimit()
			if v.Float64() > highIdle && limit > 1 {
				rt.SetConcurrencyLimit(limit - 1)
			} else if v.Float64() < lowIdle && limit < rt.NumWorkers() {
				rt.SetConcurrencyLimit(limit + 1)
			}
		},
	}
}
