// Package apex is a miniature of the APEX introspection and adaptivity
// library the paper points to in its outlook (§VII): the one
// measure→decide→act loop. An Engine runs each Policy on core.Every
// behind one recover barrier and keeps a bounded log of what they did;
// Band is the one hysteresis. The policies live next to what they
// actuate: taskrt.Runtime.IdleThrottle, taskrt.Runtime.Watchdog and
// telemetry.BudgetController.Tick.
package apex

import (
	"fmt"
	"sync"
	"time"

	"repro/internal/core"
)

// Policy is one measure→decide→act loop.
type Policy struct {
	Name   string        // identifies the policy in the event log
	Period time.Duration // between steps; core.Every raises one below its floor (0 too) to it
	// Step measures, decides and acts once at now. It returns what it
	// did, or "" when it held.
	Step func(now time.Time) string
}

// Event records one step that acted, or panicked.
type Event struct {
	Policy   string
	Action   string    // what the step returned; for a panic, its value
	Time     time.Time // the time the step was given
	Panicked bool      // the engine contained a panic; the policy keeps running
}

// maxEvents bounds the event log: the engine keeps the latest ones.
const maxEvents = 256

// Engine runs policies. Add policies, then Start; Poll steps them
// synchronously instead, for deterministic tests and batch tools.
type Engine struct {
	mu       sync.Mutex
	policies []Policy
	tickers  []*core.Ticker // one per policy; nil while stopped
	events   []Event
}

// NewEngine creates an empty, stopped engine.
func NewEngine() *Engine { return &Engine{} }

// Add registers a policy; on a started engine it starts running at
// once.
func (e *Engine) Add(p Policy) error {
	if p.Step == nil {
		return fmt.Errorf("apex: policy %q has no Step", p.Name)
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	e.policies = append(e.policies, p)
	if e.tickers != nil {
		e.tickers = append(e.tickers, e.every(p))
	}
	return nil
}

// every schedules p on its own ticker.
func (e *Engine) every(p Policy) *core.Ticker {
	return core.Every(p.Period, func(now time.Time) time.Duration {
		e.step(p, now)
		return p.Period
	})
}

// Start runs every policy on its period (idempotent).
func (e *Engine) Start() {
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.tickers != nil {
		return
	}
	e.tickers = make([]*core.Ticker, 0, len(e.policies))
	for _, p := range e.policies {
		e.tickers = append(e.tickers, e.every(p))
	}
}

// Stop halts every policy and returns once no step is in flight
// (idempotent).
func (e *Engine) Stop() {
	e.mu.Lock()
	tickers := e.tickers
	e.tickers = nil
	e.mu.Unlock()
	for _, t := range tickers {
		t.Stop()
	}
}

// Poll steps every policy once at now, synchronously. It is for an
// engine that is not started: a policy's steps must not overlap.
func (e *Engine) Poll(now time.Time) {
	e.mu.Lock()
	policies := append([]Policy(nil), e.policies...)
	e.mu.Unlock()
	for _, p := range policies {
		e.step(p, now)
	}
}

// Events returns a copy of the log, oldest first: the latest steps that
// acted or panicked.
func (e *Engine) Events() []Event {
	e.mu.Lock()
	defer e.mu.Unlock()
	return append([]Event(nil), e.events...)
}

// step runs p once under the recover barrier — a broken policy must not
// take down the application it is tuning — and logs it unless it held.
func (e *Engine) step(p Policy, now time.Time) {
	ev := Event{Policy: p.Name, Time: now}
	func() {
		defer func() {
			if r := recover(); r != nil {
				ev.Action, ev.Panicked = fmt.Sprint(r), true
			}
		}()
		ev.Action = p.Step(now)
	}()
	if ev.Action == "" && !ev.Panicked {
		return
	}
	e.mu.Lock()
	e.events = append(e.events, ev)
	if len(e.events) > maxEvents {
		e.events = e.events[len(e.events)-maxEvents:]
	}
	e.mu.Unlock()
}

// maxCalm caps the flap doubling of Band.Calm.
const maxCalm = 32

// Band is the one hysteresis: it turns a stream of values into Up and
// Down steps.
//
//   - A value above High takes one Down step at once.
//   - Calm consecutive values below Low take one Up step.
//   - A value in the dead band between them holds and resets the calm
//     count.
//   - A Down within two Periods of an Up means the Up was premature: it
//     doubles Calm while Calm is below 32.
//
// A Band is not safe for concurrent use; a policy's steps never overlap.
type Band struct {
	Low, High float64
	Calm      int           // at least 1
	Period    time.Duration // time between values: the flap window's unit
	// Up and Down take one step and return what they did, or "" when
	// there is no step left to take.
	Up, Down func() string

	under  int // consecutive values below Low
	lastUp time.Time
}

// Step feeds the value observed at now and returns what the step did,
// or "" when the band held or the step was saturated.
func (b *Band) Step(now time.Time, v float64) string {
	switch {
	case v > b.High:
		if now.Sub(b.lastUp) <= 2*b.Period && b.Calm < maxCalm {
			b.Calm *= 2
		}
		b.under = 0
		return b.Down()
	case v < b.Low:
		if b.under++; b.under >= b.Calm {
			b.under, b.lastUp = 0, now
			return b.Up()
		}
		return ""
	}
	b.under = 0
	return ""
}
