package parcel

// A per-endpoint circuit breaker: after BreakerThreshold consecutive
// transport failures the client stops touching the network and
// fast-fails with ErrCircuitOpen, until BreakerCooldown elapses and one
// probe request is let through (half-open). A successful probe closes
// the breaker; a failed one re-opens it; one that never reports back
// forfeits to the next call a cooldown later. Server-reported errors
// never count — only the transport's health is judged.

import (
	"errors"
	"sync"
	"time"

	"repro/internal/core"
)

// ErrCircuitOpen is returned without touching the network while the
// endpoint's circuit breaker is open.
var ErrCircuitOpen = errors.New("parcel: circuit breaker open")

// BreakerState is the circuit breaker's position, exposed through the
// /parcels{locality#L/total}/breaker/state gauge.
type BreakerState int32

const (
	// BreakerClosed: traffic flows normally.
	BreakerClosed BreakerState = iota
	// BreakerOpen: every call fast-fails until the cooldown elapses.
	BreakerOpen
	// BreakerHalfOpen: one probe is in flight; its outcome decides.
	BreakerHalfOpen
)

// String returns the state name.
func (s BreakerState) String() string {
	switch s {
	case BreakerClosed:
		return "closed"
	case BreakerOpen:
		return "open"
	case BreakerHalfOpen:
		return "half-open"
	default:
		return "invalid"
	}
}

type breaker struct {
	mu        sync.Mutex
	st        BreakerState
	failures  int // consecutive transport failures while closed
	threshold int // <=0 disables the breaker
	cooldown  time.Duration
	openedAt  time.Time
	gauge     *core.RawCounter // nil when the client registered no counters
}

func newBreaker(threshold int, cooldown time.Duration, gauge *core.RawCounter) *breaker {
	return &breaker{threshold: threshold, cooldown: cooldown, gauge: gauge}
}

// allow reports whether a request may touch the network now. While
// open it flips to half-open once the cooldown has elapsed, admitting
// exactly one probe; concurrent calls keep fast-failing until the probe
// reports back — or, its caller having given up without an outcome to
// record, another cooldown has passed and the next call probes instead.
func (b *breaker) allow() bool {
	if b.threshold <= 0 {
		return true
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	switch b.st {
	case BreakerClosed:
		return true
	default: // open, or half-open since openedAt with the probe still out
		if time.Since(b.openedAt) >= b.cooldown {
			b.openedAt = time.Now()
			b.setLocked(BreakerHalfOpen)
			return true
		}
		return false
	}
}

// record feeds one attempt's transport outcome into the breaker.
func (b *breaker) record(ok bool) {
	if b.threshold <= 0 {
		return
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	if ok {
		b.failures = 0
		if b.st != BreakerClosed {
			b.setLocked(BreakerClosed)
		}
		return
	}
	switch b.st {
	case BreakerHalfOpen:
		// The probe failed: back to fully open, restart the cooldown.
		b.openedAt = time.Now()
		b.setLocked(BreakerOpen)
	case BreakerClosed:
		b.failures++
		if b.failures >= b.threshold {
			b.openedAt = time.Now()
			b.setLocked(BreakerOpen)
		}
	}
}

func (b *breaker) setLocked(s BreakerState) {
	b.st = s
	if b.gauge != nil {
		b.gauge.Set(int64(s))
	}
}

func (b *breaker) state() BreakerState {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.st
}
