package core

import (
	"sync"
	"sync/atomic"
	"time"
)

// minEvery is the shortest period Every runs at. A duration below it —
// zero and negative ones included — whether passed to Every, returned
// by fn or given to Reset, is raised to it, so a degenerate period can
// neither panic nor spin. It is the flight recorder's burst floor, the
// shortest period any caller asks for.
const minEvery = 50 * time.Microsecond

// Ticker is a periodic loop started by Every.
type Ticker struct {
	next atomic.Int64 // duration of the latest Reset, ns
	kick chan struct{}
	stop chan struct{}
	done chan struct{}
	once sync.Once
}

// Every runs fn on a goroutine of its own, first d from now and then,
// after each run, once more after the duration that run returned. fn
// receives the time its timer fired. Each ticker has its own
// goroutine, so a slow fn delays only its own ticker. fn must not call
// Stop on its own ticker.
func Every(d time.Duration, fn func(now time.Time) time.Duration) *Ticker {
	t := &Ticker{kick: make(chan struct{}, 1), stop: make(chan struct{}), done: make(chan struct{})}
	go t.run(d, fn)
	return t
}

func (t *Ticker) run(d time.Duration, fn func(time.Time) time.Duration) {
	defer close(t.done)
	timer := time.NewTimer(max(d, minEvery))
	defer timer.Stop()
	for {
		select {
		case <-t.stop:
			return
		case <-t.kick:
			if !timer.Stop() {
				// Drain so the Reset below starts clean (pre-1.23
				// timer channel semantics; harmless under 1.23+).
				select {
				case <-timer.C:
				default:
				}
			}
			d = time.Duration(t.next.Load())
		case now := <-timer.C:
			d = fn(now)
		}
		timer.Reset(max(d, minEvery))
	}
}

// Reset re-arms the next run to d from now. It never blocks and may be
// called from any goroutine, including from inside any ticker's fn; a
// Reset that lands while fn runs overrides the duration that run
// returns. A Reset after Stop does nothing.
func (t *Ticker) Reset(d time.Duration) {
	t.next.Store(int64(d))
	select {
	case t.kick <- struct{}{}:
	default:
	}
}

// Stop ends the loop. It returns only once a run in progress has
// returned, and no run starts after it returns; calling it again, also
// concurrently, waits the same way and does nothing more. Stop on a
// nil Ticker does nothing, so an owner need not track whether it
// started one.
func (t *Ticker) Stop() {
	if t == nil {
		return
	}
	t.once.Do(func() { close(t.stop) })
	<-t.done
}
