package core

import (
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// within fails the test unless a value arrives on ch within a generous
// bound; the bound only catches a hang, it never paces the test.
func within[T any](t *testing.T, ch <-chan T, what string) T {
	t.Helper()
	select {
	case v := <-ch:
		return v
	case <-time.After(10 * time.Second):
		t.Fatalf("timed out waiting for %s", what)
		panic("unreachable")
	}
}

// TestEveryReturnedDurationSetsNextRun: the first run comes d after
// Every and each later one the duration the previous run returned —
// not d again. Timers never fire early, so every gap is a lower bound.
func TestEveryReturnedDurationSetsNextRun(t *testing.T) {
	gaps := []time.Duration{30 * time.Millisecond, time.Millisecond, 20 * time.Millisecond}
	runs := make(chan time.Time, len(gaps)+1)
	var n int
	start := time.Now()
	tk := Every(time.Millisecond, func(now time.Time) time.Duration {
		runs <- now
		if n == len(gaps) {
			return time.Hour
		}
		n++
		return gaps[n-1]
	})
	defer tk.Stop()
	prev := within(t, runs, "first run")
	if prev.Sub(start) < time.Millisecond {
		t.Errorf("first run after %v, want >= 1ms", prev.Sub(start))
	}
	for i, want := range gaps {
		next := within(t, runs, "next run")
		if got := next.Sub(prev); got < want {
			t.Errorf("run %d came %v after the previous one, want >= the returned %v", i+2, got, want)
		}
		prev = next
	}
}

// TestEveryResetZeroRunsPromptly: Reset(0) on an hour-long ticker runs
// fn at once (at the floor), not an hour later; a non-positive period
// is clamped, never a panic.
func TestEveryResetZeroRunsPromptly(t *testing.T) {
	ran := make(chan struct{}, 1)
	tk := Every(time.Hour, func(time.Time) time.Duration {
		ran <- struct{}{}
		return time.Hour
	})
	defer tk.Stop()
	tk.Reset(0)
	within(t, ran, "run after Reset(0)")

	neg := Every(-time.Second, func(time.Time) time.Duration {
		select {
		case ran <- struct{}{}:
		default:
		}
		return -time.Second
	})
	within(t, ran, "run of a ticker with a negative period")
	neg.Stop()
}

// TestEveryResetFromInsideFn: fn may Reset its own ticker without
// deadlocking, and that Reset overrides the duration fn returns (here
// an hour), so runs keep coming.
func TestEveryResetFromInsideFn(t *testing.T) {
	ready := make(chan struct{})
	var tk *Ticker
	runs := make(chan int, 3)
	var n int
	tk = Every(time.Millisecond, func(time.Time) time.Duration {
		<-ready
		n++
		if n <= 3 {
			runs <- n
		}
		tk.Reset(time.Millisecond)
		return time.Hour
	})
	close(ready)
	for i := 1; i <= 3; i++ {
		if got := within(t, runs, "run re-armed from inside fn"); got != i {
			t.Fatalf("run %d reported as %d", i, got)
		}
	}
	tk.Stop()
	tk.Reset(0) // after Stop: a no-op, must not block
}

// TestEveryStopWaitsForRun: Stop returns only after a blocked run has
// returned, from every one of several concurrent callers; Stop after
// Stop, and Stop on a nil Ticker, return at once.
func TestEveryStopWaitsForRun(t *testing.T) {
	entered := make(chan struct{})
	release := make(chan struct{})
	var fnReturned atomic.Bool
	tk := Every(time.Millisecond, func(time.Time) time.Duration {
		close(entered)
		<-release
		fnReturned.Store(true)
		return time.Hour
	})
	within(t, entered, "the run to start")

	const stoppers = 3
	stopped := make(chan struct{}, stoppers)
	var wg sync.WaitGroup
	for i := 0; i < stoppers; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			tk.Stop()
			if !fnReturned.Load() {
				t.Error("Stop returned while fn was still running")
			}
			stopped <- struct{}{}
		}()
	}
	// A Stop that does not wait returns straight away; give it the
	// chance before releasing the run. A correct Stop is still blocked.
	select {
	case <-stopped:
		t.Fatal("Stop returned while fn was blocked")
	case <-time.After(20 * time.Millisecond):
	}
	close(release)
	wg.Wait()
	tk.Stop()
	var never *Ticker
	never.Stop() // a ticker that was never started
}
