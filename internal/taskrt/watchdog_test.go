package taskrt

import (
	"context"
	"sync"
	"testing"
	"time"

	"repro/internal/apex"
	"repro/internal/core"
)

// startWatchdog runs rt's watchdog on an engine of its own; the test
// stops it early with the returned engine, or at cleanup.
func startWatchdog(t *testing.T, rt *Runtime, cfg WatchdogConfig) *apex.Engine {
	t.Helper()
	e := apex.NewEngine()
	if err := e.Add(rt.Watchdog(cfg)); err != nil {
		t.Fatal(err)
	}
	e.Start()
	t.Cleanup(e.Stop)
	return e
}

// eventLog collects watchdog events for assertions.
type eventLog struct {
	mu     sync.Mutex
	events []HealthEvent
}

func (l *eventLog) add(ev HealthEvent) {
	l.mu.Lock()
	l.events = append(l.events, ev)
	l.mu.Unlock()
}

func (l *eventLog) count(kind HealthKind) int {
	l.mu.Lock()
	defer l.mu.Unlock()
	n := 0
	for _, ev := range l.events {
		if ev.Kind == kind {
			n++
		}
	}
	return n
}

// TestWatchdogCleanRunNoEvents: a healthy fork/join workload under an
// aggressive sampling interval must raise zero health events.
func TestWatchdogCleanRunNoEvents(t *testing.T) {
	rt := newTestRuntime(t, 4)
	// The aggressive part is the 2 ms sweep; the thresholds only need to
	// stay above the whole run's duration, with headroom for the race
	// detector's ~10x slowdown (a fork/join root legitimately spans most
	// of the run).
	threshold := time.Second
	if raceEnabled {
		threshold = 10 * time.Second
	}
	var log eventLog
	wd := startWatchdog(t, rt, WatchdogConfig{
		Interval:       2 * time.Millisecond,
		StallThreshold: threshold,
		OnEvent:        log.add,
	})

	var fib func(n int) int
	fib = func(n int) int {
		if n < 2 {
			return n
		}
		a := AsyncF(rt, func() int { return fib(n - 1) })
		b := fib(n - 2)
		return a.Get() + b
	}
	if got := fib(22); got != 17711 {
		t.Fatalf("fib(22) = %d", got)
	}
	wd.Stop()
	log.mu.Lock()
	defer log.mu.Unlock()
	if len(log.events) != 0 {
		t.Fatalf("clean run raised %d health events: %v", len(log.events), log.events)
	}
	if rt.healthEvents.Load() != 0 {
		t.Fatalf("health/events counter = %d on a clean run", rt.healthEvents.Load())
	}
}

// TestWatchdogStalledTask: one deliberately stalled task raises exactly
// one stalled_task event — repeated sweeps over the same episode are
// deduplicated.
func TestWatchdogStalledTask(t *testing.T) {
	rt := newTestRuntime(t, 2)
	var log eventLog
	wd := startWatchdog(t, rt, WatchdogConfig{
		Interval:       3 * time.Millisecond,
		StallThreshold: 25 * time.Millisecond,
		OnEvent:        log.add,
	})
	f := AsyncF(rt, func() int {
		time.Sleep(150 * time.Millisecond) // stall well past the threshold
		return 1
	})
	f.Wait()
	wd.Stop()

	if got := log.count(HealthStalledTask); got != 1 {
		t.Fatalf("stalled_task events = %d, want exactly 1 (%v)", got, log.events)
	}
	if got := log.count(HealthDeadlockSuspected); got != 0 {
		t.Fatalf("a sleeping task was misreported as deadlock (%v)", log.events)
	}
	var perWorker int64
	for _, w := range rt.workers {
		perWorker += w.metrics.healthStalled.Load()
	}
	if perWorker != 1 || rt.healthEvents.Load() != int64(len(log.events)) {
		t.Fatalf("counters disagree: stalled=%d events=%d log=%d",
			perWorker, rt.healthEvents.Load(), len(log.events))
	}
}

// TestWatchdogDeadlockSuspected: a genuine Wait cycle (two tasks each
// waiting on the other's future) is reported once as deadlock_suspected.
// The tasks wait with WaitContext so the test can break the cycle.
func TestWatchdogDeadlockSuspected(t *testing.T) {
	rt := New(WithWorkers(2))
	defer rt.Shutdown()
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel() // breaks the cycle before Shutdown

	var log eventLog
	wd := startWatchdog(t, rt, WatchdogConfig{
		Interval:       3 * time.Millisecond,
		StallThreshold: 30 * time.Millisecond,
		OnEvent:        log.add,
	})

	ready := make(chan struct{})
	var fa, fb *Future[int]
	fa = AsyncF(rt, func() int { <-ready; _ = fb.WaitContext(ctx); return 1 })
	fb = AsyncF(rt, func() int { <-ready; _ = fa.WaitContext(ctx); return 2 })
	close(ready)

	deadline := time.After(5 * time.Second)
	for log.count(HealthDeadlockSuspected) == 0 {
		select {
		case <-deadline:
			t.Fatal("deadlock cycle never reported")
		case <-time.After(5 * time.Millisecond):
		}
	}
	cancel()
	fa.Wait()
	fb.Wait()
	time.Sleep(20 * time.Millisecond) // a few more sweeps after progress
	wd.Stop()

	if got := log.count(HealthDeadlockSuspected); got != 1 {
		t.Fatalf("deadlock_suspected events = %d, want exactly 1", got)
	}
	if rt.healthDeadlock.Load() != 1 {
		t.Fatalf("health/deadlocks counter = %d", rt.healthDeadlock.Load())
	}
}

// TestWatchdogStarvedWorker drives sweep directly: a parked worker with
// work pending past the threshold is reported once per park episode.
func TestWatchdogStarvedWorker(t *testing.T) {
	rt := newTestRuntime(t, 2)
	// Let the workers go idle (parked).
	deadline := time.Now().Add(5 * time.Second)
	parked := func() int {
		n := 0
		for _, w := range rt.workers {
			if w.metrics.parkedSince.Load() != 0 {
				n++
			}
		}
		return n
	}
	for parked() < 2 {
		if time.Now().After(deadline) {
			t.Fatal("workers never parked")
		}
		time.Sleep(time.Millisecond)
	}

	var log eventLog
	cfg := WatchdogConfig{OnEvent: log.add}
	wd := newWatchdog(rt, cfg)
	cfg = wd.cfg // with defaults

	// Queue a real task that nobody picks up: pushed onto the injector
	// without a notify, so both workers stay parked beside it. Cleanup
	// wakes them to drain it.
	f := newFuture[int](rt)
	f.fn = func() int { return 0 }
	rt.injector.pushBack(&f.task)
	t.Cleanup(func() {
		rt.wakeup.notify()
		f.Wait()
	})

	future := time.Now().Add(2 * cfg.StallThreshold)
	wd.sweep(future)
	if got := log.count(HealthStarvedWorker); got != 2 {
		t.Fatalf("starved_worker events = %d, want 2 (both workers)", got)
	}
	// Same park episode: a second sweep must not re-report.
	wd.sweep(future.Add(cfg.Interval))
	if got := log.count(HealthStarvedWorker); got != 2 {
		t.Fatalf("starvation re-reported within one episode: %d events", got)
	}
	// Throttled workers park by design and are skipped. The limit is
	// stored without SetConcurrencyLimit's notify, which would wake a
	// worker to run the queued task.
	rt.limit.Store(1)
	wd2 := newWatchdog(rt, cfg)
	var log2 eventLog
	wd2.cfg.OnEvent = log2.add
	wd2.sweep(future)
	if got := log2.count(HealthStarvedWorker); got != 1 {
		t.Fatalf("throttled-aware sweep reported %d starvations, want 1", got)
	}
	rt.SetConcurrencyLimit(0)
}

// TestWatchdogBacklogGrowth drives sweep over a growing injector: the
// event fires after exactly backlogSweeps consecutive growth samples.
func TestWatchdogBacklogGrowth(t *testing.T) {
	rt := newTestRuntime(t, 1)
	release := gateWorkers(t, rt)
	defer release()

	var log eventLog
	cfg := WatchdogConfig{OnEvent: log.add}
	wd := newWatchdog(rt, cfg)
	cfg = wd.cfg // with defaults

	now := time.Now()
	fs := make([]*Future[int], 0, 8)
	for i := 0; i < backlogSweeps; i++ {
		// Spawned from a non-worker goroutine: lands on the injector.
		fs = append(fs, AsyncF(rt, func() int { return 1 }))
		wd.sweep(now.Add(time.Duration(i) * cfg.Interval))
	}
	if got := log.count(HealthBacklogGrowth); got != 1 {
		t.Fatalf("backlog_growth events after %d growth samples = %d, want 1", backlogSweeps, got)
	}
	// Flat backlog: streak resets, no further events.
	wd.sweep(now.Add(10 * cfg.Interval))
	wd.sweep(now.Add(11 * cfg.Interval))
	if got := log.count(HealthBacklogGrowth); got != 1 {
		t.Fatalf("flat backlog raised events: %d", got)
	}
	release()
	WaitAllOf(fs)
}

// TestWatchdogDeadlockAgeIsClockTime drives sweep over a real Wait
// cycle with sweeps landing 1s apart, ten default Intervals late: the
// no-progress run is measured by clock, so the deadlock is reported
// once it has been observed for StallThreshold, at that age.
func TestWatchdogDeadlockAgeIsClockTime(t *testing.T) {
	rt := New(WithWorkers(2))
	defer rt.Shutdown()
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel() // breaks the cycle before Shutdown

	var fa, fb *Future[int]
	ready := make(chan struct{})
	fa = AsyncF(rt, func() int { <-ready; _ = fb.WaitContext(ctx); return 1 })
	fb = AsyncF(rt, func() int { <-ready; _ = fa.WaitContext(ctx); return 2 })
	close(ready)

	var log eventLog
	cfg := WatchdogConfig{OnEvent: log.add}
	wd := newWatchdog(rt, cfg)
	cfg = wd.cfg // with defaults
	now := time.Now()
	for i := 0; i < 5; i++ {
		time.Sleep(10 * time.Millisecond) // the waiters book help-poll idle time
		wd.sweep(now.Add(time.Duration(i) * time.Second))
	}
	cancel()
	fa.Wait()
	fb.Wait()

	// The synthetic clock also ages the two waiting tasks into stalls;
	// only the deadlock report is under test.
	log.mu.Lock()
	defer log.mu.Unlock()
	var deadlocks []HealthEvent
	for _, ev := range log.events {
		if ev.Kind == HealthDeadlockSuspected {
			deadlocks = append(deadlocks, ev)
		}
	}
	if len(deadlocks) != 1 {
		t.Fatalf("4s of observed wait cycle raised %v, want one deadlock_suspected", log.events)
	}
	if age := deadlocks[0].Age; age < cfg.StallThreshold || age > 4*time.Second {
		t.Fatalf("deadlock age = %v, want the observed clock time in [%v, 4s]", age, cfg.StallThreshold)
	}
}

// TestWatchdogStartStop: the watchdog is a policy on an engine its
// caller owns — it sweeps once added to a started engine, keeps
// sweeping harmlessly over a runtime that has shut down, and stops,
// twice safely, with the engine.
func TestWatchdogStartStop(t *testing.T) {
	rt := New(WithWorkers(1))
	var log eventLog
	e := apex.NewEngine()
	e.Start()
	if err := e.Add(rt.Watchdog(WatchdogConfig{
		Interval:       time.Millisecond,
		StallThreshold: 10 * time.Millisecond,
		OnEvent:        log.add,
	})); err != nil {
		t.Fatal(err)
	}
	AsyncF(rt, func() int { time.Sleep(60 * time.Millisecond); return 1 }).Wait()
	rt.Shutdown()
	time.Sleep(5 * time.Millisecond) // sweeps over the closed runtime
	e.Stop()
	e.Stop() // idempotent
	if got := log.count(HealthStalledTask); got != 1 {
		t.Fatalf("stalled_task events = %d, want 1 (%v)", got, log.events)
	}
	events := rt.healthEvents.Load()
	time.Sleep(5 * time.Millisecond)
	if rt.healthEvents.Load() != events {
		t.Fatal("the watchdog swept after its engine stopped")
	}
}

// TestWatchdogOnEventPanicIsolated: a panicking OnEvent subscriber is
// recovered and counted, and the watchdog keeps raising events — two
// separate stall episodes both arrive despite the callback blowing up
// on every one of them.
func TestWatchdogOnEventPanicIsolated(t *testing.T) {
	rt := newTestRuntime(t, 2)
	var log eventLog
	wd := startWatchdog(t, rt, WatchdogConfig{
		Interval:       3 * time.Millisecond,
		StallThreshold: 25 * time.Millisecond,
		OnEvent: func(ev HealthEvent) {
			log.add(ev)
			panic("buggy subscriber")
		},
	})
	for i := 0; i < 2; i++ {
		AsyncF(rt, func() int {
			time.Sleep(100 * time.Millisecond)
			return 1
		}).Wait()
	}
	wd.Stop()

	if got := log.count(HealthStalledTask); got != 2 {
		t.Fatalf("stalled_task events after panics = %d, want 2 (%v)", got, log.events)
	}
	if got, want := rt.healthCbErrors.Load(), int64(len(log.events)); got != want {
		t.Fatalf("callback-errors = %d, want %d (one per delivered event)", got, want)
	}
	reg := core.NewRegistry()
	if err := rt.RegisterCounters(reg); err != nil {
		t.Fatal(err)
	}
	v, err := reg.Evaluate("/runtime{locality#0/total}/health/callback-errors", false)
	if err != nil || !v.Valid() || v.Raw != rt.healthCbErrors.Load() {
		t.Fatalf("callback-errors counter = %+v, %v", v, err)
	}
}
