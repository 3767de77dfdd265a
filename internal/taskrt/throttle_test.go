package taskrt

import (
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/apex"
	"repro/internal/core"
)

func TestConcurrencyLimitBounds(t *testing.T) {
	rt := New(WithWorkers(4))
	defer rt.Shutdown()
	if rt.ConcurrencyLimit() != 4 {
		t.Fatalf("default limit = %d", rt.ConcurrencyLimit())
	}
	rt.SetConcurrencyLimit(2)
	if rt.ConcurrencyLimit() != 2 {
		t.Fatalf("limit = %d", rt.ConcurrencyLimit())
	}
	rt.SetConcurrencyLimit(0) // restores full concurrency
	if rt.ConcurrencyLimit() != 4 {
		t.Fatalf("limit after 0 = %d", rt.ConcurrencyLimit())
	}
	rt.SetConcurrencyLimit(99) // clamped
	if rt.ConcurrencyLimit() != 4 {
		t.Fatalf("limit after 99 = %d", rt.ConcurrencyLimit())
	}
}

func TestThrottledRuntimeStillCorrect(t *testing.T) {
	rt := New(WithWorkers(4))
	defer rt.Shutdown()
	rt.SetConcurrencyLimit(1)
	if got := fibRT(rt, 18); got != 2584 {
		t.Fatalf("fib(18) under throttle = %d", got)
	}
	// Raising the limit mid-flight must not lose tasks.
	var count atomic.Int64
	fs := make([]*Future[int], 100)
	for i := range fs {
		fs[i] = AsyncF(rt, func() int {
			count.Add(1)
			time.Sleep(100 * time.Microsecond)
			return 0
		})
	}
	rt.SetConcurrencyLimit(4)
	WaitAllOf(fs)
	if count.Load() != 100 {
		t.Fatalf("executed %d/100", count.Load())
	}
}

func TestThrottledWorkersConcurrency(t *testing.T) {
	// With limit 1, at most one task executes at a time even under a
	// flood (except inline help from the waiting spawner, which there
	// is none of here: the spawner is not a worker).
	rt := New(WithWorkers(4))
	defer rt.Shutdown()
	rt.SetConcurrencyLimit(1)
	var inFlight, maxInFlight atomic.Int64
	fs := make([]*Future[int], 50)
	for i := range fs {
		fs[i] = AsyncF(rt, func() int {
			cur := inFlight.Add(1)
			for {
				prev := maxInFlight.Load()
				if cur <= prev || maxInFlight.CompareAndSwap(prev, cur) {
					break
				}
			}
			time.Sleep(200 * time.Microsecond)
			inFlight.Add(-1)
			return 0
		})
	}
	WaitAllOf(fs)
	if maxInFlight.Load() > 1 {
		t.Fatalf("max in-flight = %d under limit 1", maxInFlight.Load())
	}
}

func TestUtilizationCounter(t *testing.T) {
	rt := New(WithWorkers(2))
	defer rt.Shutdown()
	reg := core.NewRegistry()
	if err := rt.RegisterCounters(reg); err != nil {
		t.Fatal(err)
	}
	name := "/scheduler{locality#0/total}/utilization/instantaneous"
	if v, err := reg.Evaluate(name, false); err != nil || v.Raw != 0 {
		t.Fatalf("idle utilization = %+v (%v)", v, err)
	}
	block := make(chan struct{})
	fs := []*Future[int]{
		AsyncF(rt, func() int { <-block; return 0 }),
		AsyncF(rt, func() int { <-block; return 0 }),
	}
	time.Sleep(5 * time.Millisecond)
	if v, _ := reg.Evaluate(name, false); v.Raw != 100 {
		t.Fatalf("saturated utilization = %d", v.Raw)
	}
	close(block)
	WaitAllOf(fs)
	settles(t, reg, name, 0)
	w, _ := reg.Evaluate("/threads{locality#0/total}/count/workers-active", false)
	if w.Raw != 2 {
		t.Fatalf("workers-active = %d", w.Raw)
	}
}

func TestNestedTimeAccounting(t *testing.T) {
	// A parent that spends all its time waiting on a child must not
	// absorb the child's execution time: total task time stays close to
	// the actual compute, not 2x.
	rt := New(WithWorkers(1))
	defer rt.Shutdown()
	reg := core.NewRegistry()
	if err := rt.RegisterCounters(reg); err != nil {
		t.Fatal(err)
	}
	const spinTime = 20 * time.Millisecond
	parent := AsyncF(rt, func() int {
		child := AsyncF(rt, func() int {
			busySpin(spinTime)
			return 1
		})
		return child.Get()
	})
	if parent.Get() != 1 {
		t.Fatal("wrong result")
	}
	v, err := reg.Evaluate("/threads{locality#0/total}/time/cumulative", false)
	if err != nil {
		t.Fatal(err)
	}
	total := time.Duration(v.Raw)
	if total < spinTime {
		t.Fatalf("cumulative task time %v below the actual compute %v", total, spinTime)
	}
	if total > spinTime*3/2 {
		t.Fatalf("cumulative task time %v double-counts the nested child (compute %v)", total, spinTime)
	}
}

// TestChaos mixes policies, panics, throttling changes and tracing under
// concurrent load: the runtime must stay correct throughout.
func TestChaos(t *testing.T) {
	rt := New(WithWorkers(4))
	defer rt.Shutdown()
	rt.EnableTracing(1 << 16)
	policies := []Policy{Async, Sync, Fork, Deferred, Optional}
	var sum atomic.Int64
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		g := g
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				p := policies[(g+i)%len(policies)]
				if i%3 == 0 {
					rt.SetConcurrencyLimit(1 + (g+i)%4)
				}
				if i%17 == 0 {
					// A panicking task must not corrupt the runtime.
					f := Spawn(rt, p, func() int { panic("chaos") })
					func() {
						defer func() { recover() }()
						f.Get()
					}()
					continue
				}
				f := Spawn(rt, p, func() int {
					inner := AsyncF(rt, func() int { return 1 })
					return inner.Get() + 1
				})
				sum.Add(int64(f.Get()))
			}
		}()
	}
	wg.Wait()
	rt.SetConcurrencyLimit(0)
	// 4 goroutines x 200 iterations, of which every 17th panics:
	// the rest contribute exactly 2 each.
	want := int64(0)
	for g := 0; g < 4; g++ {
		for i := 0; i < 200; i++ {
			if i%17 != 0 {
				want += 2
			}
		}
	}
	if sum.Load() != want {
		t.Fatalf("sum = %d want %d", sum.Load(), want)
	}
	// The runtime still works afterwards.
	if got := fibRT(rt, 15); got != 610 {
		t.Fatalf("post-chaos fib = %d", got)
	}
}

// idleThrottleEngine registers rt's counters on a fresh registry and
// returns an engine holding only rt's idle throttle.
func idleThrottleEngine(t *testing.T, rt *Runtime, period time.Duration, low, high float64) (*core.Registry, *apex.Engine) {
	t.Helper()
	reg := core.NewRegistry()
	if err := rt.RegisterCounters(reg); err != nil {
		t.Fatal(err)
	}
	p, err := rt.IdleThrottle(reg, period, low, high)
	if err != nil {
		t.Fatal(err)
	}
	e := apex.NewEngine()
	if err := e.Add(p); err != nil {
		t.Fatal(err)
	}
	return reg, e
}

func TestIdleThrottlePolicy(t *testing.T) {
	rt := New(WithWorkers(4))
	defer rt.Shutdown()
	_, e := idleThrottleEngine(t, rt, time.Millisecond, 1000, 8000)
	// The runtime idles: the idle-rate is ~100% (10000), so repeated
	// polls must step the concurrency limit down to 1.
	time.Sleep(20 * time.Millisecond)
	now := time.Now()
	for i := 0; i < 10; i++ {
		e.Poll(now.Add(time.Duration(i) * time.Millisecond))
	}
	if got := rt.ConcurrencyLimit(); got != 1 {
		t.Fatalf("throttled limit = %d want 1", got)
	}
	if len(e.Events()) == 0 {
		t.Fatal("no throttle events recorded")
	}
	// The throttled runtime must still execute tasks correctly.
	f := AsyncF(rt, func() int { return 11 })
	if got := f.Get(); got != 11 {
		t.Fatalf("task under throttle = %d", got)
	}
}

// TestIdleThrottleLogsOnlyChanges: an idle runtime polled 10 000 times
// steps 4 -> 3 -> 2 -> 1 and then holds at the floor — three events,
// not one per poll.
func TestIdleThrottleLogsOnlyChanges(t *testing.T) {
	rt := New(WithWorkers(4))
	defer rt.Shutdown()
	_, e := idleThrottleEngine(t, rt, time.Millisecond, 1000, 8000)
	time.Sleep(20 * time.Millisecond)
	now := time.Now()
	for i := 0; i < 10000; i++ {
		e.Poll(now.Add(time.Duration(i) * time.Millisecond))
	}
	if got := rt.ConcurrencyLimit(); got != 1 {
		t.Fatalf("throttled limit = %d want 1", got)
	}
	if got := len(e.Events()); got != 3 {
		t.Fatalf("10000 polls of an idle runtime logged %d events, want 3: %v", got, e.Events())
	}
}

func TestIdleThrottleRaisesUnderLoad(t *testing.T) {
	rt := New(WithWorkers(4))
	defer rt.Shutdown()
	rt.SetConcurrencyLimit(2)
	// The two throttled workers idle at 100%, so the total idle-rate
	// sits near 50% while the active pair is saturated; a raise
	// threshold of 60% captures that state.
	reg, e := idleThrottleEngine(t, rt, time.Millisecond, 6000, 9999)
	// Saturate the runtime, then reset the idle accounting so the
	// sampled window reflects the busy phase.
	stop := make(chan struct{})
	var fs []*Future[int]
	for i := 0; i < 8; i++ {
		fs = append(fs, AsyncF(rt, func() int { <-stop; return 0 }))
	}
	name := core.Name{Object: "threads", Counter: "idle-rate"}.
		WithInstances(core.LocalityInstance(0, "total", -1)...)
	if _, err := reg.Evaluate(name.String(), true); err != nil { // reset window
		t.Fatal(err)
	}
	time.Sleep(10 * time.Millisecond)
	e.Poll(time.Now())
	if got := rt.ConcurrencyLimit(); got != 3 {
		t.Fatalf("limit after busy poll = %d want 3", got)
	}
	close(stop)
	for _, f := range fs {
		f.Get()
	}
}
