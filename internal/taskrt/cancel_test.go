package taskrt

import (
	"context"
	"errors"
	"sync/atomic"
	"testing"
	"time"
)

// gateWorkers blocks every worker of rt inside a task until the returned
// release function is called, so subsequently spawned tasks stay queued.
func gateWorkers(t *testing.T, rt *Runtime) (release func()) {
	t.Helper()
	gate := make(chan struct{})
	running := make(chan struct{}, rt.NumWorkers())
	for i := 0; i < rt.NumWorkers(); i++ {
		AsyncF(rt, func() int {
			running <- struct{}{}
			<-gate
			return 0
		})
	}
	for i := 0; i < rt.NumWorkers(); i++ {
		select {
		case <-running:
		case <-time.After(5 * time.Second):
			t.Fatal("workers did not pick up gate tasks")
		}
	}
	var once atomic.Bool
	return func() {
		if once.CompareAndSwap(false, true) {
			close(gate)
		}
	}
}

// TestCancelDropsQueuedTasks is the exact-accounting test: every task
// that was queued but not started when the context died must be dropped
// at dispatch and show up in the cancelled counter — no more, no fewer.
func TestCancelDropsQueuedTasks(t *testing.T) {
	rt := newTestRuntime(t, 1)
	release := gateWorkers(t, rt)

	ctx, cancel := context.WithCancel(context.Background())
	const n = 200
	var ran atomic.Int64
	fs := make([]*Future[int], n)
	for i := range fs {
		fs[i] = SpawnWith(rt, SpawnOptions{Ctx: ctx}, func() int { ran.Add(1); return 1 })
	}
	cancel()
	release()

	for i, f := range fs {
		if err := f.Err(); !errors.Is(err, ErrCancelled) {
			t.Fatalf("future %d: Err() = %v, want ErrCancelled", i, err)
		}
	}
	if got := ran.Load(); got != 0 {
		t.Fatalf("%d task bodies ran after cancel", got)
	}
	if got := rt.Cancelled(); got != n {
		t.Fatalf("Cancelled() = %d, want exactly %d", got, n)
	}
}

// TestCancelPropagatesToDescendants: children spawned with plain Spawn
// from inside a task with a scope join the parent's cancellation tree.
func TestCancelPropagatesToDescendants(t *testing.T) {
	rt := newTestRuntime(t, 2)
	ctx, cancel := context.WithCancel(context.Background())

	var childErr error
	root := SpawnWith(rt, SpawnOptions{Ctx: ctx}, func() int {
		cancel()                                     // scope dies while the root is running
		child := AsyncF(rt, func() int { return 7 }) // inherits the scope
		childErr = child.Err()
		return 1
	})
	if err := root.Err(); err != nil {
		t.Fatalf("root Err() = %v (root already started, should finish)", err)
	}
	if !errors.Is(childErr, ErrCancelled) {
		t.Fatalf("child Err() = %v, want ErrCancelled", childErr)
	}
	if got := root.Get(); got != 1 {
		t.Fatalf("root Get() = %d", got)
	}
}

// TestCancelDeadOnArrival: spawning under an already-cancelled context
// never runs the body, for every launch policy.
func TestCancelDeadOnArrival(t *testing.T) {
	rt := newTestRuntime(t, 2)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	for _, p := range []Policy{Async, Sync, Fork, Deferred, Optional} {
		var ran atomic.Bool
		f := SpawnWith(rt, SpawnOptions{Ctx: ctx, Policy: p}, func() int { ran.Store(true); return 1 })
		v, err := f.GetErr()
		if !errors.Is(err, ErrCancelled) {
			t.Fatalf("%v: GetErr err = %v, want ErrCancelled", p, err)
		}
		if v != 0 || ran.Load() {
			t.Fatalf("%v: body ran under dead context", p)
		}
	}
}

// TestCancelGetPanics: Get on a cancelled future panics with
// ErrCancelled rather than returning a zero value silently.
func TestCancelGetPanics(t *testing.T) {
	rt := newTestRuntime(t, 2)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	f := SpawnWith(rt, SpawnOptions{Ctx: ctx}, func() int { return 1 })
	defer func() {
		if r := recover(); !errors.Is(r.(error), ErrCancelled) {
			t.Fatalf("recovered %v, want ErrCancelled", r)
		}
	}()
	f.Get()
	t.Fatal("Get did not panic on cancelled future")
}

// TestCancelJoinUnwindsAsCancelled: a running task whose Get meets a
// dropped child completes with ErrCancelled itself — not a *PanicError
// wrapping it — and only the child's dispatch drop is counted.
func TestCancelJoinUnwindsAsCancelled(t *testing.T) {
	rt := newTestRuntime(t, 2)
	ctx, cancel := context.WithCancel(context.Background())
	before := rt.Cancelled()
	root := SpawnWith(rt, SpawnOptions{Ctx: ctx}, func() int {
		cancel()
		return AsyncF(rt, func() int { return 7 }).Get() // dead on arrival
	})
	err := root.Err()
	if !errors.Is(err, ErrCancelled) {
		t.Fatalf("root Err() = %v, want ErrCancelled", err)
	}
	var pe *PanicError
	if errors.As(err, &pe) {
		t.Fatalf("root Err() is a *PanicError: %v", pe)
	}
	if got := rt.Cancelled() - before; got != 1 {
		t.Fatalf("Cancelled() grew by %d, want exactly 1 (the child's drop)", got)
	}
}

// TestCancelSpawnTimeout: a Ctx carrying a deadline drops a queued task
// and leaves a promptly-completing task untouched.
func TestCancelSpawnTimeout(t *testing.T) {
	rt := newTestRuntime(t, 1)

	fastCtx, cancelFast := context.WithTimeout(context.Background(), time.Second)
	defer cancelFast()
	fast := SpawnWith(rt, SpawnOptions{Ctx: fastCtx}, func() int { return 9 })
	if v, err := fast.GetErr(); err != nil || v != 9 {
		t.Fatalf("fast GetErr = %d, %v", v, err)
	}

	release := gateWorkers(t, rt)
	slowCtx, cancelSlow := context.WithTimeout(context.Background(), 20*time.Millisecond)
	defer cancelSlow()
	slow := SpawnWith(rt, SpawnOptions{Ctx: slowCtx}, func() int { return 1 })
	time.Sleep(60 * time.Millisecond)
	release()
	if err := slow.Err(); !errors.Is(err, ErrCancelled) {
		t.Fatalf("slow Err() = %v, want ErrCancelled", err)
	}
}

// TestCancelWaitContext: WaitContext returns the context error while the
// future is incomplete and nil once it completes; abandoning the wait
// does not cancel the task.
func TestCancelWaitContext(t *testing.T) {
	rt := newTestRuntime(t, 2)
	block := make(chan struct{})
	f := AsyncF(rt, func() int { <-block; return 3 })

	wctx, wcancel := context.WithTimeout(context.Background(), 20*time.Millisecond)
	defer wcancel()
	if err := f.WaitContext(wctx); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("WaitContext = %v, want DeadlineExceeded", err)
	}

	close(block)
	if err := f.WaitContext(context.Background()); err != nil {
		t.Fatalf("WaitContext after completion = %v", err)
	}
	if got := f.Get(); got != 3 {
		t.Fatalf("Get = %d; abandoned wait must not cancel the task", got)
	}
}

// TestCancelWaitContextOnWorker: a worker abandoning a WaitContext keeps
// scheduling — the helped wait returns with the context error while the
// runtime stays usable.
func TestCancelWaitContextOnWorker(t *testing.T) {
	rt := newTestRuntime(t, 2)
	block := make(chan struct{})
	defer close(block)
	inner := AsyncF(rt, func() int { <-block; return 1 })

	outer := AsyncF(rt, func() error {
		wctx, wcancel := context.WithTimeout(context.Background(), 20*time.Millisecond)
		defer wcancel()
		return inner.WaitContext(wctx)
	})
	if err := outer.Get(); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("worker WaitContext = %v, want DeadlineExceeded", err)
	}
	// The worker that abandoned the wait must still run tasks.
	if got := AsyncF(rt, func() int { return 5 }).Get(); got != 5 {
		t.Fatal("runtime unusable after abandoned WaitContext")
	}
}
