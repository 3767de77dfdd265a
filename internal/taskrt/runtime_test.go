package taskrt

import (
	"sync/atomic"
	"testing"
	"time"
)

func newTestRuntime(t testing.TB, workers int) *Runtime {
	t.Helper()
	rt := New(WithWorkers(workers))
	t.Cleanup(rt.Shutdown)
	return rt
}

func TestAsyncBasic(t *testing.T) {
	rt := newTestRuntime(t, 2)
	f := AsyncF(rt, func() int { return 42 })
	if got := f.Get(); got != 42 {
		t.Fatalf("Get = %d", got)
	}
	if !f.Ready() {
		t.Fatal("future not ready after Get")
	}
}

func TestAsyncManyTasks(t *testing.T) {
	rt := newTestRuntime(t, 4)
	const n = 2000
	var sum atomic.Int64
	fs := make([]*Future[int], n)
	for i := 0; i < n; i++ {
		i := i
		fs[i] = AsyncF(rt, func() int {
			sum.Add(1)
			return i
		})
	}
	for i, f := range fs {
		if got := f.Get(); got != i {
			t.Fatalf("task %d returned %d", i, got)
		}
	}
	if sum.Load() != n {
		t.Fatalf("executed %d tasks", sum.Load())
	}
}

// fibRT is the canonical nested fork/join: every task spawns children and
// waits on them, exercising help-first waiting on workers.
func fibRT(rt *Runtime, n int) int64 {
	if n < 2 {
		return int64(n)
	}
	a := AsyncF(rt, func() int64 { return fibRT(rt, n-1) })
	b := fibRT(rt, n-2)
	return a.Get() + b
}

func TestNestedForkJoin(t *testing.T) {
	for _, workers := range []int{1, 2, 4} {
		rt := New(WithWorkers(workers))
		if got := fibRT(rt, 20); got != 6765 {
			t.Errorf("workers=%d: fib(20) = %d", workers, got)
		}
		rt.Shutdown()
	}
}

func TestPolicies(t *testing.T) {
	rt := newTestRuntime(t, 2)
	for _, p := range []Policy{Async, Sync, Fork, Deferred, Optional} {
		ran := false
		f := Spawn(rt, p, func() int { ran = true; return 7 })
		if p == Sync || p == Fork {
			if !f.Ready() {
				t.Errorf("%v: not ready immediately after spawn", p)
			}
		}
		if p == Deferred && f.Ready() {
			t.Errorf("deferred ran before Get")
		}
		if got := f.Get(); got != 7 || !ran {
			t.Errorf("%v: Get = %d ran=%v", p, got, ran)
		}
	}
}

func TestDeferredRunsOnGetOnly(t *testing.T) {
	rt := newTestRuntime(t, 2)
	var ran atomic.Bool
	f := Spawn(rt, Deferred, func() int { ran.Store(true); return 1 })
	time.Sleep(10 * time.Millisecond)
	if ran.Load() {
		t.Fatal("deferred task ran without Get")
	}
	f.Get()
	if !ran.Load() {
		t.Fatal("deferred task did not run on Get")
	}
}

func TestPolicyString(t *testing.T) {
	for p, want := range map[Policy]string{
		Async: "async", Sync: "sync", Fork: "fork",
		Deferred: "deferred", Optional: "optional", Policy(42): "policy(42)",
	} {
		if p.String() != want {
			t.Errorf("String() = %q want %q", p.String(), want)
		}
	}
	for _, s := range []string{"async", "sync", "fork", "deferred", "optional"} {
		p, err := ParsePolicy(s)
		if err != nil || p.String() != s {
			t.Errorf("ParsePolicy(%q) = %v, %v", s, p, err)
		}
	}
	if _, err := ParsePolicy("bogus"); err == nil {
		t.Error("ParsePolicy accepted bogus")
	}
}

func TestPanicPropagation(t *testing.T) {
	rt := newTestRuntime(t, 2)
	f := AsyncF(rt, func() int { panic("boom") })
	// Err exposes the panic without re-panicking, carrying the original
	// value and the task's stack.
	pe, ok := f.Err().(*PanicError)
	if !ok {
		t.Fatalf("Err() = %v, want *PanicError", f.Err())
	}
	if pe.Value != "boom" {
		t.Fatalf("PanicError.Value = %v, want boom", pe.Value)
	}
	if len(pe.Stack) == 0 {
		t.Fatal("PanicError.Stack is empty")
	}
	// Get re-raises the same *PanicError.
	defer func() {
		r := recover()
		if r != pe {
			t.Fatalf("recovered %v, want the future's *PanicError", r)
		}
	}()
	f.Get()
	t.Fatal("Get did not re-panic")
}

func TestWaitAll(t *testing.T) {
	rt := newTestRuntime(t, 2)
	fs := make([]*Future[int], 10)
	for i := range fs {
		i := i
		fs[i] = AsyncF(rt, func() int { return i * i })
	}
	WaitAllOf(fs)
	vals := GetAll(fs)
	for i, v := range vals {
		if v != i*i {
			t.Fatalf("vals[%d] = %d", i, v)
		}
	}
}

func TestGetFromNonWorker(t *testing.T) {
	rt := newTestRuntime(t, 1)
	f := AsyncF(rt, func() int {
		time.Sleep(5 * time.Millisecond)
		return 9
	})
	if got := f.Get(); got != 9 { // main goroutine parks on channel
		t.Fatalf("Get = %d", got)
	}
}

func TestShutdownIdempotentAndSpawnAfter(t *testing.T) {
	rt := New(WithWorkers(2))
	rt.Shutdown()
	rt.Shutdown() // must not hang or panic
	// Spawning after shutdown falls back to deferred execution.
	f := AsyncF(rt, func() int { return 3 })
	if got := f.Get(); got != 3 {
		t.Fatalf("post-shutdown Get = %d", got)
	}
}

func TestSubmitAfterClose(t *testing.T) {
	rt := New(WithWorkers(1))
	rt.Shutdown()
	if err := rt.submit(&task{}); err != ErrClosed {
		t.Fatalf("submit after close = %v", err)
	}
}

func TestNumWorkersAndLocality(t *testing.T) {
	rt := New(WithWorkers(3), WithLocality(5))
	defer rt.Shutdown()
	if rt.NumWorkers() != 3 || rt.Locality() != 5 {
		t.Fatalf("NumWorkers=%d Locality=%d", rt.NumWorkers(), rt.Locality())
	}
}

func TestWorkStealingHappens(t *testing.T) {
	rt := newTestRuntime(t, 4)
	// A single task fans out many children from one worker; with 4
	// workers, some children must be stolen.
	root := AsyncF(rt, func() int {
		fs := make([]*Future[int], 64)
		for i := range fs {
			fs[i] = AsyncF(rt, func() int {
				time.Sleep(time.Millisecond)
				return 1
			})
		}
		total := 0
		for _, f := range fs {
			total += f.Get()
		}
		return total
	})
	if got := root.Get(); got != 64 {
		t.Fatalf("root = %d", got)
	}
	var stolen int64
	for _, w := range rt.workers {
		stolen += w.metrics.stolen.Load()
	}
	if stolen == 0 {
		t.Fatal("no tasks were stolen despite fan-out across 4 workers")
	}
}

func TestGoroutineID(t *testing.T) {
	id1 := goroutineID()
	if id1 == 0 {
		t.Fatal("goroutineID returned 0")
	}
	if id2 := goroutineID(); id2 != id1 {
		t.Fatalf("unstable id: %d then %d", id1, id2)
	}
	ch := make(chan uint64)
	go func() { ch <- goroutineID() }()
	if other := <-ch; other == id1 {
		t.Fatal("two goroutines share an id")
	}
}
