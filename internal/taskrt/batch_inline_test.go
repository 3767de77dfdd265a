package taskrt

import (
	"context"
	"errors"
	"sync/atomic"
	"testing"
)

// intBodies builds n task bodies that each bump ran and return their
// index, for order-preservation checks.
func intBodies(n int, ran *atomic.Int64) []func() int {
	fns := make([]func() int, n)
	for i := range fns {
		i := i
		fns[i] = func() int { ran.Add(1); return i }
	}
	return fns
}

// TestBatchExternalCaller drives a batch spawn from a non-worker goroutine:
// the batch takes the injector bulk-push path and every future must
// resolve to its own body's value, in order.
func TestBatchExternalCaller(t *testing.T) {
	rt := newTestRuntime(t, 2)
	var ran atomic.Int64
	const n = 64
	fs := AsyncBatch(rt, intBodies(n, &ran))
	for i, f := range fs {
		if got := f.Get(); got != i {
			t.Fatalf("future %d resolved to %d", i, got)
		}
	}
	if got := ran.Load(); got != n {
		t.Fatalf("%d bodies ran, want %d", got, n)
	}
}

// TestBatchWorkerCaller drives a batch spawn from inside a task: the batch
// is published as one Chase–Lev deque window on the spawning worker.
func TestBatchWorkerCaller(t *testing.T) {
	rt := newTestRuntime(t, 1)
	var ran atomic.Int64
	const n = 100
	root := AsyncF(rt, func() int {
		fs := SpawnBatchWith(rt, SpawnOptions{Policy: Async}, intBodies(n, &ran))
		sum := 0
		for _, f := range fs {
			sum += f.Get()
		}
		return sum
	})
	if got, want := root.Get(), n*(n-1)/2; got != want {
		t.Fatalf("batch sum = %d, want %d", got, want)
	}
	if got := ran.Load(); got != n {
		t.Fatalf("%d bodies ran, want %d", got, n)
	}
}

// TestBatchStealPath publishes a wide batch window from one worker in a
// multi-worker pool while the other workers are idle: thieves must be
// able to drain the window (the one-store bottom publish still hands
// every slot to popFront), so the whole batch completes.
func TestBatchStealPath(t *testing.T) {
	rt := newTestRuntime(t, 4)
	var ran atomic.Int64
	const n = 256
	root := AsyncF(rt, func() int {
		fs := AsyncBatch(rt, intBodies(n, &ran))
		WaitAllOf(fs)
		ok := 0
		for i, f := range fs {
			if f.Get() == i {
				ok++
			}
		}
		return ok
	})
	if got := root.Get(); got != n {
		t.Fatalf("%d futures carried the right value, want %d", got, n)
	}
	if got := ran.Load(); got != n {
		t.Fatalf("%d bodies ran, want %d", got, n)
	}
}

// TestBatchNonAsyncPolicies: Sync/Fork batches run at the spawn point,
// Deferred batches run at first Wait — per-task semantics are kept.
func TestBatchNonAsyncPolicies(t *testing.T) {
	rt := newTestRuntime(t, 2)
	for _, p := range []Policy{Sync, Fork} {
		var ran atomic.Int64
		fs := SpawnBatchWith(rt, SpawnOptions{Policy: p}, intBodies(8, &ran))
		if got := ran.Load(); got != 8 {
			t.Fatalf("%v batch: %d bodies ran at spawn, want 8", p, got)
		}
		for i, f := range fs {
			if got := f.Get(); got != i {
				t.Fatalf("%v future %d resolved to %d", p, i, got)
			}
		}
	}
	var ran atomic.Int64
	fs := SpawnBatchWith(rt, SpawnOptions{Policy: Deferred}, intBodies(8, &ran))
	if got := ran.Load(); got != 0 {
		t.Fatalf("Deferred batch: %d bodies ran before Wait", got)
	}
	for i, f := range fs {
		if got := f.Get(); got != i {
			t.Fatalf("Deferred future %d resolved to %d", i, got)
		}
	}
}

// TestBatchEmpty: a zero-length batch is a no-op, not a panic.
func TestBatchEmpty(t *testing.T) {
	rt := newTestRuntime(t, 1)
	if fs := AsyncBatch[int](rt, nil); len(fs) != 0 {
		t.Fatalf("empty batch returned %d futures", len(fs))
	}
}

// TestBatchAfterShutdown: a batch spawned after Shutdown falls back to
// deferred execution — every future still completes when queried.
func TestBatchAfterShutdown(t *testing.T) {
	rt := New(WithWorkers(1))
	rt.Shutdown()
	var ran atomic.Int64
	fs := AsyncBatch(rt, intBodies(8, &ran))
	for i, f := range fs {
		if got := f.Get(); got != i {
			t.Fatalf("future %d resolved to %d after shutdown", i, got)
		}
	}
	if got := ran.Load(); got != 8 {
		t.Fatalf("%d bodies ran, want 8", got)
	}
}

// TestBatchCancelDeadOnArrival: a batch spawned under an already-dead
// scope drops every member before any body runs, with each drop counted
// in the cancelled counter — no more, no fewer.
func TestBatchCancelDeadOnArrival(t *testing.T) {
	rt := newTestRuntime(t, 2)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	var ran atomic.Int64
	const n = 50
	fs := SpawnBatchWith(rt, SpawnOptions{Ctx: ctx}, intBodies(n, &ran))
	for i, f := range fs {
		if err := f.Err(); !errors.Is(err, ErrCancelled) {
			t.Fatalf("future %d: Err() = %v, want ErrCancelled", i, err)
		}
	}
	if got := ran.Load(); got != 0 {
		t.Fatalf("%d bodies ran under dead scope", got)
	}
	if got := rt.Cancelled(); got != n {
		t.Fatalf("Cancelled() = %d, want exactly %d", got, n)
	}
}

// TestBatchCancelDropsQueued: a scope that dies while a batch sits in
// the queues drops each member at dispatch, counted exactly.
func TestBatchCancelDropsQueued(t *testing.T) {
	rt := newTestRuntime(t, 1)
	release := gateWorkers(t, rt)
	ctx, cancel := context.WithCancel(context.Background())
	var ran atomic.Int64
	const n = 120
	fs := SpawnBatchWith(rt, SpawnOptions{Ctx: ctx}, intBodies(n, &ran))
	cancel()
	release()
	for i, f := range fs {
		if err := f.Err(); !errors.Is(err, ErrCancelled) {
			t.Fatalf("future %d: Err() = %v, want ErrCancelled", i, err)
		}
	}
	if got := ran.Load(); got != 0 {
		t.Fatalf("%d bodies ran after cancel", got)
	}
	if got := rt.Cancelled(); got != n {
		t.Fatalf("Cancelled() = %d, want exactly %d", got, n)
	}
}

// seedInlineRuntime builds a 1-worker runtime with adaptive inlining on
// and the spawn-cost EWMAs pre-seeded, so the inline threshold is a
// known 4×(500+500) = 4000 ns without a warm-up phase.
func seedInlineRuntime(t *testing.T) *Runtime {
	t.Helper()
	rt := New(WithWorkers(1), WithAdaptiveInlining())
	t.Cleanup(rt.Shutdown)
	rt.submitCostNs.Store(500)
	rt.dispatchCostNs.Store(500)
	if thr := rt.InlineThresholdNs(); thr != 4000 {
		t.Fatalf("seeded InlineThresholdNs() = %d, want 4000", thr)
	}
	return rt
}

// TestAdaptiveInlineRuns: with the policy on, a measured threshold, a
// grain hint below it and a backlog covering the pool, a grain-hinted
// spawn runs inline at the spawn point — complete before the spawn call
// returns, and counted in /grain/inlined.
func TestAdaptiveInlineRuns(t *testing.T) {
	rt := seedInlineRuntime(t)
	root := AsyncF(rt, func() int {
		// One queued task is backlog >= the 1-worker pool: inlining no
		// longer trades away parallelism.
		backlog := AsyncF(rt, func() int { return 1 })
		inlinedBefore := rt.GrainInlined()
		f := SpawnWith(rt, SpawnOptions{GrainNs: 100}, func() int { return 7 })
		if !f.Ready() {
			t.Error("inline-eligible spawn did not complete at the spawn point")
		}
		if got := rt.GrainInlined(); got != inlinedBefore+1 {
			t.Errorf("GrainInlined() = %d, want %d", got, inlinedBefore+1)
		}
		return f.Get() + backlog.Get()
	})
	if got := root.Get(); got != 8 {
		t.Fatalf("root = %d, want 8", got)
	}
}

// TestAdaptiveInlineRequiresBacklog: with idle capacity in the pool the
// same spawn must be enqueued, not inlined — the policy trades overhead,
// never parallelism.
func TestAdaptiveInlineRequiresBacklog(t *testing.T) {
	rt := seedInlineRuntime(t)
	root := AsyncF(rt, func() int {
		// No backlog: pending is 0 while this root runs.
		inlinedBefore := rt.GrainInlined()
		spawnedBefore := rt.GrainSpawned()
		f := SpawnWith(rt, SpawnOptions{GrainNs: 100}, func() int { return 3 })
		if got := rt.GrainInlined(); got != inlinedBefore {
			t.Errorf("GrainInlined() = %d, want %d (no backlog)", got, inlinedBefore)
		}
		if got := rt.GrainSpawned(); got != spawnedBefore+1 {
			t.Errorf("GrainSpawned() = %d, want %d", got, spawnedBefore+1)
		}
		return f.Get()
	})
	if got := root.Get(); got != 3 {
		t.Fatalf("root = %d, want 3", got)
	}
}

// TestAdaptiveInlineCancelledScope is the inline-run × cancellation
// test: a child that the adaptive policy would run inline must still be
// dropped at dispatch — body never runs — when its inherited scope is
// already dead, with the drop (and nothing else) in /count/cancelled.
func TestAdaptiveInlineCancelledScope(t *testing.T) {
	rt := seedInlineRuntime(t)
	ctx, cancel := context.WithCancel(context.Background())
	var childRan atomic.Bool
	root := SpawnWith(rt, SpawnOptions{Ctx: ctx}, func() int {
		backlog := SpawnWith(rt, SpawnOptions{GrainNs: 100}, func() int { return 1 })
		_ = backlog // queued before the cancel; dropped at its own dispatch
		cancel()    // the scope dies while this task runs
		cancelledBefore := rt.Cancelled()
		inlinedBefore := rt.GrainInlined()
		child := SpawnWith(rt, SpawnOptions{GrainNs: 100}, func() int { childRan.Store(true); return 1 })
		if err := child.Err(); !errors.Is(err, ErrCancelled) {
			t.Errorf("inline child Err() = %v, want ErrCancelled", err)
		}
		if got := rt.Cancelled(); got != cancelledBefore+1 {
			t.Errorf("Cancelled() = %d, want %d (exactly the inline child)", got, cancelledBefore+1)
		}
		if got := rt.GrainInlined(); got != inlinedBefore {
			t.Errorf("GrainInlined() = %d, want %d (a dropped child is not an inlined child)", got, inlinedBefore)
		}
		return 9
	})
	if got := root.Get(); got != 9 {
		t.Fatalf("root = %d, want 9", got)
	}
	if childRan.Load() {
		t.Fatal("inline child body ran under dead scope")
	}
}

// TestBatchInlineSplit: below the grain threshold a batch enqueues only
// enough members to feed idle workers and inlines the rest. With a
// 1-worker pool already backlogged, that is the whole batch.
func TestBatchInlineSplit(t *testing.T) {
	rt := seedInlineRuntime(t)
	var ran atomic.Int64
	root := AsyncF(rt, func() int {
		backlog := AsyncF(rt, func() int { return 0 })
		inlinedBefore := rt.GrainInlined()
		const n = 8
		fs := AsyncBatchGrain(rt, 100, intBodies(n, &ran))
		for i, f := range fs {
			if !f.Ready() {
				t.Errorf("batch member %d not complete at the spawn point", i)
			}
		}
		if got := rt.GrainInlined(); got != inlinedBefore+n {
			t.Errorf("GrainInlined() = %d, want %d", got, inlinedBefore+n)
		}
		sum := 0
		for _, f := range fs {
			sum += f.Get()
		}
		return sum + backlog.Get()
	})
	if got, want := root.Get(), 8*7/2; got != want {
		t.Fatalf("root = %d, want %d", got, want)
	}
}

// TestBatchInlineCancelledScope: the batch analogue of the inline ×
// cancellation test — a dead scope drops every member of a batch the
// policy would have inlined, each counted.
func TestBatchInlineCancelledScope(t *testing.T) {
	rt := seedInlineRuntime(t)
	ctx, cancel := context.WithCancel(context.Background())
	var ran atomic.Int64
	root := AsyncF(rt, func() int {
		_ = SpawnWith(rt, SpawnOptions{GrainNs: 100}, func() int { return 1 }) // backlog
		cancel()
		cancelledBefore := rt.Cancelled()
		const n = 16
		fs := SpawnBatchWith(rt, SpawnOptions{Ctx: ctx}, intBodies(n, &ran))
		for i, f := range fs {
			if err := f.Err(); !errors.Is(err, ErrCancelled) {
				t.Errorf("member %d: Err() = %v, want ErrCancelled", i, err)
			}
		}
		if got := rt.Cancelled(); got != cancelledBefore+n {
			t.Errorf("Cancelled() = %d, want %d", got, cancelledBefore+n)
		}
		return 1
	})
	if root.Get() != 1 {
		t.Fatal("root failed")
	}
	if got := ran.Load(); got != 0 {
		t.Fatalf("%d batch bodies ran under dead scope", got)
	}
}

// TestReleaseRecycles: Release returns a completed future to the spawn
// pool; a double Release is a harmless no-op.
func TestReleaseRecycles(t *testing.T) {
	rt := newTestRuntime(t, 1)
	f := AsyncF(rt, func() int { return 42 })
	if got := f.Get(); got != 42 {
		t.Fatalf("Get = %d", got)
	}
	f.Release()
	f.Release() // second call must not double-pool or panic

	fs := make([]*Future[int], 32)
	for i := range fs {
		i := i
		fs[i] = AsyncF(rt, func() int { return i })
	}
	for i, f := range fs {
		if got := f.Get(); got != i {
			t.Fatalf("recycled future %d resolved to %d", i, got)
		}
	}
	ReleaseAll(fs)
}

// TestSpawnGetAllocFree asserts the fused-lifecycle guarantee: once the
// worker's free list is warm, the Spawn→Get→Release steady state on a
// worker allocates nothing — the future is the task is the free-list
// object, and the help-first Get never builds a wait channel.
func TestSpawnGetAllocFree(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector instruments allocations")
	}
	rt := newTestRuntime(t, 1)
	body := func() int { return 1 }
	root := AsyncF(rt, func() float64 {
		for i := 0; i < 64; i++ { // warm the worker's free list
			f := AsyncF(rt, body)
			f.Get()
			f.Release()
		}
		return testing.AllocsPerRun(100, func() {
			f := AsyncF(rt, body)
			f.Get()
			f.Release()
		})
	})
	if got := root.Get(); got != 0 {
		t.Errorf("Spawn→Get→Release steady state allocates %.1f objects/op, want 0", got)
	}
}
