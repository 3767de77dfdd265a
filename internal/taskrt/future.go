package taskrt

import (
	"context"
	"fmt"
	"runtime"
	"runtime/debug"
)

// Policy selects how an Async task is launched, mirroring HPX's launch
// policies (the paper evaluates async, deferred, fork and optional).
type Policy int

const (
	// Async schedules the task for asynchronous execution on the pool
	// (HPX launch::async) — the policy the paper found fastest and used
	// for all reported results.
	Async Policy = iota
	// Sync executes the task immediately on the calling goroutine
	// (HPX launch::sync).
	Sync
	// Fork executes the task eagerly at the spawn point, approximating
	// HPX launch::fork's continuation stealing (see package docs).
	Fork
	// Deferred delays execution until the first Get/Wait, which then runs
	// the task inline (HPX launch::deferred).
	Deferred
	// Optional lets the runtime choose; it behaves like Async.
	Optional
)

// String returns the policy name.
func (p Policy) String() string {
	switch p {
	case Async:
		return "async"
	case Sync:
		return "sync"
	case Fork:
		return "fork"
	case Deferred:
		return "deferred"
	case Optional:
		return "optional"
	default:
		return fmt.Sprintf("policy(%d)", int(p))
	}
}

// ParsePolicy converts a policy name as used on benchmark command lines.
func ParsePolicy(s string) (Policy, error) {
	switch s {
	case "async":
		return Async, nil
	case "sync":
		return Sync, nil
	case "fork":
		return Fork, nil
	case "deferred":
		return Deferred, nil
	case "optional":
		return Optional, nil
	default:
		return Async, fmt.Errorf("taskrt: unknown launch policy %q", s)
	}
}

const (
	futCreated int32 = iota
	futRunning
	futDone
)

// Future holds the eventual result of an Async call. The zero value is
// not usable; futures are created by Spawn.
//
// The future IS the task: the scheduling core (the embedded task) and
// the typed result live in one object, so a spawn costs a single
// allocation — or none at all once the consumer recycles completed
// futures with Release, which is what keeps the Spawn→Get steady state
// at zero allocations per task.
type Future[T any] struct {
	task
	// fn is the task body; cleared on Release.
	fn func() T
	// value is the result, valid once the task completed with a nil err.
	value T
}

// maxFreeFutures bounds one worker's free list of one result type: a
// 256-wide wave, the widest fan-out the project's loops release at once.
const maxFreeFutures = 256

// futureList is one worker's LIFO of released futures of one result
// type. Only the worker's own goroutine touches it, so pushes and pops
// are plain slice operations.
type futureList struct {
	key  any     // (*Future[T])(nil) of the list's result type T
	free []*task // released futures; each runner is a *Future[T]
}

// futuresOf returns w's free list of result type T, creating it on
// first use; nil when w is nil (a caller outside the pool), so spawns
// there allocate and releases there leave the future to the GC. The
// key's type word is the *Future[T] type descriptor, one per T.
func futuresOf[T any](w *worker) *futureList {
	if w == nil {
		return nil
	}
	key := any((*Future[T])(nil))
	for _, l := range w.futures {
		if l.key == key {
			return l
		}
	}
	l := &futureList{key: key, free: make([]*task, 0, maxFreeFutures)}
	w.futures = append(w.futures, l)
	return l
}

// newFuture draws a future from l, the spawning worker's free list of
// result type T (allocating when l is nil or empty), and binds it to
// rt. The runner hook — the task's type-erased pointer back to its
// typed future — is installed once, at allocation.
func newFuture[T any](rt *Runtime, l *futureList) *Future[T] {
	var f *Future[T]
	if l != nil && len(l.free) > 0 {
		n := len(l.free) - 1
		f = l.free[n].runner.(*Future[T])
		l.free[n] = nil // a future never released again must not stay reachable
		l.free = l.free[:n]
	} else {
		f = new(Future[T])
		f.runner = f
	}
	f.rt = rt
	return f
}

// Release recycles a completed future into the calling worker's free
// list of its result type, waiting for completion first (a Deferred
// future is executed). After Release the future must not be touched
// again by anyone: the caller is asserting it is the only goroutine
// still holding a reference. Release on an already-released future is
// a no-op. A future released outside the pool, or onto a full list, and
// one never released are simply garbage collected — Release is an
// optimization for spawn-heavy loops, not an obligation.
func (f *Future[T]) Release() {
	f.release(futuresOf[T](f.rt.currentWorker()))
}

// release is Release onto l, the caller's free list (nil off the pool).
func (f *Future[T]) release(l *futureList) {
	if f.state.Load() == futCreated && f.fn == nil {
		// Already released: a live future always has its body installed
		// before it is published, so created-with-no-body can only be a
		// recycled object. Waiting on it would park forever.
		return
	}
	f.Wait()
	// Claiming futDone→futCreated makes a double Release harmless and,
	// because the producer's final store is state=futDone, guarantees
	// the producer side is entirely done with the object.
	if !f.state.CompareAndSwap(futDone, futCreated) {
		return
	}
	var zero T
	f.fn = nil
	f.value = zero
	f.err = nil
	f.ctx = nil
	f.meta = nil
	f.depthNs = 0
	f.deferred = false
	f.doneCh.Store(nil) // complete left the pre-closed sentinel
	if l != nil && len(l.free) < maxFreeFutures {
		l.free = append(l.free, &f.task)
	}
}

// ReleaseAll releases every future in fs (see Release), resolving the
// caller's worker once for the slice.
func ReleaseAll[T any](fs []*Future[T]) {
	if len(fs) == 0 {
		return
	}
	l := futuresOf[T](fs[0].rt.currentWorker())
	for _, f := range fs {
		f.release(l)
	}
}

// SpawnOptions is the general form of a launch; Spawn, AsyncF and the
// AsyncBatch functions are SpawnWith/SpawnBatchWith with some of these
// fixed. The zero value is a plain Async spawn.
type SpawnOptions struct {
	// Ctx is the task's cancellation scope, propagated to every task
	// spawned from inside it. A task whose scope is dead at spawn or
	// dies while the task is queued is dropped without running: its
	// future completes with ErrCancelled and the runtime's cancelled
	// counter is bumped. nil inherits the spawning task's scope, if any.
	// A deadline is a Ctx that carries one: context.WithTimeout with
	// rt.CurrentContext() as the parent keeps the inherited scope.
	Ctx context.Context
	// Policy is the launch policy; the zero value is Async.
	Policy Policy
	// GrainNs is the caller's estimate of the task body's duration in
	// nanoseconds — the hint the adaptive-inline policy compares against
	// the runtime's measured spawn cost (see WithAdaptiveInlining). Pass
	// what the workload knows (a per-element cost, a calibrated kernel
	// grain); 0 means "unknown", falling back to the runtime's own
	// profiled task-duration EWMA.
	GrainNs int64
}

// Spawn launches fn under the given policy on rt and returns a Future for
// its result. Task submission from inside another task lands on the
// submitting worker's own queue (child tasks are executed or stolen in
// LIFO/FIFO order as in HPX's local-priority scheduler). When called from
// inside a task with a cancellation scope, the child joins the parent's
// cancellation tree.
func Spawn[T any](rt *Runtime, policy Policy, fn func() T) *Future[T] {
	return SpawnWith(rt, SpawnOptions{Policy: policy}, fn)
}

// SpawnWith is the one launch path: it launches fn on rt as o describes
// and returns a Future for its result.
func SpawnWith[T any](rt *Runtime, o SpawnOptions, fn func() T) *Future[T] {
	// One worker resolution per spawn: the future's free list and every
	// path below that needs the caller's identity reuse w instead of
	// consulting goroutine id again.
	w := rt.currentWorker()
	f := newFuture[T](rt, futuresOf[T](w))
	f.fn = fn
	// Spawn-path depth (always, for the online span estimator) and
	// causal identity (only while tracing): both need one clock read;
	// with tracing off and an external caller neither is taken.
	if tr := rt.trace.Load(); tr != nil {
		nowNs := nanotime()
		if w != nil {
			f.depthNs = w.spawnDepthNs(nowNs)
		}
		var pcs [siteDepth]uintptr
		runtime.Callers(2, pcs[:])
		f.meta = tr.newMeta(w, nowNs, pcs)
	} else if w != nil {
		f.depthNs = w.spawnDepthNs(nanotime())
	}
	ctx := o.Ctx
	if ctx == nil && w != nil {
		ctx = w.curCtx // join the running task's cancellation tree
	}
	f.ctx = ctx
	if ctx != nil && ctx.Err() != nil {
		// Dead on arrival: dropped before it is ever queued, and
		// accounted exactly like a dispatch-side drop.
		f.drop()
		return f
	}
	switch o.Policy {
	case Sync, Fork:
		// Work-first execution at the spawn point. When on a worker, the
		// execution is accounted as an inline task.
		runOn(w, rt, &f.task)
	case Deferred:
		f.deferred = true
	default: // Async, Optional
		if rt.inlineEligible(w, o.GrainNs) {
			// Adaptive inlining: the task is cheaper to run here than
			// to schedule, by the runtime's own measurement.
			rt.grainInlined.Add(1)
			w.executeInline(&f.task, nanotime())
			return f
		}
		if rt.adaptiveInline {
			rt.grainSpawned.Add(1)
		}
		if err := rt.submitFrom(w, &f.task); err != nil {
			// Runtime shut down: fall back to deferred execution so the
			// future still completes when queried.
			f.deferred = true
		}
	}
	return f
}

// AsyncF is shorthand for Spawn with the Async policy, matching the
// paper's hpx::async usage.
func AsyncF[T any](rt *Runtime, fn func() T) *Future[T] {
	return Spawn(rt, Async, fn)
}

// runOn executes a fused task at the spawn point: as an accounted
// inline task when on a worker of rt, directly on the calling
// goroutine otherwise.
func runOn(w *worker, rt *Runtime, t *task) {
	if w != nil && w.rt == rt {
		w.executeInline(t, nanotime())
	} else {
		t.exec()
	}
}

// exec runs the fused future's body via its type-erased hook. Tasks
// without a runner (constructed directly by tests) are ignored.
func (t *task) exec() {
	if t.runner != nil {
		t.runner.runTask()
	}
}

// runTask executes the task body exactly once and publishes the result.
// A task whose cancellation scope died while it sat in a queue is
// dropped here — at dispatch — without running user code.
func (f *Future[T]) runTask() {
	if f.ctx != nil && f.ctx.Err() != nil {
		f.drop()
		return
	}
	if !f.state.CompareAndSwap(futCreated, futRunning) {
		return // already claimed (raced Deferred Get vs something else)
	}
	defer func() {
		if r := recover(); r != nil {
			if r == ErrCancelled {
				// A Get on a dropped child: the scope died under this
				// body, so it unwinds as cancelled too — no stack.
				f.err = ErrCancelled
			} else {
				f.err = &PanicError{Value: r, Stack: debug.Stack()}
			}
		}
		f.complete()
	}()
	f.value = f.fn()
}

// drop completes the task as cancelled without running the body and
// counts the drop in the runtime's cancelled counter.
func (t *task) drop() {
	if !t.state.CompareAndSwap(futCreated, futRunning) {
		return
	}
	t.err = ErrCancelled
	if t.rt != nil {
		t.rt.cancelled.Add(1)
	}
	t.complete()
}

// complete publishes completion. Ordering matters: the wait-channel
// close comes first and the state store last — it is the producer's
// final touch of the object, so a consumer that observes futDone owns
// the task exclusively and may Release it.
func (t *task) complete() {
	if h := t.doneCh.Swap(closedDoneChan); h != nil && h != closedDoneChan {
		close(h.ch)
	}
	t.state.Store(futDone)
}

// waitChan returns the channel closed at completion, allocating it on
// first use: only waiters that actually park pay for a channel, which
// is what keeps the help-first Spawn→Get loop allocation-free.
func (t *task) waitChan() chan struct{} {
	if h := t.doneCh.Load(); h != nil {
		return h.ch
	}
	h := &doneChan{ch: make(chan struct{})}
	if t.doneCh.CompareAndSwap(nil, h) {
		return h.ch
	}
	return t.doneCh.Load().ch
}

// settleDone spins out the producer's last two stores: the wait channel
// closes just before state=futDone is published, so a channel-woken
// waiter may beat the state store by a few instructions.
func (t *task) settleDone() {
	for t.state.Load() != futDone {
		runtime.Gosched()
	}
}

// Ready reports whether the result is available without blocking.
func (t *task) Ready() bool { return t.state.Load() == futDone }

// Wait blocks until the result is available. On a worker goroutine it
// executes other pending tasks while waiting (help-first stealing); on
// any other goroutine it parks.
func (f *Future[T]) Wait() {
	if f.state.Load() == futDone {
		return
	}
	w := f.rt.currentWorker()
	if f.deferred && f.state.Load() == futCreated {
		// Deferred: the first waiter runs the task inline.
		runOn(w, f.rt, &f.task)
		if f.state.Load() == futDone {
			return
		}
	}
	if w != nil {
		f.rt.helpWaitTask(w, &f.task, nil)
		return
	}
	<-f.waitChan()
	f.settleDone()
}

// Get waits for and returns the result. A panic in the task body is
// re-raised in the caller as a *PanicError carrying the original value
// and the task's stack, as a future's get would rethrow in C++; Get on
// a cancelled future panics with ErrCancelled. A task body that lets
// that panic unwind completes with ErrCancelled itself, without a
// stack, so one drop cancels the chain of joins above it. Use GetErr
// or Err to observe those outcomes without re-panicking.
func (f *Future[T]) Get() T {
	f.Wait()
	if f.err != nil {
		panic(f.err)
	}
	return f.value
}

// WaitAllOf waits for a homogeneous slice of futures, matching
// hpx::wait_all.
func WaitAllOf[T any](fs []*Future[T]) {
	for _, f := range fs {
		f.Wait()
	}
}

// GetAll waits for all futures and collects their values.
func GetAll[T any](fs []*Future[T]) []T {
	out := make([]T, len(fs))
	for i, f := range fs {
		out[i] = f.Get()
	}
	return out
}
