package taskrt

// Cancellation trees: tasks spawned with SpawnOptions.Ctx carry a
// context.Context, and every task they spawn — directly or through any
// depth of plain Spawn calls — inherits that scope automatically.
// Cancelling the root context therefore cancels the whole subtree:
// tasks that have not started yet are dropped at dispatch (counted in
// /runtime{locality#L/total}/count/cancelled, never run), and running
// tasks observe ctx.Err() cooperatively. A future whose task was
// dropped reports ErrCancelled through Err/GetErr.
//
// This is the runtime-intrinsic recovery half of the paper's thesis:
// the same scheduler that measures pathological behaviour (stalls,
// backlogs — see watchdog.go) is the layer that can actually stop it,
// because it sits under every task.

import (
	"context"
	"errors"
	"fmt"
)

// ErrCancelled is reported by a future whose task was dropped because
// its cancellation scope ended before the task body ran.
var ErrCancelled = errors.New("taskrt: task cancelled")

// PanicError wraps a panic raised inside a task body: the original
// panic value plus the stack of the panicking task goroutine, captured
// at recovery time. Future.Get re-raises it; Future.Err returns it.
type PanicError struct {
	// Value is the original value passed to panic.
	Value any
	// Stack is the panicking task's stack trace (debug.Stack form).
	Stack []byte
}

// Error implements error.
func (e *PanicError) Error() string {
	return fmt.Sprintf("taskrt: task panicked: %v", e.Value)
}

// CurrentContext returns the cancellation scope of the task executing
// the call — the same ambient scope plain Spawn inherits — or
// context.Background() off a worker or inside a scope-less task. It is
// how a task body hands its own life to work the runtime cannot see:
// pass it to agas.SpawnRemoteCtx and cancelling the local task tree
// cancels (and deadline-bounds) the remote spawn too.
func (rt *Runtime) CurrentContext() context.Context {
	// curCtx is only mutated by the worker goroutine itself, and this
	// call runs on that goroutine when a task body makes it.
	if w := rt.currentWorker(); w != nil && w.curCtx != nil {
		return w.curCtx
	}
	return context.Background()
}

// Err waits for the future and reports how it completed: nil for a
// normal completion, ErrCancelled if the task was dropped by its
// cancellation scope, or a *PanicError if the task body panicked.
// Unlike Get it never re-panics, so library code can diagnose a failed
// task without a recover.
func (f *Future[T]) Err() error {
	f.Wait()
	return f.err
}

// GetErr waits for the future and returns the value together with the
// completion error (see Err). On cancellation or panic the value is the
// zero value of T.
func (f *Future[T]) GetErr() (T, error) {
	f.Wait()
	return f.value, f.err
}

// WaitContext waits until the future completes or ctx is done,
// whichever comes first, returning nil or ctx.Err() respectively. On a
// worker goroutine the wait helps execute other pending tasks, like
// Wait. Abandoning the wait does not cancel the task: the task's own
// spawn context governs that.
func (f *Future[T]) WaitContext(ctx context.Context) error {
	if f.state.Load() == futDone {
		return nil
	}
	if err := ctx.Err(); err != nil {
		return err
	}
	w := f.rt.currentWorker()
	if f.deferred && f.state.Load() == futCreated {
		// Deferred: the first waiter runs the task inline.
		runOn(w, f.rt, &f.task)
		if f.state.Load() == futDone {
			return nil
		}
	}
	if w != nil {
		if !f.rt.helpWaitTask(w, &f.task, ctx.Done()) {
			return ctx.Err()
		}
		return nil
	}
	select {
	case <-f.waitChan():
		f.settleDone()
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}
