package taskrt

import "time"

// Continuations: hpx::future::then and hpx::when_all equivalents. A
// continuation schedules automatically when its antecedent completes,
// without a blocked waiter — the composition style HPX programs use to
// avoid suspension entirely.

// Then schedules fn to run with f's value once f completes, under the
// given policy, and returns the continuation's future. If f is already
// complete, the continuation is spawned immediately; otherwise a
// lightweight watcher task performs the wait (on a worker it helps run
// other tasks, so no OS thread blocks beyond the pool).
func Then[T, U any](f *Future[T], policy Policy, fn func(T) U) *Future[U] {
	// Sync/Fork block the spawning goroutine on the antecedent, which
	// is the documented semantic of those policies; Async/Deferred
	// defer the wait to the pool or to the consumer.
	return Spawn(f.rt, policy, func() U {
		return fn(f.Get())
	})
}

// WhenAll returns a future that completes when every given future has
// completed (hpx::when_all). The returned future carries no value; use
// GetAll for homogeneous value collection.
func WhenAll(rt *Runtime, fs ...Waiter) *Future[struct{}] {
	return Spawn(rt, Async, func() struct{} {
		for _, f := range fs {
			f.Wait()
		}
		return struct{}{}
	})
}

// WhenAny returns a future resolving to the index of the first future
// observed complete (hpx::when_any). With none complete it polls by
// helping the scheduler, so a worker spent here still makes progress.
func WhenAny(rt *Runtime, fs ...Waiter) *Future[int] {
	return Spawn(rt, Async, func() int {
		for {
			for i, f := range fs {
				if f.Ready() {
					return i
				}
			}
			// Make progress instead of spinning: run one pending task
			// if on a worker; otherwise back off briefly.
			if w := rt.currentWorker(); w != nil {
				if t := w.find(); t != nil {
					w.executeInline(t, nanotime())
					continue
				}
			}
			if len(fs) == 1 {
				fs[0].Wait()
				return 0
			}
			time.Sleep(20 * time.Microsecond)
		}
	})
}
