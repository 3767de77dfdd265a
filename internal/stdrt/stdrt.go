// Package stdrt reproduces the execution model of GCC's std::async that
// the paper uses as its baseline: one operating-system thread per task,
// created at launch and destroyed at completion, with kernel-mediated
// scheduling and an 8 MiB stack reservation per thread.
//
// On this reproduction's host the model is realised with one goroutine
// per task: every live task accounts a virtual 8 MiB stack reservation,
// and when the reserved virtual memory exceeds the address-space budget
// of the paper's node the runtime fails the launch — exactly the
// failure mode the paper observes for NQueens, Health, Fib and UTS,
// where 80k–97k live pthreads exhaust the machine before the benchmark
// completes. The substitution is documented in DESIGN.md §5.
package stdrt

import (
	"errors"
	"fmt"
	"sync/atomic"

	"repro/internal/core"
)

const (
	// stackBytes is the virtual-memory reservation per live thread
	// (glibc default: 8 MiB).
	stackBytes = 8 << 20
	// threadCeiling is the number of live threads the address-space
	// budget holds. The paper's node has 128 GiB RAM; with kernel and
	// allocator overheads ≈ 90k live 8 MiB-stacked threads are the
	// observed ceiling.
	threadCeiling = 90000
)

// ErrResourcesExhausted is the failure std::async surfaces (as
// std::system_error) when no further thread can be created.
var ErrResourcesExhausted = errors.New("stdrt: resource temporarily unavailable (thread limit)")

// Runtime is the thread-per-task runtime.
type Runtime struct {
	// memoryLimit is the address-space budget; launches that would
	// exceed it fail with ErrResourcesExhausted.
	memoryLimit int64

	live     atomic.Int64
	peak     atomic.Int64
	launched atomic.Int64
	failed   atomic.Int64
}

// New creates a runtime with the paper's thread ceiling.
func New() *Runtime {
	return &Runtime{memoryLimit: threadCeiling * stackBytes}
}

// Future holds the result of one thread-backed task.
type Future[T any] struct {
	done  chan struct{}
	value T
	err   error
	panic any
}

// Spawn launches fn on its own "thread". A nil error return means the
// thread was created; the returned future's Get re-raises task panics and
// returns ErrResourcesExhausted errors recorded at launch.
func Spawn[T any](rt *Runtime, fn func() T) *Future[T] {
	f := &Future[T]{done: make(chan struct{})}
	// Account the stack reservation before the thread exists, as the
	// kernel would.
	reserved := rt.live.Add(1) * stackBytes
	if reserved > rt.memoryLimit {
		rt.live.Add(-1)
		rt.failed.Add(1)
		f.err = fmt.Errorf("%w: %d live threads reserve %d bytes",
			ErrResourcesExhausted, rt.live.Load(), reserved)
		close(f.done)
		return f
	}
	rt.launched.Add(1)
	for {
		p := rt.peak.Load()
		cur := rt.live.Load()
		if cur <= p || rt.peak.CompareAndSwap(p, cur) {
			break
		}
	}
	go func() {
		defer func() {
			rt.live.Add(-1)
			if r := recover(); r != nil {
				f.panic = r
			}
			close(f.done)
		}()
		f.value = fn()
	}()
	return f
}

// Get waits for the task and returns its value. It re-raises task panics;
// a launch failure panics with the recorded error, matching the
// std::system_error abort the paper's baseline exhibits.
func (f *Future[T]) Get() T {
	<-f.done
	if f.err != nil {
		panic(f.err)
	}
	if f.panic != nil {
		panic(f.panic)
	}
	return f.value
}

// Err returns the launch error, if any, without waiting.
func (f *Future[T]) Err() error {
	select {
	case <-f.done:
		return f.err
	default:
		return nil
	}
}

// Wait blocks until completion or launch failure.
func (f *Future[T]) Wait() { <-f.done }

// Ready reports whether Get would not block.
func (f *Future[T]) Ready() bool {
	select {
	case <-f.done:
		return true
	default:
		return false
	}
}

// Live returns the number of currently live task threads.
func (rt *Runtime) Live() int64 { return rt.live.Load() }

// Peak returns the high-water mark of live threads.
func (rt *Runtime) Peak() int64 { return rt.peak.Load() }

// Launched returns the cumulative number of threads created.
func (rt *Runtime) Launched() int64 { return rt.launched.Load() }

// Failed returns the number of launches rejected for resource exhaustion.
func (rt *Runtime) Failed() int64 { return rt.failed.Load() }

// RegisterCounters exposes the baseline's thread statistics through the
// same counter framework, under the /stdthreads object:
//
//	/stdthreads{locality#0/total}/count/live
//	/stdthreads{locality#0/total}/count/peak
//	/stdthreads{locality#0/total}/count/launched
//	/stdthreads{locality#0/total}/count/failed
//	/stdthreads{locality#0/total}/memory/stack-reserved
func (rt *Runtime) RegisterCounters(reg *core.Registry) error {
	specs := []struct {
		counter, help, unit string
		read                func() int64
		reset               func()
	}{
		{"count/live", "live task threads", core.UnitEvents, rt.Live, nil},
		{"count/peak", "peak live task threads", core.UnitEvents, rt.Peak,
			func() { rt.peak.Store(rt.live.Load()) }},
		{"count/launched", "cumulative threads created", core.UnitEvents, rt.Launched,
			func() { rt.launched.Store(0) }},
		{"count/failed", "launches rejected for resource exhaustion", core.UnitEvents, rt.Failed,
			func() { rt.failed.Store(0) }},
		{"memory/stack-reserved", "virtual memory reserved for thread stacks", core.UnitBytes,
			func() int64 { return rt.live.Load() * stackBytes }, nil},
	}
	for _, s := range specs {
		if err := reg.Register(core.NewLocalityFunc("stdthreads", s.counter, 0, s.help, s.unit, s.read, s.reset)); err != nil {
			return err
		}
	}
	return nil
}
