package taskrt

import (
	"context"
	"sync/atomic"
)

// task is one unit of schedulable work: the scheduling core every
// Future[T] embeds as its first field. Fusing the future into the task
// means one object carries a spawn from creation through queueing,
// execution and the consumer's Get — one allocation (or pool round
// trip, see Future.Release) per spawn instead of the former
// future+task+closure triple.
type task struct {
	// runner points back at the typed Future embedding this task; the
	// scheduler calls it to execute the body. Pointer-to-interface
	// conversion happens once, when the future is allocated.
	runner runnable
	// rt is the owning runtime; completion accounting (drop counters)
	// and the consumer-side wait paths need it.
	rt *Runtime
	// ctx is the task's cancellation scope (nil when the task is not
	// cancellable). The worker publishes it as its current scope while
	// the task runs, so tasks spawned from inside inherit it.
	ctx context.Context
	// meta is the task's causal-tracing identity; nil whenever tracing
	// was off at spawn time.
	meta *taskMeta
	// depthNs is the spawn-path depth at spawn time: the critical-path
	// length (in ns of own task time) accumulated from the root to this
	// task's spawn point. Completion depth (depthNs + own duration)
	// feeds the online span estimator behind the
	// /runtime{...}/critical-path counters.
	depthNs int64
	// state is the future lifecycle: futCreated -> futRunning -> futDone.
	// The producer's very last store after a run is state=futDone; a
	// consumer that observes it owns the object exclusively (Release).
	state atomic.Int32
	// doneCh is the lazily-allocated wait channel: only waiters that
	// actually park pay for a channel. After completion it holds the
	// package-wide pre-closed sentinel.
	doneCh atomic.Pointer[doneChan]
	// err is nil after a normal completion, ErrCancelled when the task
	// was dropped because its context died, or a *PanicError when the
	// task body panicked. Written before the completion publication.
	err error
	// deferred marks a Deferred-policy task (first Wait runs it inline)
	// and doubles as the shutdown fallback for spawns that raced Close.
	deferred bool
}

// runnable is the type-erased execution hook of a fused future.
type runnable interface {
	// runTask executes the task body exactly once: dispatch-time
	// cancellation check, claim, run, publish.
	runTask()
}

// doneChan wraps the wait channel so an atomic.Pointer can hold both
// "no waiter yet" (nil) and the pre-closed completion sentinel.
type doneChan struct{ ch chan struct{} }

// closedDoneChan is the sentinel a completed task publishes: any late
// waiter receives immediately without allocating a channel.
var closedDoneChan = func() *doneChan {
	d := &doneChan{ch: make(chan struct{})}
	close(d.ch)
	return d
}()

// deque is a Chase-Lev work-stealing deque (Chase & Lev, SPAA'05; the
// C11 formulation of Lê et al., PPoPP'13). The owning worker pushes and
// pops at the back (LIFO, preserving locality and bounding queue growth
// in recursive decompositions); thieves steal from the front (FIFO,
// taking the oldest - usually largest - task).
//
// The owner's pushBack/popBack never take a lock and never CAS except
// when popping the last remaining element races a thief; thieves CAS
// top once per successful steal. This replaces the seed's mutex deque,
// whose lock round trip dominated the spawn path at Inncabs-scale
// grains (1-10 us).
//
// Elements are stored as atomic pointers: a thief may read a slot that
// the owner concurrently recycles after a wrap-around; the subsequent
// top CAS rejects the stale value, and the atomic access keeps the race
// detector happy (the read-discard is benign by construction).
//
// top only ever grows; bottom grows on push and steps back on pop. The
// buffer is a power-of-two circular array that the owner doubles when
// full; thieves may keep reading a stale buffer, which is safe because
// grow preserves every live index and retired buffers are garbage
// collected, so no index is ever reused for a different task within a
// buffer a thief can still see.
type deque struct {
	top    atomic.Int64
	_      [cacheLineSize - 8]byte // keep thief-side CAS traffic off the owner's line
	bottom atomic.Int64
	_      [cacheLineSize - 8]byte
	buf    atomic.Pointer[dequeBuf]
}

const cacheLineSize = 64

// initialDequeCap must be a power of two.
const initialDequeCap = 64

type dequeBuf struct {
	mask  int64
	slots []atomic.Pointer[task]
}

func newDequeBuf(capacity int64) *dequeBuf {
	return &dequeBuf{mask: capacity - 1, slots: make([]atomic.Pointer[task], capacity)}
}

// pushBack appends a task at the owner's end and reports the new length.
// Owner-only.
func (d *deque) pushBack(t *task) int {
	b := d.bottom.Load()
	tp := d.top.Load()
	buf := d.buf.Load()
	if buf == nil {
		buf = newDequeBuf(initialDequeCap)
		d.buf.Store(buf)
	}
	if b-tp >= int64(len(buf.slots)) {
		buf = d.grow(buf, tp, b)
	}
	buf.slots[b&buf.mask].Store(t)
	d.bottom.Store(b + 1)
	return int(b + 1 - tp)
}

// pushBackN appends a whole batch of tasks at the owner's end with one
// bottom-pointer publish and reports the new length. Owner-only. This
// is the deque half of SpawnBatchWith: thieves cannot see any of the batch
// until the single bottom store, so the reservation window [b, b+n) is
// filled without per-task synchronisation.
func (d *deque) pushBackN(ts []*task) int {
	n := int64(len(ts))
	if n == 0 {
		return d.len()
	}
	b := d.bottom.Load()
	tp := d.top.Load()
	buf := d.buf.Load()
	if buf == nil {
		capacity := int64(initialDequeCap)
		for capacity < n {
			capacity *= 2
		}
		buf = newDequeBuf(capacity)
		d.buf.Store(buf)
	}
	for b-tp+n > int64(len(buf.slots)) {
		buf = d.grow(buf, tp, b)
	}
	for i, t := range ts {
		buf.slots[(b+int64(i))&buf.mask].Store(t)
	}
	d.bottom.Store(b + n)
	return int(b + n - tp)
}

// grow doubles the buffer, copying live elements [tp, b). Owner-only;
// thieves holding the old buffer still see correct values for any index
// they can successfully claim.
func (d *deque) grow(old *dequeBuf, tp, b int64) *dequeBuf {
	nb := newDequeBuf(int64(len(old.slots)) * 2)
	for i := tp; i < b; i++ {
		nb.slots[i&nb.mask].Store(old.slots[i&old.mask].Load())
	}
	d.buf.Store(nb)
	return nb
}

// popBack removes the most recently pushed task. Owner-only; CAS-free
// except when racing thieves for the final element.
func (d *deque) popBack() *task {
	b := d.bottom.Load() - 1
	buf := d.buf.Load()
	if buf == nil {
		return nil
	}
	// Publish the claim on slot b before reading top: a thief that
	// observes the old bottom may still race us for the last element;
	// the CAS below arbitrates.
	d.bottom.Store(b)
	tp := d.top.Load()
	if b < tp {
		// Queue was empty: undo the reservation.
		d.bottom.Store(tp)
		return nil
	}
	t := buf.slots[b&buf.mask].Load()
	if b > tp {
		// More than one element: slot b is exclusively ours.
		buf.slots[b&buf.mask].Store(nil)
		return t
	}
	// Last element: race thieves for it via top.
	if !d.top.CompareAndSwap(tp, tp+1) {
		t = nil // a thief won
	} else {
		buf.slots[b&buf.mask].Store(nil)
	}
	d.bottom.Store(tp + 1)
	return t
}

// popFront removes the oldest task (thief side). Any goroutine. Returns
// nil when empty or when it loses the top CAS to a concurrent pop; the
// caller treats both as "try elsewhere", so a spurious nil only delays,
// never loses, work.
func (d *deque) popFront() *task {
	tp := d.top.Load()
	b := d.bottom.Load()
	if tp >= b {
		return nil
	}
	buf := d.buf.Load()
	if buf == nil {
		return nil
	}
	t := buf.slots[tp&buf.mask].Load()
	if !d.top.CompareAndSwap(tp, tp+1) {
		return nil
	}
	return t
}

// len returns the current queue length (approximate under concurrency,
// exact when quiescent).
func (d *deque) len() int {
	b := d.bottom.Load()
	tp := d.top.Load()
	if n := b - tp; n > 0 {
		return int(n)
	}
	return 0
}
