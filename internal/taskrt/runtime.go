package taskrt

import (
	"context"
	"errors"
	"math/rand"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/core"
)

// Option configures a Runtime.
type Option func(*config)

type config struct {
	workers        int
	locality       int64
	adaptiveInline bool
}

// WithWorkers sets the number of worker goroutines (the paper's
// "OS threads" / cores used). Defaults to runtime.GOMAXPROCS(0).
func WithWorkers(n int) Option {
	return func(c *config) {
		if n > 0 {
			c.workers = n
		}
	}
}

// WithLocality sets the locality id used in counter instance names.
func WithLocality(id int64) Option {
	return func(c *config) { c.locality = id }
}

// Runtime is a lightweight-task scheduler: a fixed pool of workers with
// per-worker lock-free deques, work stealing and a lock-free injection
// queue for submissions from non-worker goroutines.
type Runtime struct {
	workers  []*worker
	injector *injector
	wakeup   *notifier
	wmap     *workerMap
	locality int64
	rng      atomic.Uint64 // xorshift state for victim selection
	limit    atomic.Int64  // concurrency limit; 0 = all workers
	closed   atomic.Bool
	wg       sync.WaitGroup

	// cancelled counts tasks dropped at dispatch because their
	// cancellation scope ended before they ran.
	cancelled atomic.Int64

	// Adaptive-inline state (see inline.go): the policy flag (read-only
	// after New), the self-measured spawn-cost EWMAs, the profiled
	// task-grain EWMA, and the decision counters behind the
	// /runtime{locality#L/total}/grain/* family.
	adaptiveInline bool
	submitCostNs   atomic.Int64 // EWMA: submit-side cost of one single spawn
	dispatchCostNs atomic.Int64 // EWMA: dispatch-side cost of one dequeue
	grainNsEWMA    atomic.Int64 // EWMA: task own-time (profiled grain)
	grainInlined   atomic.Int64 // children run inline by the policy
	grainSpawned   atomic.Int64 // children enqueued while the policy was on

	// Watchdog state: cumulative health-event counts by kind that have
	// no per-worker attribution.
	healthBacklog  atomic.Int64 // backlog_growth events
	healthDeadlock atomic.Int64 // deadlock_suspected events
	healthEvents   atomic.Int64 // all health events
	healthCbErrors atomic.Int64 // OnEvent callbacks that panicked (recovered)

	trace     atomic.Pointer[tracer] // nil when tracing is off
	lastTrace atomic.Pointer[tracer] // the previous session

	// mem backs the /runtime{...}/memory counters (metrics.go).
	mem memStats
}

// worker is one scheduling loop with its own queue.
type worker struct {
	rt      *Runtime
	id      int
	queue   deque
	metrics workerMetrics
	rng     uint64
	// nestedNs accumulates time spent in tasks executed inline within
	// the currently running task (help-first waiting), so each task's
	// recorded duration covers only its own execution — matching HPX,
	// where a suspended thread's wait time is not part of its duration.
	// Only touched from the worker's own goroutine.
	nestedNs int64
	// curCtx is the cancellation scope of the task currently running on
	// this worker (nil between tasks or for scope-less tasks). Tasks
	// spawned from inside inherit it, forming the cancellation tree.
	// Only touched from the worker's own goroutine.
	curCtx context.Context
	// curMeta is the tracing identity of the task currently running on
	// this worker (nil between tasks or for untraced tasks); children
	// spawned from inside its session record it as their parent. Only
	// touched from the worker's own goroutine.
	curMeta *taskMeta
	// curDepthNs is the spawn-path depth of the currently running task,
	// the base the online critical-path estimator extends at every
	// nested spawn. Only touched from the worker's own goroutine.
	curDepthNs int64
	// futures are the worker's free lists of released futures, one per
	// result type (future.go). Only touched from the worker's own
	// goroutine.
	futures []*futureList
	// traceBuf holds the trace events of the tasks staged since the
	// last publish and traceTo the session they belong to (nil when none
	// is staged). Only touched from the worker's own goroutine.
	traceTo  *tracer
	traceBuf []TraceEvent

	// Nothing below holds a pointer, so the GC does not scan it.

	// durHist and ovhHist are per-worker log-bucketed histograms of own
	// task duration and per-task dispatch overhead, backing the
	// percentile counters. Flushed from stage, concurrently snapshotted.
	durHist core.Histogram
	ovhHist core.Histogram
	// stage holds the counter writes of the tasks run since the last
	// publish. Only touched from the worker's own goroutine.
	stage taskStage
}

// taskStage is a worker's unpublished per-task counter block: plain
// sums, the span maximum and the two histograms' staged buckets. The
// worker writes it without atomics and publish moves it into
// workerMetrics and the histograms, which is all a reader sees.
type taskStage struct {
	tasks, inline    int64               // tasks run; of those, run inline
	taskNs, overhead int64               // own task time; scheduling overhead
	spanMaxNs        int64               // max completion depth staged
	firstBeginNs     int64               // begin reading of the first task staged
	dur, ovh         core.HistogramBlock // staged durHist, ovhHist
}

const (
	// publishTasks bounds how many tasks a worker stages before it
	// publishes: a reader's count/cumulative lags a busy worker by at
	// most this many tasks plus the one running.
	publishTasks = 64
	// publishIntervalNs bounds how long a busy worker keeps a task
	// staged, from the begin reading of the block's first task to each
	// task's end reading: a worker running tasks this long or longer
	// publishes every task. A stream of 1 µs bodies runs 64 tasks in
	// ~100 µs on a 2-vCPU VM, so at twice that the task bound is the
	// one that binds at the grain the block is for.
	publishIntervalNs = int64(200 * time.Microsecond)
)

// publish moves the staged block into the counters readers load, and
// the staged trace events into their session, and empties it. The task
// count is added last, so a reader that sees a task counted sees its
// time and its trace event too.
func (w *worker) publish() {
	s, m := &w.stage, &w.metrics
	if w.traceTo != nil {
		w.traceTo.add(w.traceBuf)
		w.traceBuf, w.traceTo = w.traceBuf[:0], nil
	}
	s.dur.FlushTo(&w.durHist)
	s.ovh.FlushTo(&w.ovhHist)
	if s.spanMaxNs > m.spanMaxNs.Load() {
		m.spanMaxNs.Store(s.spanMaxNs)
	}
	m.taskTimeNs.Add(s.taskNs)
	m.overheadNs.Add(s.overhead)
	m.inlineExecuted.Add(s.inline)
	m.tasksExecuted.Add(s.tasks)
	m.publishes.Add(1)
	s.tasks, s.inline, s.taskNs, s.overhead, s.spanMaxNs = 0, 0, 0, 0, 0
}

// ErrClosed is returned by operations on a shut-down runtime.
var ErrClosed = errors.New("taskrt: runtime is shut down")

// New creates and starts a runtime.
func New(opts ...Option) *Runtime {
	cfg := config{workers: runtime.GOMAXPROCS(0)}
	for _, o := range opts {
		o(&cfg)
	}
	rt := &Runtime{
		injector:       newInjector(),
		wakeup:         newNotifier(),
		wmap:           newWorkerMap(),
		locality:       cfg.locality,
		adaptiveInline: cfg.adaptiveInline,
	}
	rt.rng.Store(uint64(time.Now().UnixNano()) | 1)
	rt.workers = make([]*worker, cfg.workers)
	started := make(chan struct{})
	for i := range rt.workers {
		w := &worker{rt: rt, id: i, rng: rand.Uint64() | 1}
		rt.workers[i] = w
		w.metrics.started.Store(nanotime())
	}
	for _, w := range rt.workers {
		rt.wg.Add(1)
		go w.run(started)
	}
	close(started)
	return rt
}

// NumWorkers returns the worker count.
func (rt *Runtime) NumWorkers() int { return len(rt.workers) }

// SetConcurrencyLimit throttles the runtime to at most n active workers
// (n <= 0 or n >= NumWorkers restores full concurrency). Throttled
// workers park; their queued tasks remain stealable. This is the
// runtime-adaptive knob the paper's outlook (APEX) drives from the
// idle-rate counter to trade parallelism for efficiency.
func (rt *Runtime) SetConcurrencyLimit(n int) {
	if n <= 0 || n > len(rt.workers) {
		n = len(rt.workers)
	}
	rt.limit.Store(int64(n))
	rt.wakeup.notify() // release throttled workers if the limit grew
}

// ConcurrencyLimit returns the current limit (NumWorkers when unset).
func (rt *Runtime) ConcurrencyLimit() int {
	if l := rt.limit.Load(); l > 0 {
		return int(l)
	}
	return len(rt.workers)
}

// throttled reports whether the worker is parked out by the limit.
func (w *worker) throttled() bool {
	l := w.rt.limit.Load()
	return l > 0 && int64(w.id) >= l
}

// Locality returns the locality id used in counter names.
func (rt *Runtime) Locality() int64 { return rt.locality }

// Shutdown stops all workers; the queues drain is NOT awaited: the
// caller is expected to have joined its futures (fork/join structure).
// Pending tasks that were never awaited are dropped.
func (rt *Runtime) Shutdown() {
	if rt.closed.Swap(true) {
		return
	}
	// One waiter goroutine observes the pool exit; the loop just
	// re-notifies periodically to cover a worker that was between its
	// closed-flag check and its park when the first notify fired.
	done := make(chan struct{})
	go func() {
		rt.wg.Wait()
		close(done)
	}()
	tick := time.NewTicker(time.Millisecond)
	defer tick.Stop()
	for {
		rt.wakeup.notify()
		select {
		case <-done:
			return
		case <-tick.C:
		}
	}
}

// submit enqueues a task from an arbitrary goroutine, resolving the
// caller's worker identity first. Internal spawn paths that already
// know their worker call submitFrom directly and skip the lookup.
func (rt *Runtime) submit(t *task) error {
	return rt.submitFrom(rt.currentWorker(), t)
}

// submitFrom enqueues a task: onto the submitting worker's own queue
// when w belongs to this runtime, otherwise onto the injection queue.
//
// The push runs inside the spawning task, so it is part of that task's
// own time, as in HPX; it is timed only to feed the adaptive inliner's
// spawn-cost EWMA, before the wakeup, which may hand the CPU over.
func (rt *Runtime) submitFrom(w *worker, t *task) error {
	if rt.closed.Load() {
		return ErrClosed
	}
	var begin int64
	if rt.adaptiveInline {
		begin = nanotime()
	}
	if w != nil && w.rt == rt {
		w.metrics.notePending(w.queue.pushBack(t))
	} else {
		rt.injector.pushBack(t)
	}
	if rt.adaptiveInline {
		rt.noteSubmitCost(nanotime() - begin)
	}
	rt.wakeup.notify()
	return nil
}

// submitBatchFrom enqueues a whole batch as one scheduler transaction:
// one deque window publish (or one injector chain splice from outside
// the pool), one peak update, one wakeup notify.
// Batch submits do not feed the spawn-cost EWMA — the inline threshold
// models the cost of scheduling one child singly, the counterfactual
// the adaptive policy decides against.
func (rt *Runtime) submitBatchFrom(w *worker, ts []*task) error {
	if rt.closed.Load() {
		return ErrClosed
	}
	if len(ts) == 0 {
		return nil
	}
	if w != nil && w.rt == rt {
		w.metrics.notePending(w.queue.pushBackN(ts))
	} else {
		rt.injector.pushBackN(ts)
	}
	rt.wakeup.notify()
	return nil
}

// pendingCount returns the number of tasks queued anywhere: the
// injector plus every worker's deque. It is a sum of lengths, not a
// shared counter, so submit and dequeue touch no common cache line; the
// pending counter, the watchdog and the inliner all read it.
func (rt *Runtime) pendingCount() int64 {
	n := int64(rt.injector.len())
	for _, w := range rt.workers {
		n += int64(w.queue.len())
	}
	return n
}

// Cancelled returns the cumulative number of tasks dropped at dispatch
// because their cancellation scope ended before they ran.
func (rt *Runtime) Cancelled() int64 { return rt.cancelled.Load() }

// run is the worker scheduling loop.
func (w *worker) run(started <-chan struct{}) {
	defer w.rt.wg.Done()
	defer w.publish()
	id := goroutineID()
	w.rt.wmap.register(id, w)
	defer w.rt.wmap.unregister(id)
	<-started

	// searchStart is the reading the current search began at: the
	// previous task's end or the wake-up from a park, never a read of
	// its own. Everything between it and the next task's begin (or the
	// next park) is scheduling overhead, except a spin, which is idle.
	// lastEnd is the previous task's end, where the spin budget of the
	// idle episode that follows it starts; a park does not move it.
	searchStart := nanotime()
	lastEnd := searchStart
	for {
		if w.rt.closed.Load() {
			return
		}
		if w.throttled() {
			gen := w.rt.wakeup.prepare()
			if w.rt.closed.Load() || !w.throttled() {
				w.rt.wakeup.cancel()
				continue
			}
			searchStart = w.park(gen, searchStart)
			continue
		}
		t := w.find()
		if t == nil {
			t, searchStart = w.spin(searchStart, lastEnd, nil, nil)
		}
		if t != nil {
			searchStart = w.execute(t, searchStart)
			lastEnd = searchStart
			continue
		}
		// Nothing anywhere: park until new work arrives.
		gen := w.rt.wakeup.prepare()
		if w.rt.closed.Load() || w.peek() {
			w.rt.wakeup.cancel()
			continue
		}
		searchStart = w.park(gen, searchStart)
	}
}

// park blocks on wakeup generation gen. The time since searchStart is
// charged as overhead and the park itself as idle; the wake-up reading
// is returned as the next search's start.
func (w *worker) park(gen uint64, searchStart int64) int64 {
	now := nanotime()
	w.stage.overhead += now - searchStart
	w.publish()
	w.metrics.parks.Add(1)
	w.metrics.parkedSince.Store(now)
	w.rt.wakeup.wait(gen)
	now = nanotime()
	if since := w.metrics.parkedSince.Swap(0); since != 0 {
		w.metrics.idleNs.Add(now - since)
	}
	return now
}

// find locates a runnable task: own queue (LIFO), injection queue, then
// steal from a random victim (FIFO).
func (w *worker) find() *task {
	t := w.queue.popBack()
	if t == nil {
		t = w.rt.injector.popFront()
	}
	if t == nil {
		t = w.steal()
	}
	return t
}

// spinBudget bounds an idle episode's search before the worker parks or
// a help-first wait falls back to polling. Waking a parked worker costs
// ~60 µs on a 2-vCPU VM, while back-to-back waves leave ~35 µs between
// them; 100 µs spans that gap, and a longer budget measured no better.
const spinBudget = int64(100 * time.Microsecond)

// spin keeps searching after find failed at searchStart, yielding
// between attempts, until spinBudget has passed since lastEnd, the end
// of the worker's last task: the budget is spent once per idle episode,
// so a wait's poll wake-up does not re-arm it. A wait's spin also stops
// when wait is done or abort closes; any spin stops at shutdown. The
// failed search is overhead and the spin idle. It returns the task
// found, if any, and the reading that ends the spin. A spinning worker
// is not a registered sleeper, so notify stays one atomic load. The
// staged counters are published first: a worker about to idle has
// nothing left to batch them with.
func (w *worker) spin(searchStart, lastEnd int64, wait *task, abort <-chan struct{}) (*task, int64) {
	start := nanotime()
	w.stage.overhead += start - searchStart
	w.publish()
	if start-lastEnd >= spinBudget {
		return nil, start
	}
	w.metrics.spins.Add(1)
	now := start
	var t *task
	for now-lastEnd < spinBudget && !w.rt.closed.Load() &&
		(wait == nil || wait.state.Load() != futDone) && !isClosed(abort) {
		runtime.Gosched()
		t = w.find()
		now = nanotime()
		if t != nil {
			break
		}
	}
	w.metrics.idleNs.Add(now - start)
	return t, now
}

// isClosed reports whether ch is closed; a nil channel never is.
func isClosed(ch <-chan struct{}) bool {
	select {
	case <-ch:
		return true
	default:
		return false
	}
}

// peek reports whether any queue holds work, without removing it.
func (w *worker) peek() bool {
	if w.queue.len() > 0 || w.rt.injector.len() > 0 {
		return true
	}
	for _, v := range w.rt.workers {
		if v != w && v.queue.len() > 0 {
			return true
		}
	}
	return false
}

// steal takes the oldest task of a random victim, sweeping all victims
// once starting at a random offset.
func (w *worker) steal() *task {
	n := len(w.rt.workers)
	if n <= 1 {
		return nil
	}
	// xorshift64 for cheap per-worker randomness.
	w.rng ^= w.rng << 13
	w.rng ^= w.rng >> 7
	w.rng ^= w.rng << 17
	start := int(w.rng % uint64(n))
	for i := 0; i < n; i++ {
		v := w.rt.workers[(start+i)%n]
		if v == w {
			continue
		}
		if t := v.queue.popFront(); t != nil {
			w.metrics.stolen.Add(1)
			if t.meta != nil {
				t.meta.stolenFrom = int32(v.id)
			}
			return t
		}
	}
	return nil
}

// timeTask runs one task body from begin, a reading the caller already
// holds, and returns the reading that ends it, which the caller chains
// into whatever it times next. Only the task's own time is accounted:
// the total duration minus any tasks it executed inline while waiting.
func (w *worker) timeTask(t *task, inline bool, begin int64) int64 {
	saved := w.nestedNs
	w.nestedNs = 0
	// The consumer may Release (recycle) the fused task the instant it
	// completes, so everything needed after the body is snapshotted
	// before exec; the producer's last touch of t happens inside exec.
	tMeta, tDepth := t.meta, t.depthNs
	// Publish the running task's scope (for cancellation inheritance),
	// identity and spawn-path depth (for causal tracing and the online
	// span estimator), and start time (for watchdog stall detection);
	// restore the enclosing task's view afterwards so nested inline
	// execution is transparent.
	savedCtx := w.curCtx
	w.curCtx = t.ctx
	savedMeta, savedDepth := w.curMeta, w.curDepthNs
	w.curMeta, w.curDepthNs = tMeta, tDepth
	savedStart := w.metrics.taskStartNs.Swap(begin)
	t.exec()
	end := nanotime()
	w.metrics.taskStartNs.Store(savedStart)
	w.curCtx = savedCtx
	w.curMeta, w.curDepthNs = savedMeta, savedDepth
	total := end - begin
	own := total - w.nestedNs
	if own < 0 {
		own = 0
	}
	w.nestedNs = saved + total
	if tr := w.rt.trace.Load(); tr != nil || tMeta != nil {
		w.stageEvent(tr, tMeta, begin, own, inline)
	}
	// Staged in plain memory with the derived-counter feeds: the
	// duration histogram (percentile counters) and the running span
	// maximum (critical-path counters). publish makes them visible.
	s := &w.stage
	if s.tasks == 0 {
		s.firstBeginNs = begin
	}
	s.taskNs += own
	s.tasks++
	s.dur.Record(own)
	if d := tDepth + own; d > s.spanMaxNs {
		s.spanMaxNs = d
	}
	if s.tasks >= publishTasks || end-s.firstBeginNs >= publishIntervalNs {
		w.publish()
	}
	if w.rt.adaptiveInline {
		core.EWMAUpdate(&w.rt.grainNsEWMA, own)
	}
	return end
}

// execute runs one task from the scheduling loop and returns its end
// reading. searchStart is when the dispatch search for this task began;
// the interval up to the task's begin reading is scheduling overhead.
func (w *worker) execute(t *task, searchStart int64) int64 {
	begin := nanotime()
	dispatchNs := begin - searchStart
	w.stage.overhead += dispatchNs
	w.stage.ovh.Record(dispatchNs)
	if w.rt.adaptiveInline {
		w.rt.noteDispatchCost(dispatchNs)
	}
	w.nestedNs = 0 // top of the stack: nothing to report up
	return w.timeTask(t, false, begin)
}

// executeInline runs a task on the current goroutine (Fork/Sync
// policies, adaptive inlining and help-first waiting) from begin,
// accounting it like a scheduled task but tagging it as inline, and
// returns its end reading. The task must not be touched afterwards: its
// consumer may already have released it.
func (w *worker) executeInline(t *task, begin int64) int64 {
	end := w.timeTask(t, true, begin)
	w.stage.inline++
	return end
}

// spawnDepthNs returns the spawn-path depth for a task being spawned
// now from w's current task: the running task's depth base plus the
// task's own elapsed time so far (the wall time since the task began,
// minus time spent in nested inline tasks). Called only from w's own
// goroutine mid-task; between tasks it degrades to the depth base.
func (w *worker) spawnDepthNs(nowNs int64) int64 {
	start := w.metrics.taskStartNs.Load()
	if start == 0 {
		return w.curDepthNs
	}
	elapsed := nowNs - start - w.nestedNs
	if elapsed < 0 {
		elapsed = 0
	}
	return w.curDepthNs + elapsed
}

// currentWorker returns the worker the calling goroutine belongs to, or
// nil when called from outside the pool.
func (rt *Runtime) currentWorker() *worker {
	return rt.wmap.lookup(goroutineID())
}

// helpWaitTask runs helpUntilDone and accounts the whole wait as
// non-own time of the enclosing task: a task's recorded duration
// excludes the time it spent waiting on futures, matching HPX's
// suspended-thread semantics. Returns true when t completed, false
// when the optional abort channel (nil = never) closed first.
func (rt *Runtime) helpWaitTask(w *worker, t *task, abort <-chan struct{}) bool {
	saved := w.nestedNs
	begin := nanotime()
	ok, end := rt.helpUntilDone(w, t, abort, begin)
	w.nestedNs = saved + end - begin
	return ok
}

// helpPollInterval is the backoff while waiting for a future with no
// runnable work; it only matters in genuinely idle phases.
const helpPollInterval = 20 * time.Microsecond

// helpUntilDone lets the calling worker make progress while it waits
// for t to complete: it executes local tasks first, then stolen ones,
// searches for up to spinBudget when none are found, and then polls
// the task's wait channel until work or completion appears. The
// completion check polls the task's state directly, so the common case
// — the waited-for child found and run by this very loop — never
// allocates the channel. Returns true when t completed, false when the
// optional abort channel (nil = never) closed first.
//
// last is the wait's begin reading and is chained through the loop: an
// inline task begins at last and its end becomes the new last, as does
// the wake-up from an idle poll. The final last is returned as the
// wait's end, so a wait that never idles reads the clock once per task,
// and the wait splits exactly into task, overhead and idle time. lastEnd
// is the end of the last task the wait ran (its begin before the first),
// so the spin budget runs from there and a poll's wake-up does not
// re-arm it.
func (rt *Runtime) helpUntilDone(w *worker, t *task, abort <-chan struct{}, last int64) (bool, int64) {
	// One reusable timer across poll iterations: allocated lazily the
	// first time this wait actually idles, reset thereafter.
	var timer *time.Timer
	lastEnd := last
	for {
		if t.state.Load() == futDone {
			return true, last
		}
		if abort != nil && isClosed(abort) {
			return false, last
		}
		nt := w.find()
		if nt == nil {
			nt, last = w.spin(last, lastEnd, t, abort)
		}
		if nt != nil {
			last = w.executeInline(nt, last)
			lastEnd = last
			continue
		}
		// No runnable work: block until the future completes or the
		// poll interval elapses. We poll with a short backoff rather
		// than integrating done into the notifier, keeping the wait
		// structure simple. A nil abort case never fires, so the
		// three-way select also serves the two-channel wait.
		done := t.waitChan()
		if t.state.Load() == futDone {
			return true, last
		}
		// The failed search since last is overhead; the poll is idle.
		idleStart := nanotime()
		w.stage.overhead += idleStart - last
		w.publish()
		if timer == nil {
			timer = time.NewTimer(helpPollInterval)
		} else {
			timer.Reset(helpPollInterval)
		}
		fired := false
		select {
		case <-done:
			// The state store trails the channel close by a couple of
			// instructions; the loop head re-checks it, and abort.
		case <-abort:
		case <-timer.C:
			fired = true
		}
		if !fired && !timer.Stop() {
			// Drain so a later Reset starts clean (pre-1.23 timer
			// channel semantics; harmless under 1.23+).
			select {
			case <-timer.C:
			default:
			}
		}
		last = nanotime()
		w.metrics.idleNs.Add(last - idleStart)
	}
}
