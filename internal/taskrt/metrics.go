package taskrt

import (
	"runtime/metrics"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/core"
)

// workerMetrics aggregates the per-worker event counts the thread-manager
// counters report. All fields are atomics: producers (the worker loop)
// never block on consumers (counter evaluations). The per-task fields
// are written only by worker.publish, which adds a block of staged
// tasks at a time (runtime.go); taskStartNs is swapped per task because
// the watchdog and the active-task counters read it. The struct is padded
// to cache-line boundaries on both sides: worker structs of one pool
// come from the same allocation size class, so without padding the hot
// atomics of adjacent workers can share a line and turn every counter
// increment into cross-core traffic.
type workerMetrics struct {
	_              [cacheLineSize]byte
	tasksExecuted  atomic.Int64 // completed tasks
	taskTimeNs     atomic.Int64 // cumulative task execution time
	overheadNs     atomic.Int64 // cumulative scheduling overhead
	idleNs         atomic.Int64 // cumulative parked and spinning time
	stolen         atomic.Int64 // tasks this worker stole from others
	parkedSince    atomic.Int64 // nanotime when the current park began; 0 if running
	pendingPeak    atomic.Int64 // high-water mark of the local queue
	started        atomic.Int64 // nanotime when the worker started (or idle-rate was reset)
	inlineExecuted atomic.Int64 // tasks run inline (Fork/Sync/helping)
	taskStartNs    atomic.Int64 // nanotime the current task began; 0 if idle
	healthStalled  atomic.Int64 // stalled_task events attributed to this worker
	healthStarved  atomic.Int64 // starved_worker events attributed to this worker
	spanMaxNs      atomic.Int64 // running max of task completion depth (online span estimate)
	parks          atomic.Int64 // parks begun; owner-written, read only by tests
	spins          atomic.Int64 // spins begun with budget left; owner-written, read only by tests
	publishes      atomic.Int64 // staged blocks published; owner-written, read only by tests
	_              [cacheLineSize]byte
}

func (m *workerMetrics) notePending(n int) {
	for {
		old := m.pendingPeak.Load()
		if int64(n) <= old || m.pendingPeak.CompareAndSwap(old, int64(n)) {
			return
		}
	}
}

// idleAt returns the idle time up to nowNs (parks and spins, including
// a park still in progress): the one read behind both time/idle and
// idle-rate.
func (m *workerMetrics) idleAt(nowNs int64) int64 {
	i := m.idleNs.Load()
	if since := m.parkedSince.Load(); since != 0 && nowNs > since {
		i += nowNs - since
	}
	return i
}

// resetIdle zeroes the idle time as of nowNs, restarting a park in
// progress there. The CAS leaves a park that ended meanwhile ended.
func (m *workerMetrics) resetIdle(nowNs int64) {
	m.idleNs.Store(0)
	if since := m.parkedSince.Load(); since != 0 {
		m.parkedSince.CompareAndSwap(since, nowNs)
	}
}

// RegisterCounters registers the runtime's full thread-manager counter
// set with reg under locality loc. Counter names follow the HPX scheme
// used in the paper:
//
//	/threads{locality#L/total}/count/cumulative
//	/threads{locality#L/worker-thread#W}/time/average
//	/threads{locality#L/total}/time/average-overhead
//	/threads{locality#L/total}/time/cumulative
//	/threads{locality#L/total}/time/cumulative-overhead
//	/threads{locality#L/total}/idle-rate
//	/threads{locality#L/total}/count/stolen
//	/threads{locality#L/total}/count/instantaneous/pending
//	/threadqueue{locality#L/worker-thread#W}/length
//	/runtime{locality#L/total}/uptime
//	/runtime{locality#L/total}/memory/allocated
//	/runtime{locality#L/total}/memory/resident
//
// The registration is idempotent per registry+locality pair only in the
// sense that registering twice returns an error from the registry.
func (rt *Runtime) RegisterCounters(reg *core.Registry) error {
	loc := rt.locality
	var cs []core.Counter
	// perWorker adds object/counter as a locality total over all workers
	// and one instance per worker; mk builds the counter that reads ws.
	perWorker := func(object, counter string, mk func(name core.Name, ws []*worker) core.Counter) {
		cs = append(cs, mk(core.LocalityName(object, counter, loc, -1), rt.workers))
		for i := range rt.workers {
			cs = append(cs, mk(core.LocalityName(object, counter, loc, int64(i)), rt.workers[i:i+1]))
		}
	}

	// Per-worker event counts; a total is the sum over its workers.
	summed := []struct {
		object, counter, help, unit string
		field                       func(m *workerMetrics) *atomic.Int64
	}{
		{"threads", "count/cumulative", "number of tasks executed", core.UnitEvents,
			func(m *workerMetrics) *atomic.Int64 { return &m.tasksExecuted }},
		{"threads", "time/cumulative", "cumulative task execution time", core.UnitNanoseconds,
			func(m *workerMetrics) *atomic.Int64 { return &m.taskTimeNs }},
		{"threads", "time/cumulative-overhead", "cumulative scheduling overhead", core.UnitNanoseconds,
			func(m *workerMetrics) *atomic.Int64 { return &m.overheadNs }},
		{"threads", "count/stolen", "tasks stolen from other workers", core.UnitEvents,
			func(m *workerMetrics) *atomic.Int64 { return &m.stolen }},
		{"threads", "count/inline", "tasks executed inline (fork/sync/helping)", core.UnitEvents,
			func(m *workerMetrics) *atomic.Int64 { return &m.inlineExecuted }},
		{"runtime", "health/stalled-tasks", "watchdog: tasks running past the stall threshold", core.UnitEvents,
			func(m *workerMetrics) *atomic.Int64 { return &m.healthStalled }},
		{"runtime", "health/starved-workers", "watchdog: workers parked with work pending past the starvation threshold", core.UnitEvents,
			func(m *workerMetrics) *atomic.Int64 { return &m.healthStarved }},
	}
	for _, s := range summed {
		info := core.TypeInfo(s.object, s.counter, s.help, s.unit)
		perWorker(s.object, s.counter, func(name core.Name, ws []*worker) core.Counter {
			return core.NewFuncCounter(name, info, 0,
				func() (sum int64) {
					for _, w := range ws {
						sum += s.field(&w.metrics).Load()
					}
					return sum
				},
				func() {
					for _, w := range ws {
						s.field(&w.metrics).Store(0)
					}
				})
		})
	}
	idleInfo := core.TypeInfo("threads", "time/idle", "cumulative idle time: parked or searching for work", core.UnitNanoseconds)
	perWorker("threads", "time/idle", func(name core.Name, ws []*worker) core.Counter {
		return core.NewFuncCounter(name, idleInfo, 0,
			func() (sum int64) {
				nowNs := nanotime()
				for _, w := range ws {
					sum += w.metrics.idleAt(nowNs)
				}
				return sum
			},
			func() {
				nowNs := nanotime()
				for _, w := range ws {
					w.metrics.resetIdle(nowNs)
				}
			})
	})

	// Average task duration and average overhead (/threads/time/average
	// and /threads/time/average-overhead in the paper), backed by the
	// per-worker duration histograms so /statistics{...}/percentile@Q
	// answers exactly.
	averages := []struct {
		counter, help string
		field         func(m *workerMetrics) *atomic.Int64
		hist          func(w *worker) *core.Histogram
	}{
		{"time/average", "average task duration (task granularity)",
			func(m *workerMetrics) *atomic.Int64 { return &m.taskTimeNs },
			func(w *worker) *core.Histogram { return &w.durHist }},
		{"time/average-overhead", "average per-task scheduling overhead",
			func(m *workerMetrics) *atomic.Int64 { return &m.overheadNs },
			func(w *worker) *core.Histogram { return &w.ovhHist }},
	}
	for _, s := range averages {
		info := core.TypeInfo("threads", s.counter, s.help, core.UnitNanoseconds)
		perWorker("threads", s.counter, func(name core.Name, ws []*worker) core.Counter {
			return core.NewHistRatioCounter(name, info,
				func() (num, den int64) {
					for _, w := range ws {
						num += s.field(&w.metrics).Load()
						den += w.metrics.tasksExecuted.Load()
					}
					return num, den
				},
				func() {
					for _, w := range ws {
						s.field(&w.metrics).Store(0)
						w.metrics.tasksExecuted.Store(0)
						s.hist(w).Reset()
					}
				},
				func() (m core.HistogramSnapshot) {
					for _, w := range ws {
						m.Merge(s.hist(w).Snapshot())
					}
					return m
				})
		})
	}

	// Idle rate: idle (parked or searching) time over wall time, in
	// 0.01% units like HPX.
	idleRateInfo := core.TypeInfo("threads", "idle-rate", "ratio of idle (parked or searching) time to wall time", "0.01%")
	perWorker("threads", "idle-rate", func(name core.Name, ws []*worker) core.Counter {
		return core.NewRatioCounter(name, idleRateInfo,
			func() (idle, wall int64) {
				nowNs := nanotime()
				for _, w := range ws {
					idle += w.metrics.idleAt(nowNs) * 10000
					wall += nowNs - w.metrics.started.Load()
				}
				return idle, wall
			},
			func() {
				nowNs := nanotime()
				for _, w := range ws {
					w.metrics.resetIdle(nowNs)
					w.metrics.started.Store(nowNs)
				}
			})
	})

	qlenInfo := core.TypeInfo("threadqueue", "length", "length of one worker's task queue", core.UnitEvents)
	for i, w := range rt.workers {
		cs = append(cs, core.NewFuncCounter(core.LocalityName("threadqueue", "length", loc, int64(i)), qlenInfo, 0,
			func() int64 { return int64(w.queue.len()) }, nil))
	}

	// Runtime-wide event counts: tasks dropped by cancellation, the
	// watchdog's health events and the adaptive-inline policy's
	// decisions (see inline.go).
	events := []struct {
		counter, help string
		val           *atomic.Int64
	}{
		{"count/cancelled", "tasks dropped at dispatch by cancellation", &rt.cancelled},
		{"health/backlog-growth", "watchdog: sustained injector backlog growth episodes", &rt.healthBacklog},
		{"health/deadlocks", "watchdog: suspected deadlocked wait cycles", &rt.healthDeadlock},
		{"health/events", "watchdog: total health events raised", &rt.healthEvents},
		{"health/callback-errors", "watchdog: OnEvent callbacks that panicked (recovered)", &rt.healthCbErrors},
		{"grain/inlined", "async spawns run inline by the adaptive grain policy", &rt.grainInlined},
		{"grain/spawned", "async spawns enqueued while the adaptive grain policy was active", &rt.grainSpawned},
	}
	for _, s := range events {
		cs = append(cs, core.NewLocalityFunc("runtime", s.counter, loc, s.help, core.UnitEvents,
			s.val.Load, func() { s.val.Store(0) }))
	}
	for i, m := range memCounters {
		cs = append(cs, core.NewLocalityFunc("runtime", m.counter, loc, m.help, core.UnitBytes,
			func() int64 { return rt.mem.value(i) }, nil))
	}

	// A worker is executing while it has a task start reading.
	executing := func() (n int64) {
		for _, w := range rt.workers {
			if w.metrics.taskStartNs.Load() != 0 {
				n++
			}
		}
		return n
	}
	// Critical-path counters: each completing task's spawn-path depth
	// plus its own time is a lower bound on the critical path; the
	// running max over all completions estimates the span without
	// replaying the DAG (AnalyzeTrace gives the exact value post-mortem).
	span := func() (max int64) {
		for _, w := range rt.workers {
			if v := w.metrics.spanMaxNs.Load(); v > max {
				max = v
			}
		}
		return max
	}
	cs = append(cs,
		core.NewLocalityFunc("threads", "count/instantaneous/pending", loc,
			"tasks currently queued", core.UnitEvents, rt.pendingCount, nil),
		core.NewLocalityFunc("threads", "count/instantaneous/active", loc,
			"tasks currently executing", core.UnitEvents, executing, nil),
		// HPX's /scheduler/utilization/instantaneous: executing workers
		// over allowed workers, in percent.
		core.NewLocalityFunc("scheduler", "utilization/instantaneous", loc,
			"workers currently executing a task, as a percentage of the active pool", core.UnitPercent,
			func() int64 {
				allowed := int64(rt.ConcurrencyLimit())
				if allowed == 0 {
					return 0
				}
				return executing() * 100 / allowed
			}, nil),
		core.NewLocalityFunc("threads", "count/workers-active", loc,
			"workers allowed to run under the current concurrency limit", core.UnitEvents,
			func() int64 { return int64(rt.ConcurrencyLimit()) }, nil),
		core.NewElapsedTimeCounter(core.LocalityName("runtime", "uptime", loc, -1),
			core.TypeInfo("runtime", "uptime", "elapsed wall time", core.UnitNanoseconds)),
		core.NewLocalityFunc("runtime", "grain/threshold-ns", loc,
			"adaptive-inline grain threshold derived from the runtime's self-measured spawn cost",
			core.UnitNanoseconds, rt.InlineThresholdNs, nil),
		core.NewLocalityFunc("runtime", "critical-path/span", loc,
			"online estimate of the critical path (longest spawn-chain of task own-times)",
			core.UnitNanoseconds, span, func() {
				for _, w := range rt.workers {
					w.metrics.spanMaxNs.Store(0)
				}
			}),
		core.NewRatioCounter(core.LocalityName("runtime", "critical-path/parallelism", loc, -1),
			core.TypeInfo("runtime", "critical-path/parallelism",
				"logical parallelism: total task time over the online span estimate", core.UnitNone),
			func() (work, spanNs int64) {
				for _, w := range rt.workers {
					work += w.metrics.taskTimeNs.Load()
				}
				return work, span()
			}, nil),
		// A saturated trace buffer silently truncates the DAG, so the
		// drop count is surfaced through the counter plane.
		core.NewLocalityFunc("runtime", "trace/dropped", loc,
			"trace events dropped at the buffer limit", core.UnitEvents, rt.TraceDropped, rt.resetTraceDropped),
	)
	for _, c := range cs {
		if err := reg.Register(c); err != nil {
			return err
		}
	}
	return nil
}

// memCounters are the /runtime{...}/memory counters and the
// runtime/metrics sample each one reports.
var memCounters = [...]struct{ counter, help, metric string }{
	{"memory/allocated", "heap bytes allocated and in use", "/memory/classes/heap/objects:bytes"},
	{"memory/resident", "total bytes obtained from the OS", "/memory/classes/total:bytes"},
	{"memory/total-allocated", "cumulative bytes allocated", "/gc/heap/allocs:bytes"},
}

// memStatsMaxAge is how long one runtime/metrics read serves the memory
// counters: long enough to cover the sweep that evaluates them back to
// back, no longer than the fastest sampler's tick.
const memStatsMaxAge = time.Millisecond

// memStats serves the memory counters from one shared metrics.Read —
// which, unlike runtime.ReadMemStats, does not stop the world — instead
// of one read per counter per sweep.
type memStats struct {
	mu      sync.Mutex
	at      time.Time
	reads   int64
	samples [len(memCounters)]metrics.Sample
}

// value returns the i-th memory counter, re-reading all of them when
// the last read is older than memStatsMaxAge.
func (m *memStats) value(i int) int64 {
	m.mu.Lock()
	defer m.mu.Unlock()
	if now := time.Now(); now.Sub(m.at) > memStatsMaxAge {
		for j := range m.samples {
			m.samples[j].Name = memCounters[j].metric
		}
		metrics.Read(m.samples[:])
		m.at = now
		m.reads++
	}
	if m.samples[i].Value.Kind() != metrics.KindUint64 {
		return 0 // metric unknown to this Go runtime
	}
	return int64(m.samples[i].Value.Uint64())
}
