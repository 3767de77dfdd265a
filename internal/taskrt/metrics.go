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
// never block on consumers (counter evaluations). The struct is padded
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
	active         atomic.Int64 // 1 while executing a task
	inlineExecuted atomic.Int64 // tasks run inline (Fork/Sync/helping)
	taskStartNs    atomic.Int64 // nanotime the current task began; 0 if idle
	healthStalled  atomic.Int64 // stalled_task events attributed to this worker
	healthStarved  atomic.Int64 // starved_worker events attributed to this worker
	spanMaxNs      atomic.Int64 // running max of task completion depth (online span estimate)
	parks          atomic.Int64 // parks begun; owner-written, read only by tests
	spins          atomic.Int64 // spins begun with budget left; owner-written, read only by tests
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
	n := len(rt.workers)
	allWorkers := make([]int, n)
	for i := range allWorkers {
		allWorkers[i] = i
	}

	sumOver := func(workers []int, read func(m *workerMetrics) int64) int64 {
		var s int64
		for _, w := range workers {
			s += read(&rt.workers[w].metrics)
		}
		return s
	}

	type simpleSpec struct {
		counter, help, unit string
		read                func(m *workerMetrics) int64
		reset               func(m *workerMetrics)
	}
	simple := []simpleSpec{
		{"count/cumulative", "number of tasks executed", core.UnitEvents,
			func(m *workerMetrics) int64 { return m.tasksExecuted.Load() },
			func(m *workerMetrics) { m.tasksExecuted.Store(0) }},
		{"time/cumulative", "cumulative task execution time", core.UnitNanoseconds,
			func(m *workerMetrics) int64 { return m.taskTimeNs.Load() },
			func(m *workerMetrics) { m.taskTimeNs.Store(0) }},
		{"time/cumulative-overhead", "cumulative scheduling overhead", core.UnitNanoseconds,
			func(m *workerMetrics) int64 { return m.overheadNs.Load() },
			func(m *workerMetrics) { m.overheadNs.Store(0) }},
		{"count/stolen", "tasks stolen from other workers", core.UnitEvents,
			func(m *workerMetrics) int64 { return m.stolen.Load() },
			func(m *workerMetrics) { m.stolen.Store(0) }},
		{"count/inline", "tasks executed inline (fork/sync/helping)", core.UnitEvents,
			func(m *workerMetrics) int64 { return m.inlineExecuted.Load() },
			func(m *workerMetrics) { m.inlineExecuted.Store(0) }},
		{"time/idle", "cumulative idle time: parked or searching for work", core.UnitNanoseconds,
			func(m *workerMetrics) int64 { return m.idleAt(nanotime()) },
			func(m *workerMetrics) { m.resetIdle(nanotime()) }},
	}

	register := func(name core.Name, info core.Info, workers []int,
		read func(m *workerMetrics) int64, reset func(m *workerMetrics)) error {
		ws := workers
		var resetAll func()
		if reset != nil {
			resetAll = func() {
				for _, w := range ws {
					reset(&rt.workers[w].metrics)
				}
			}
		}
		return reg.Register(core.NewFuncCounter(name, info, 0,
			func() int64 { return sumOver(ws, read) }, resetAll))
	}

	for _, s := range simple {
		info := core.Info{
			TypeName: "/threads/" + s.counter,
			HelpText: s.help, Unit: s.unit, Version: "1.0",
		}
		total := core.Name{Object: "threads", Counter: s.counter}.
			WithInstances(core.LocalityInstance(loc, "total", -1)...)
		if err := register(total, info, allWorkers, s.read, s.reset); err != nil {
			return err
		}
		for w := 0; w < n; w++ {
			name := core.Name{Object: "threads", Counter: s.counter}.
				WithInstances(core.LocalityInstance(loc, "worker-thread", int64(w))...)
			if err := register(name, info, []int{w}, s.read, s.reset); err != nil {
				return err
			}
		}
	}

	// Average task duration and average overhead: ratio counters over the
	// cumulative sums, matching /threads/time/average and
	// /threads/time/average-overhead in the paper.
	type ratioSpec struct {
		counter, help string
		num           func(m *workerMetrics) int64
		resetNum      func(m *workerMetrics)
		// hist is the per-worker duration distribution behind this
		// average; it makes the registered counter histogram-backed so
		// /statistics{...}/percentile@Q answers exactly.
		hist func(w *worker) *core.Histogram
	}
	ratios := []ratioSpec{
		{"time/average", "average task duration (task granularity)",
			func(m *workerMetrics) int64 { return m.taskTimeNs.Load() },
			func(m *workerMetrics) { m.taskTimeNs.Store(0); m.tasksExecuted.Store(0) },
			func(w *worker) *core.Histogram { return &w.durHist }},
		{"time/average-overhead", "average per-task scheduling overhead",
			func(m *workerMetrics) int64 { return m.overheadNs.Load() },
			func(m *workerMetrics) { m.overheadNs.Store(0); m.tasksExecuted.Store(0) },
			func(w *worker) *core.Histogram { return &w.ovhHist }},
	}
	for _, s := range ratios {
		s := s
		info := core.Info{TypeName: "/threads/" + s.counter, HelpText: s.help,
			Unit: core.UnitNanoseconds, Version: "1.0"}
		registerRatio := func(name core.Name, workers []int) error {
			ws := workers
			rc := newRatioCounter(name, info,
				func() (int64, int64) {
					var num, den int64
					for _, w := range ws {
						num += s.num(&rt.workers[w].metrics)
						den += rt.workers[w].metrics.tasksExecuted.Load()
					}
					return num, den
				},
				func() {
					for _, w := range ws {
						s.resetNum(&rt.workers[w].metrics)
						s.hist(rt.workers[w]).Reset()
					}
				})
			return reg.Register(&histRatioCounter{ratioCounter: rc,
				snapshot: func() core.HistogramSnapshot {
					var m core.HistogramSnapshot
					for _, w := range ws {
						m.Merge(s.hist(rt.workers[w]).Snapshot())
					}
					return m
				}})
		}
		total := core.Name{Object: "threads", Counter: s.counter}.
			WithInstances(core.LocalityInstance(loc, "total", -1)...)
		if err := registerRatio(total, allWorkers); err != nil {
			return err
		}
		for w := 0; w < n; w++ {
			name := core.Name{Object: "threads", Counter: s.counter}.
				WithInstances(core.LocalityInstance(loc, "worker-thread", int64(w))...)
			if err := registerRatio(name, []int{w}); err != nil {
				return err
			}
		}
	}

	// Idle rate: idle (parked or searching) time over wall time, in
	// 0.01% units like HPX.
	idleInfo := core.Info{TypeName: "/threads/idle-rate",
		HelpText: "ratio of idle (parked or searching) time to wall time", Unit: "0.01%", Version: "1.0"}
	registerIdle := func(name core.Name, workers []int) error {
		ws := workers
		return reg.Register(newRatioCounter(name, idleInfo,
			func() (int64, int64) {
				var idle, wall int64
				nowNs := nanotime()
				for _, w := range ws {
					m := &rt.workers[w].metrics
					idle += m.idleAt(nowNs) * 10000
					wall += nowNs - m.started.Load()
				}
				return idle, wall
			},
			func() {
				nowNs := nanotime()
				for _, w := range ws {
					m := &rt.workers[w].metrics
					m.resetIdle(nowNs)
					m.started.Store(nowNs)
				}
			}))
	}
	totalIdle := core.Name{Object: "threads", Counter: "idle-rate"}.
		WithInstances(core.LocalityInstance(loc, "total", -1)...)
	if err := registerIdle(totalIdle, allWorkers); err != nil {
		return err
	}
	for w := 0; w < n; w++ {
		name := core.Name{Object: "threads", Counter: "idle-rate"}.
			WithInstances(core.LocalityInstance(loc, "worker-thread", int64(w))...)
		if err := registerIdle(name, []int{w}); err != nil {
			return err
		}
	}

	// Instantaneous pending tasks and per-queue lengths.
	pendInfo := core.Info{TypeName: "/threads/count/instantaneous/pending",
		HelpText: "tasks currently queued", Unit: core.UnitEvents, Version: "1.0"}
	pendName := core.Name{Object: "threads", Counter: "count/instantaneous/pending"}.
		WithInstances(core.LocalityInstance(loc, "total", -1)...)
	if err := reg.Register(core.NewFuncCounter(pendName, pendInfo, 0, rt.pendingCount, nil)); err != nil {
		return err
	}
	activeInfo := core.Info{TypeName: "/threads/count/instantaneous/active",
		HelpText: "tasks currently executing", Unit: core.UnitEvents, Version: "1.0"}
	activeName := core.Name{Object: "threads", Counter: "count/instantaneous/active"}.
		WithInstances(core.LocalityInstance(loc, "total", -1)...)
	if err := reg.Register(core.NewFuncCounter(activeName, activeInfo, 0, func() int64 {
		var s int64
		for _, w := range rt.workers {
			s += w.metrics.active.Load()
		}
		return s
	}, nil)); err != nil {
		return err
	}
	qlenInfo := core.Info{TypeName: "/threadqueue/length",
		HelpText: "length of one worker's task queue", Unit: core.UnitEvents, Version: "1.0"}
	for w := 0; w < n; w++ {
		w := w
		name := core.Name{Object: "threadqueue", Counter: "length"}.
			WithInstances(core.LocalityInstance(loc, "worker-thread", int64(w))...)
		if err := reg.Register(core.NewFuncCounter(name, qlenInfo, 0, func() int64 {
			return int64(rt.workers[w].queue.len())
		}, nil)); err != nil {
			return err
		}
	}

	// Instantaneous scheduler utilization: executing workers over
	// allowed workers, in percent (HPX's
	// /scheduler/utilization/instantaneous).
	utilName := core.Name{Object: "scheduler", Counter: "utilization/instantaneous"}.
		WithInstances(core.LocalityInstance(loc, "total", -1)...)
	utilInfo := core.Info{TypeName: "/scheduler/utilization/instantaneous",
		HelpText: "workers currently executing a task, as a percentage of the active pool",
		Unit:     core.UnitPercent, Version: "1.0"}
	if err := reg.Register(core.NewFuncCounter(utilName, utilInfo, 0, func() int64 {
		var busy int64
		for _, w := range rt.workers {
			busy += w.metrics.active.Load()
		}
		allowed := int64(rt.ConcurrencyLimit())
		if allowed == 0 {
			return 0
		}
		return busy * 100 / allowed
	}, nil)); err != nil {
		return err
	}

	// Current concurrency limit (the APEX throttling knob).
	limName := core.Name{Object: "threads", Counter: "count/workers-active"}.
		WithInstances(core.LocalityInstance(loc, "total", -1)...)
	limInfo := core.Info{TypeName: "/threads/count/workers-active",
		HelpText: "workers allowed to run under the current concurrency limit",
		Unit:     core.UnitEvents, Version: "1.0"}
	if err := reg.Register(core.NewFuncCounter(limName, limInfo, 0, func() int64 {
		return int64(rt.ConcurrencyLimit())
	}, nil)); err != nil {
		return err
	}

	// Runtime counters: uptime and memory, from the Go runtime.
	uptime := core.NewElapsedTimeCounter(
		core.Name{Object: "runtime", Counter: "uptime"}.
			WithInstances(core.LocalityInstance(loc, "total", -1)...),
		core.Info{TypeName: "/runtime/uptime", HelpText: "elapsed wall time", Unit: core.UnitNanoseconds, Version: "1.0"})
	if err := reg.Register(uptime); err != nil {
		return err
	}
	for i, m := range memCounters {
		name := core.Name{Object: "runtime", Counter: m.counter}.
			WithInstances(core.LocalityInstance(loc, "total", -1)...)
		info := core.Info{TypeName: "/runtime/" + m.counter, HelpText: m.help,
			Unit: core.UnitBytes, Version: "1.0"}
		if err := reg.Register(core.NewFuncCounter(name, info, 0, func() int64 {
			return rt.mem.value(i)
		}, nil)); err != nil {
			return err
		}
	}

	// Resilience counters: tasks dropped by cancellation and the
	// watchdog's health events.
	resSpecs := []struct {
		counter, help string
		val           *atomic.Int64
	}{
		{"count/cancelled", "tasks dropped at dispatch by cancellation", &rt.cancelled},
		{"health/backlog-growth", "watchdog: sustained injector backlog growth episodes", &rt.healthBacklog},
		{"health/deadlocks", "watchdog: suspected deadlocked wait cycles", &rt.healthDeadlock},
		{"health/events", "watchdog: total health events raised", &rt.healthEvents},
		{"health/callback-errors", "watchdog: OnEvent callbacks that panicked (recovered)", &rt.healthCbErrors},
	}
	for _, s := range resSpecs {
		s := s
		name := core.Name{Object: "runtime", Counter: s.counter}.
			WithInstances(core.LocalityInstance(loc, "total", -1)...)
		info := core.Info{TypeName: "/runtime/" + s.counter, HelpText: s.help,
			Unit: core.UnitEvents, Version: "1.0"}
		if err := reg.Register(core.NewFuncCounter(name, info, 0,
			s.val.Load, func() { s.val.Store(0) })); err != nil {
			return err
		}
	}

	// Adaptive-inline grain counters: the self-measured inline threshold
	// plus exact counts of the policy's decisions (see inline.go). The
	// threshold is a gauge (no reset); the decision counts reset like
	// the other event counters.
	grainSpecs := []struct {
		counter, help string
		val           *atomic.Int64
	}{
		{"grain/inlined", "async spawns run inline by the adaptive grain policy", &rt.grainInlined},
		{"grain/spawned", "async spawns enqueued while the adaptive grain policy was active", &rt.grainSpawned},
	}
	for _, s := range grainSpecs {
		s := s
		name := core.Name{Object: "runtime", Counter: s.counter}.
			WithInstances(core.LocalityInstance(loc, "total", -1)...)
		info := core.Info{TypeName: "/runtime/" + s.counter, HelpText: s.help,
			Unit: core.UnitEvents, Version: "1.0"}
		if err := reg.Register(core.NewFuncCounter(name, info, 0,
			s.val.Load, func() { s.val.Store(0) })); err != nil {
			return err
		}
	}
	thrName := core.Name{Object: "runtime", Counter: "grain/threshold-ns"}.
		WithInstances(core.LocalityInstance(loc, "total", -1)...)
	thrInfo := core.Info{TypeName: "/runtime/grain/threshold-ns",
		HelpText: "adaptive-inline grain threshold derived from the runtime's self-measured spawn cost",
		Unit:     core.UnitNanoseconds, Version: "1.0"}
	if err := reg.Register(core.NewFuncCounter(thrName, thrInfo, 0,
		rt.InlineThresholdNs, nil)); err != nil {
		return err
	}

	// Critical-path counters: the online span estimate and the derived
	// logical parallelism. Each completing task's spawn-path depth plus
	// its own time is a lower bound on the critical path; the running
	// max over all completions estimates the span without replaying the
	// DAG (AnalyzeTrace gives the exact value post-mortem).
	spanRead := func() int64 {
		var max int64
		for _, w := range rt.workers {
			if v := w.metrics.spanMaxNs.Load(); v > max {
				max = v
			}
		}
		return max
	}
	spanName := core.Name{Object: "runtime", Counter: "critical-path/span"}.
		WithInstances(core.LocalityInstance(loc, "total", -1)...)
	spanInfo := core.Info{TypeName: "/runtime/critical-path/span",
		HelpText: "online estimate of the critical path (longest spawn-chain of task own-times)",
		Unit:     core.UnitNanoseconds, Version: "1.0"}
	if err := reg.Register(core.NewFuncCounter(spanName, spanInfo, 0, spanRead, func() {
		for _, w := range rt.workers {
			w.metrics.spanMaxNs.Store(0)
		}
	})); err != nil {
		return err
	}
	parName := core.Name{Object: "runtime", Counter: "critical-path/parallelism"}.
		WithInstances(core.LocalityInstance(loc, "total", -1)...)
	parInfo := core.Info{TypeName: "/runtime/critical-path/parallelism",
		HelpText: "logical parallelism: total task time over the online span estimate",
		Unit:     core.UnitNone, Version: "1.0"}
	if err := reg.Register(newRatioCounter(parName, parInfo,
		func() (int64, int64) {
			var work int64
			for _, w := range rt.workers {
				work += w.metrics.taskTimeNs.Load()
			}
			return work, spanRead()
		},
		func() {})); err != nil {
		return err
	}

	// Trace-buffer drops: a saturated trace buffer silently truncates
	// the DAG, so the drop count is surfaced through the counter plane.
	trcName := core.Name{Object: "runtime", Counter: "trace/dropped"}.
		WithInstances(core.LocalityInstance(loc, "total", -1)...)
	trcInfo := core.Info{TypeName: "/runtime/trace/dropped",
		HelpText: "trace events dropped at the buffer limit",
		Unit:     core.UnitEvents, Version: "1.0"}
	if err := reg.Register(core.NewFuncCounter(trcName, trcInfo, 0,
		rt.TraceDropped, rt.resetTraceDropped)); err != nil {
		return err
	}

	// Per-worker-attributable health events, with a summed total.
	healthSpecs := []struct {
		counter, help string
		read          func(m *workerMetrics) int64
		reset         func(m *workerMetrics)
	}{
		{"health/stalled-tasks", "watchdog: tasks running past the stall threshold",
			func(m *workerMetrics) int64 { return m.healthStalled.Load() },
			func(m *workerMetrics) { m.healthStalled.Store(0) }},
		{"health/starved-workers", "watchdog: workers parked with work pending past the starvation threshold",
			func(m *workerMetrics) int64 { return m.healthStarved.Load() },
			func(m *workerMetrics) { m.healthStarved.Store(0) }},
	}
	for _, s := range healthSpecs {
		info := core.Info{TypeName: "/runtime/" + s.counter, HelpText: s.help,
			Unit: core.UnitEvents, Version: "1.0"}
		total := core.Name{Object: "runtime", Counter: s.counter}.
			WithInstances(core.LocalityInstance(loc, "total", -1)...)
		if err := register(total, info, allWorkers, s.read, s.reset); err != nil {
			return err
		}
		for w := 0; w < n; w++ {
			name := core.Name{Object: "runtime", Counter: s.counter}.
				WithInstances(core.LocalityInstance(loc, "worker-thread", int64(w))...)
			if err := register(name, info, []int{w}, s.read, s.reset); err != nil {
				return err
			}
		}
	}
	return nil
}

// ratioCounter reports numerator/denominator with the denominator carried
// as the Value scaling, like the HPX average counters.
type ratioCounter struct {
	name core.Name
	// nameStr caches name.String() so Value allocates nothing per read.
	nameStr string
	info    core.Info
	read    func() (num, den int64)
	reset   func()
}

func newRatioCounter(name core.Name, info core.Info, read func() (int64, int64), reset func()) *ratioCounter {
	return &ratioCounter{name: name, nameStr: name.String(), info: info, read: read, reset: reset}
}

func (c *ratioCounter) Name() core.Name { return c.name }
func (c *ratioCounter) Info() core.Info { return c.info }

func (c *ratioCounter) Value(reset bool) core.Value {
	num, den := c.read()
	if reset {
		c.reset()
	}
	scaling := den
	if scaling == 0 {
		scaling = 1
	}
	return core.Value{Name: c.nameStr, Raw: num, Scaling: scaling, Count: den,
		Time: time.Now(), Status: core.StatusValid}
}

func (c *ratioCounter) Reset() { c.reset() }

// histRatioCounter is a ratioCounter whose distribution is also
// available as a histogram, so the /statistics/percentile meta counter
// can answer quantiles exactly instead of sampling.
type histRatioCounter struct {
	*ratioCounter
	snapshot func() core.HistogramSnapshot
}

// Quantile implements core.Quantiler.
func (c *histRatioCounter) Quantile(q float64) (int64, bool) {
	return c.snapshot().Quantile(q)
}

var _ core.Quantiler = (*histRatioCounter)(nil)

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
