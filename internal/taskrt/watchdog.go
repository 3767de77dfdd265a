package taskrt

// The runtime watchdog turns the metrics the scheduler already keeps
// (task start times, park times, queue lengths, completion counts) into
// typed health events, following the paper's argument that intrinsic
// instrumentation keeps working exactly when external tools fail. The
// watchdog allocates nothing per sweep and reads only atomics the
// workers publish anyway, so its overhead is a handful of loads every
// Interval — measured at well under 1% on the 10 µs-grain benchmark
// (see overhead_bench_test.go / BENCH_taskrt.json). It runs as an
// apex.Policy: whoever owns the apex.Engine starts and stops it.

import (
	"fmt"
	"time"

	"repro/internal/apex"
)

// HealthKind classifies a watchdog health event.
type HealthKind int

const (
	// HealthStalledTask: a task has been executing on one worker for
	// longer than StallThreshold.
	HealthStalledTask HealthKind = iota
	// HealthStarvedWorker: a worker has been parked past
	// StallThreshold while tasks were pending somewhere.
	HealthStarvedWorker
	// HealthBacklogGrowth: the injector backlog grew over backlogSweeps
	// consecutive sweeps.
	HealthBacklogGrowth
	// HealthDeadlockSuspected: workers are active (inside tasks) but no
	// task has completed and no work is queued for a full stall
	// threshold — the signature of a Wait cycle.
	HealthDeadlockSuspected
)

// String returns the stable event name used in logs and tests.
func (k HealthKind) String() string {
	switch k {
	case HealthStalledTask:
		return "stalled_task"
	case HealthStarvedWorker:
		return "starved_worker"
	case HealthBacklogGrowth:
		return "backlog_growth"
	case HealthDeadlockSuspected:
		return "deadlock_suspected"
	default:
		return fmt.Sprintf("health(%d)", int(k))
	}
}

// HealthEvent is one observation the watchdog raised.
type HealthEvent struct {
	Kind HealthKind
	// Worker is the worker the event is attributed to, or -1 for
	// runtime-wide events (backlog growth, suspected deadlock).
	Worker int
	// Age is how long the offending condition had lasted when detected
	// (task runtime for stalls, park time for starvation, time since
	// the first sweep that saw no progress for deadlock suspicion).
	Age time.Duration
	// Backlog is the injector length for backlog events, 0 otherwise.
	Backlog int
	// Time is when the sweep observed the condition.
	Time time.Time
}

// String formats the event for log lines.
func (e HealthEvent) String() string {
	switch e.Kind {
	case HealthBacklogGrowth:
		return fmt.Sprintf("%s: injector backlog at %d and growing", e.Kind, e.Backlog)
	case HealthDeadlockSuspected:
		return fmt.Sprintf("%s: no completions for %v with active workers and empty queues", e.Kind, e.Age)
	default:
		return fmt.Sprintf("%s: worker#%d for %v", e.Kind, e.Worker, e.Age)
	}
}

// WatchdogConfig tunes the monitor. Zero values select the defaults.
type WatchdogConfig struct {
	// Interval between sweeps. Default 100ms.
	Interval time.Duration
	// StallThreshold: a task running longer than this raises
	// stalled_task, a worker parked longer than this while work is
	// pending raises starved_worker, and workers making no progress for
	// this long raise deadlock_suspected. Default 1s.
	StallThreshold time.Duration
	// OnEvent, if non-nil, is called synchronously from the sweep for
	// every event. It must not block.
	OnEvent func(HealthEvent)
}

// backlogSweeps is how many consecutive sweeps of injector growth raise
// backlog_growth.
const backlogSweeps = 5

// watchdog is the monitor state, touched only by its sweeps.
type watchdog struct {
	rt  *Runtime
	cfg WatchdogConfig

	// Deduplication: one event per episode, keyed on the episode's
	// start timestamp — a new task (new taskStartNs) or a new park
	// (new parkedSince) begins a new episode.
	lastStallStart []int64
	lastParkStart  []int64

	lastBacklog   int
	backlogStreak int

	lastExecuted     int64
	lastActiveIdle   int64
	stuckSince       time.Time // first sweep of the current no-progress run
	deadlockReported bool

	raised int // events emitted by the current sweep
}

// Watchdog returns the health monitor as a policy that sweeps every
// cfg.Interval once added to an apex.Engine. Health events increment
// the /runtime{...}/health/* counters and are passed to cfg.OnEvent
// when set.
func (rt *Runtime) Watchdog(cfg WatchdogConfig) apex.Policy {
	wd := newWatchdog(rt, cfg)
	return apex.Policy{Name: "watchdog", Period: wd.cfg.Interval, Step: wd.sweep}
}

// newWatchdog applies the config's defaults.
func newWatchdog(rt *Runtime, cfg WatchdogConfig) *watchdog {
	if cfg.Interval <= 0 {
		cfg.Interval = 100 * time.Millisecond
	}
	if cfg.StallThreshold <= 0 {
		cfg.StallThreshold = time.Second
	}
	return &watchdog{
		rt:             rt,
		cfg:            cfg,
		lastStallStart: make([]int64, len(rt.workers)),
		lastParkStart:  make([]int64, len(rt.workers)),
	}
}

// emit books an event into the counters and forwards it to the callback.
func (wd *watchdog) emit(ev HealthEvent) {
	wd.raised++
	wd.rt.healthEvents.Add(1)
	switch ev.Kind {
	case HealthStalledTask:
		wd.rt.workers[ev.Worker].metrics.healthStalled.Add(1)
	case HealthStarvedWorker:
		wd.rt.workers[ev.Worker].metrics.healthStarved.Add(1)
	case HealthBacklogGrowth:
		wd.rt.healthBacklog.Add(1)
	case HealthDeadlockSuspected:
		wd.rt.healthDeadlock.Add(1)
	}
	if wd.cfg.OnEvent != nil {
		wd.safeOnEvent(ev)
	}
}

// safeOnEvent isolates the subscriber: a panicking OnEvent callback is
// recovered and counted into /runtime{...}/health/callback-errors, and
// the watchdog keeps sweeping — a buggy subscriber must not take down
// health monitoring, which matters most exactly when things are already
// going wrong.
func (wd *watchdog) safeOnEvent(ev HealthEvent) {
	defer func() {
		if recover() != nil {
			wd.rt.healthCbErrors.Add(1)
		}
	}()
	wd.cfg.OnEvent(ev)
}

// sweep takes one sample of the runtime's health at now — the policy
// step, which tests drive with a synthetic clock. It reports how many
// events it raised, or "" when none.
func (wd *watchdog) sweep(now time.Time) string {
	rt := wd.rt
	nowNs := now.UnixNano()
	pending := rt.pendingCount()

	var executed, activeWorkers, activeIdle int64
	for i, w := range rt.workers {
		m := &w.metrics
		executed += m.tasksExecuted.Load() + m.inlineExecuted.Load()
		start := m.taskStartNs.Load()
		if start != 0 {
			activeWorkers++
			// Idle time booked by a worker that is inside a task means
			// the task is help-waiting on a future (the help loop polls
			// in short parked slices) — the signature that separates a
			// blocked Wait cycle from a merely long-running task.
			activeIdle += m.idleNs.Load()
		}

		// Stalled task: the innermost task on this worker has been
		// running past the threshold. One event per task episode —
		// keyed on the start timestamp.
		if start != 0 && nowNs-start > int64(wd.cfg.StallThreshold) {
			if wd.lastStallStart[i] != start {
				wd.lastStallStart[i] = start
				wd.emit(HealthEvent{Kind: HealthStalledTask, Worker: i,
					Age: time.Duration(nowNs - start), Time: now})
			}
		}

		// Starved worker: parked past the threshold while work was
		// pending. Throttled workers park by design and are skipped.
		if parked := m.parkedSince.Load(); parked != 0 && pending > 0 &&
			nowNs-parked > int64(wd.cfg.StallThreshold) && !w.throttled() {
			if wd.lastParkStart[i] != parked {
				wd.lastParkStart[i] = parked
				wd.emit(HealthEvent{Kind: HealthStarvedWorker, Worker: i,
					Age: time.Duration(nowNs - parked), Time: now})
			}
		}
	}

	// Injector backlog growth: strictly increasing length over
	// backlogSweeps consecutive sweeps.
	backlog := rt.injector.len()
	if backlog > wd.lastBacklog {
		wd.backlogStreak++
		if wd.backlogStreak >= backlogSweeps {
			wd.backlogStreak = 0
			wd.emit(HealthEvent{Kind: HealthBacklogGrowth, Worker: -1,
				Backlog: backlog, Time: now})
		}
	} else {
		wd.backlogStreak = 0
	}
	wd.lastBacklog = backlog

	// Deadlocked Wait cycle heuristic: workers are inside tasks, yet
	// nothing completes, nothing is queued anywhere, and the active
	// workers keep booking help-poll idle time — every active task is
	// waiting on a future only another waiter could complete. (A task
	// that is simply slow books no idle time and is reported as a stall
	// instead.) Observed continuously for a full StallThreshold of
	// clock time before reporting, however late the sweeps land, once
	// per episode (progress rearms it).
	if executed == wd.lastExecuted && activeWorkers > 0 && pending == 0 &&
		activeIdle > wd.lastActiveIdle {
		if wd.stuckSince.IsZero() {
			wd.stuckSince = now
		}
		if age := now.Sub(wd.stuckSince); age >= wd.cfg.StallThreshold && !wd.deadlockReported {
			wd.deadlockReported = true
			wd.emit(HealthEvent{Kind: HealthDeadlockSuspected, Worker: -1,
				Age: age, Time: now})
		}
	} else {
		wd.stuckSince = time.Time{}
		wd.deadlockReported = false
	}
	wd.lastExecuted = executed
	wd.lastActiveIdle = activeIdle

	if n := wd.raised; n > 0 {
		wd.raised = 0
		return fmt.Sprintf("%d health event(s)", n)
	}
	return ""
}
