package taskrt

// Counter-driven adaptive inlining: the runtime meters its own spawn
// machinery — the submit-side queue publish and the dispatch-side
// search — into per-runtime EWMAs (the PR 8 cost-metering cell), and
// runs a child inline at the spawn point whenever the child's estimated
// grain is below a threshold derived from those measurements. This is
// the paper's "assess efficiency" loop closed into the scheduler
// itself: the same numbers exported as counters decide, per spawn,
// whether scheduling the task is worth more than the task.
//
// The decision is observable through three counters:
//
//	/runtime{locality#L/total}/grain/threshold-ns   current threshold
//	/runtime{locality#L/total}/grain/inlined        children run inline
//	/runtime{locality#L/total}/grain/spawned        children enqueued
//
// Inlining trades parallelism for overhead, so the policy only inlines
// while the queues already hold enough work to keep every worker busy;
// a batch enqueues just enough members to feed idle workers and inlines
// the rest.

import "repro/internal/core"

const (
	// inlineCostFactor scales the measured per-spawn cost into the
	// inline threshold. The target is ≈2× the full spawn+get round
	// trip; the EWMA pair only observes the submit and dispatch halves
	// of that round trip (the join/wakeup half has no per-task
	// attribution point), which together run about half of it, so the
	// factor is 2×2.
	inlineCostFactor = 4
	// costSampleCapNs clamps individual submit/dispatch samples: a
	// dispatch that absorbed a long failed-steal sweep or an unlucky
	// preemption must not swing the threshold by orders of magnitude.
	costSampleCapNs = 2_000
	// maxInlineThresholdNs bounds the threshold outright, so even a
	// saturated pair of EWMAs cannot inline genuinely coarse tasks.
	maxInlineThresholdNs = 20_000
)

// WithAdaptiveInlining enables counter-driven adaptive inlining: Async
// spawns whose estimated grain (caller-supplied via SpawnOptions.GrainNs
// or AsyncBatchGrain, else the runtime's profiled task-duration EWMA)
// falls below ≈2× the runtime's measured spawn cost run inline on the
// spawning worker instead of being enqueued — but only while the
// queues hold enough work to keep every worker fed. Off by default:
// the policy changes scheduling order within a worker (children run
// depth-first at the spawn point), which fork/join workloads tolerate
// but free-running pipelines may not.
func WithAdaptiveInlining() Option {
	return func(c *config) { c.adaptiveInline = true }
}

// costSample clamps one spawn-cost measurement before it enters an
// EWMA cell.
func costSample(ns int64) int64 {
	if ns > costSampleCapNs {
		return costSampleCapNs
	}
	return ns
}

// InlineThresholdNs returns the current adaptive-inline threshold in
// nanoseconds: tasks estimated to run shorter than this are candidates
// for inline execution. Zero until the runtime has measured itself (or
// with the policy disabled and no samples taken). Backs the
// /runtime{...}/grain/threshold-ns counter.
func (rt *Runtime) InlineThresholdNs() int64 {
	thr := inlineCostFactor * (rt.submitCostNs.Load() + rt.dispatchCostNs.Load())
	if thr > maxInlineThresholdNs {
		thr = maxInlineThresholdNs
	}
	return thr
}

// GrainInlined returns the cumulative number of Async spawns the
// adaptive policy ran inline.
func (rt *Runtime) GrainInlined() int64 { return rt.grainInlined.Load() }

// GrainSpawned returns the cumulative number of Async spawns the
// adaptive policy enqueued (only counted while the policy is enabled).
func (rt *Runtime) GrainSpawned() int64 { return rt.grainSpawned.Load() }

// noteSubmitCost folds one submit-side cost sample into the spawn-cost
// EWMA. Batch submits deliberately do not feed this: the threshold
// models the cost of scheduling one child singly — the counterfactual
// the inline decision is choosing against.
func (rt *Runtime) noteSubmitCost(ns int64) {
	core.EWMAUpdate(&rt.submitCostNs, costSample(ns))
}

// noteDispatchCost folds one dispatch-side cost sample (queue pop plus
// search) into the spawn-cost EWMA.
func (rt *Runtime) noteDispatchCost(ns int64) {
	core.EWMAUpdate(&rt.dispatchCostNs, costSample(ns))
}

// grainEstimate resolves the grain estimate for an inline decision:
// the caller's hint when given, else the runtime's profiled EWMA of
// task own-time; 0 means "unknown" and disables inlining.
func (rt *Runtime) grainEstimate(grainNs int64) int64 {
	if grainNs > 0 {
		return grainNs
	}
	return rt.grainNsEWMA.Load()
}

// inlineEligible decides, at a single Async spawn point, whether to
// run the child inline. Inlining requires: the policy on, a worker
// caller (external callers keep queueing so the pool stays the place
// work runs), a measured threshold, a grain estimate below it, and a
// backlog already deep enough to keep every worker busy without this
// task — inlining must never trade away parallelism, only overhead.
func (rt *Runtime) inlineEligible(w *worker, grainNs int64) bool {
	if !rt.adaptiveInline || w == nil || w.rt != rt {
		return false
	}
	thr := rt.InlineThresholdNs()
	if thr <= 0 {
		return false
	}
	est := rt.grainEstimate(grainNs)
	if est <= 0 || est >= thr {
		return false
	}
	return rt.pending.Load() >= int64(len(rt.workers))
}

// batchInlineSplit returns how many members of an n-task Async batch
// to enqueue; the remaining n-k run inline at the spawn point. With
// the policy off or the batch above the grain threshold the whole
// batch is enqueued. Below the threshold, exactly enough members are
// queued to cover workers not already fed by the pending backlog.
func (rt *Runtime) batchInlineSplit(w *worker, grainNs int64, n int) int {
	if !rt.adaptiveInline || w == nil || w.rt != rt || n == 0 {
		return n
	}
	thr := rt.InlineThresholdNs()
	if thr <= 0 {
		return n
	}
	est := rt.grainEstimate(grainNs)
	if est <= 0 || est >= thr {
		return n
	}
	k := int(int64(len(rt.workers)) - rt.pending.Load())
	if k < 0 {
		k = 0
	}
	if k > n {
		k = n
	}
	return k
}
