package core

import "sync/atomic"

// Sampling-cost self-observation: the registry meters the wall cost of
// its own evaluation sweeps, so the monitoring plane can observe — and
// budget — what observation itself costs. This is the measurement the
// overhead-budgeted sampler (package telemetry) closes its control loop
// on, applying the paper's thesis to the counter plane itself.
//
// Two self-counters are registered by NewRegistry:
//
//	/counters{locality#0/total}/cost/eval-ns      mean wall cost of one
//	                                              evaluation sweep (ns);
//	                                              histogram-backed, so
//	                                              /statistics{...}/percentile@Q
//	                                              answers tail costs exactly
//	/counters{locality#0/total}/cost/per-counter  mean wall cost per counter
//	                                              evaluated (ns)
//
// Metered paths: Registry.Evaluate and BindSet.EvaluateBatch (which
// EvaluateActiveInto runs over the active set) — every sweep pays
// exactly one clock pair, amortised over its counters, and records into
// one histogram, so metering itself stays allocation-free and far below
// the cost it measures. Single Handle.Evaluate calls are deliberately
// not metered: a lone ~85 ns interface call would be dominated by the
// clock reads around it.

// noteEvalCost books one metered evaluation sweep: its wall cost in
// nanoseconds and the number of counters it evaluated. Empty sweeps are
// not booked.
func (r *Registry) noteEvalCost(ns int64, counters int) {
	if counters <= 0 {
		return
	}
	r.costSweeps.Add(1)
	r.costCounters.Add(int64(counters))
	r.costNs.Add(ns)
	r.costHist.Record(ns)
}

// SamplingCost returns the cumulative metered evaluation cost since
// creation or the last cost reset: the number of evaluation sweeps, the
// number of counter evaluations they covered, and their total wall time
// in nanoseconds.
func (r *Registry) SamplingCost() (sweeps, counters, ns int64) {
	return r.costSweeps.Load(), r.costCounters.Load(), r.costNs.Load()
}

// EvalCostSnapshot returns the distribution of per-sweep evaluation
// costs (nanoseconds).
func (r *Registry) EvalCostSnapshot() HistogramSnapshot { return r.costHist.Snapshot() }

// resetEvalCost clears the cumulative cost meters and the sweep-cost
// distribution. Both cost counters share this state, so resetting one
// resets the other — the same sharing the runtime's ratio counters have.
func (r *Registry) resetEvalCost() {
	r.costSweeps.Store(0)
	r.costCounters.Store(0)
	r.costNs.Store(0)
	r.costHist.Reset()
}

// ---------------------------------------------------------------------------
// Per-handle cost attribution (optional).
//
// The sweep meters above answer "what does sampling cost"; they cannot
// answer "which counter costs it". EnableCostMetering arms a BindSet
// with a per-handle EWMA of evaluation cost, paid for with one extra
// clock read per counter per sweep (the clock reads are chained), so the
// budget controller can demote the single expensive counter instead of a
// whole tier (telemetry.BudgetController.ShedCounter).

// costEWMAShift sets the EWMA smoothing: each sample moves the estimate
// by 1/2^costEWMAShift of the error, so one slow outlier cannot demote a
// normally-cheap counter.
const costEWMAShift = 3

// EWMAUpdate folds one cost sample into an atomic EWMA cell. The first
// sample seeds the estimate directly. Lost updates under a concurrent
// write are acceptable: the estimate re-converges on the next sweep.
// Exported for other self-metering consumers (the task runtime's
// adaptive-inline policy meters its spawn cost into the same cell).
func EWMAUpdate(a *atomic.Int64, sample int64) {
	if sample < 0 {
		sample = 0
	}
	old := a.Load()
	if old == 0 {
		a.Store(sample | 1) // |1 so a zero-cost first sample still marks "seeded"
		return
	}
	a.Store(old + (sample-old)>>costEWMAShift)
}

// EnableCostMetering arms per-handle cost attribution on the set: every
// subsequent EvaluateBatch updates an EWMA of each handle's evaluation
// cost, readable via CostNs. Idempotent.
func (s *BindSet) EnableCostMetering() {
	if s.costNs == nil && len(s.handles) > 0 {
		s.costNs = make([]atomic.Int64, len(s.handles))
	}
}

// CostNs returns the EWMA evaluation cost of the i-th handle in
// nanoseconds, or 0 when attribution is off or no sweep has run yet.
func (s *BindSet) CostNs(i int) int64 {
	if s.costNs == nil || i < 0 || i >= len(s.costNs) {
		return 0
	}
	return s.costNs[i].Load()
}

// MostExpensive returns the index and EWMA cost of the costliest handle
// with attribution data, skipping indices for which skip returns true
// (nil = skip none). Returns index -1 when no handle qualifies — before
// the first metered sweep, or with attribution off.
func (s *BindSet) MostExpensive(skip func(i int) bool) (int, int64) {
	best, bestNs := -1, int64(0)
	if s.costNs == nil {
		return best, bestNs
	}
	for i := range s.costNs {
		if skip != nil && skip(i) {
			continue
		}
		if ns := s.costNs[i].Load(); ns > bestNs {
			best, bestNs = i, ns
		}
	}
	return best, bestNs
}

// registerEvalCost registers the two sampling-cost self-counters; called
// from NewRegistry.
func registerEvalCost(r *Registry) {
	r.MustRegister(NewHistRatioCounter(LocalityName("counters", "cost/eval-ns", 0, -1),
		TypeInfo("counters", "cost/eval-ns",
			"mean wall cost of one counter evaluation sweep (histogram-backed)", UnitNanoseconds),
		func() (int64, int64) { return r.costNs.Load(), r.costSweeps.Load() },
		r.resetEvalCost, r.EvalCostSnapshot))
	r.MustRegister(NewRatioCounter(LocalityName("counters", "cost/per-counter", 0, -1),
		TypeInfo("counters", "cost/per-counter", "mean wall cost of evaluating one counter", UnitNanoseconds),
		func() (int64, int64) { return r.costNs.Load(), r.costCounters.Load() },
		r.resetEvalCost))
}
