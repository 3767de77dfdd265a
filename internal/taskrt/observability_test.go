package taskrt

import (
	"testing"
	"time"
)

// The new observability counters: duration percentiles backed by the
// per-worker histograms, the online critical-path estimate, and the
// trace-drop count.

func TestCounterDurationPercentile(t *testing.T) {
	rt, reg := newInstrumentedRuntime(t, 2)
	const n = 100
	const spin = 100 * time.Microsecond
	fs := make([]*Future[int], n)
	for i := range fs {
		fs[i] = AsyncF(rt, func() int {
			busySpin(spin)
			return 0
		})
	}
	WaitAllOf(fs)
	for _, q := range []string{"50", "95", "99"} {
		v, err := reg.Evaluate("/statistics{/threads{locality#0/total}/time/average}/percentile@"+q, false)
		if err != nil {
			t.Fatalf("Evaluate p%s: %v", q, err)
		}
		if !v.Valid() {
			t.Fatalf("p%s invalid: %+v", q, v)
		}
		// Every task spins ~100µs; percentiles must be at least that
		// and not absurdly larger.
		if f := v.Float64(); f < float64(spin.Nanoseconds())*0.9 || f > float64(spin.Nanoseconds())*100 {
			t.Fatalf("p%s = %v ns, want ~%v ns", q, f, spin.Nanoseconds())
		}
	}
	// p50 <= p95 <= p99.
	p := func(q string) float64 {
		v, err := reg.Evaluate("/statistics{/threads{locality#0/total}/time/average}/percentile@"+q, false)
		if err != nil {
			t.Fatal(err)
		}
		return v.Float64()
	}
	p50, p95, p99 := p("50"), p("95"), p("99")
	if p50 > p95 || p95 > p99 {
		t.Fatalf("percentiles not monotone: p50=%v p95=%v p99=%v", p50, p95, p99)
	}
	// Overhead percentile evaluates too (may be invalid when no task
	// accrued measurable dispatch overhead, but must not error).
	if _, err := reg.Evaluate("/statistics{/threads{locality#0/total}/time/average-overhead}/percentile@95", false); err != nil {
		t.Fatalf("overhead percentile: %v", err)
	}
}

func TestCounterCriticalPath(t *testing.T) {
	rt, reg := newInstrumentedRuntime(t, 2)
	// A chain of dependent tasks: span ~= work.
	const links = 8
	const spin = 200 * time.Microsecond
	var chain func(n int) int
	chain = func(n int) int {
		busySpin(spin)
		if n == 0 {
			return 0
		}
		return AsyncF(rt, func() int { return chain(n - 1) }).Get()
	}
	AsyncF(rt, func() int { return chain(links) }).Get()

	span, err := reg.Evaluate("/runtime{locality#0/total}/critical-path/span", false)
	if err != nil {
		t.Fatalf("Evaluate span: %v", err)
	}
	work, err := reg.Evaluate("/threads{locality#0/total}/time/cumulative", false)
	if err != nil {
		t.Fatalf("Evaluate work: %v", err)
	}
	wantMin := int64(links+1) * spin.Nanoseconds()
	if span.Raw < wantMin {
		t.Fatalf("span = %v ns, want >= %v ns (chain of %d x %v)", span.Raw, wantMin, links+1, spin)
	}
	if span.Raw > work.Raw {
		t.Fatalf("span %d > work %d", span.Raw, work.Raw)
	}
	par, err := reg.Evaluate("/runtime{locality#0/total}/critical-path/parallelism", false)
	if err != nil {
		t.Fatalf("Evaluate parallelism: %v", err)
	}
	// Work and span are read at slightly different instants, so allow
	// a little slack above the chain's ideal parallelism of 1.
	if f := par.Float64(); f < 0.9 || f > 1.5 {
		t.Fatalf("chain parallelism = %v, want ~1", f)
	}

	// Reset clears the estimate.
	if _, err := reg.Evaluate("/runtime{locality#0/total}/critical-path/span", true); err != nil {
		t.Fatal(err)
	}
	span2, err := reg.Evaluate("/runtime{locality#0/total}/critical-path/span", false)
	if err != nil {
		t.Fatal(err)
	}
	if span2.Raw != 0 {
		t.Fatalf("span after reset = %d", span2.Raw)
	}
	_ = rt
}

func TestCounterCriticalPathOnlineVsExact(t *testing.T) {
	rt, reg := newInstrumentedRuntime(t, 4)
	rt.EnableTracing(0)
	if got := fibRT(rt, 15); got != 610 {
		t.Fatalf("fib = %d", got)
	}
	rt.Shutdown() // publishes the events and counters still staged
	events, _ := rt.TraceEvents()
	exact := AnalyzeTrace(events)
	online, err := reg.Evaluate("/runtime{locality#0/total}/critical-path/span", false)
	if err != nil {
		t.Fatal(err)
	}
	// The online estimate tracks spawn-path depth only (it cannot see
	// join edges), so it lower-bounds within noise and never exceeds
	// total work.
	work, _ := reg.Evaluate("/threads{locality#0/total}/time/cumulative", false)
	if online.Raw <= 0 {
		t.Fatalf("online span = %d", online.Raw)
	}
	if online.Raw > work.Raw {
		t.Fatalf("online span %d > work %d", online.Raw, work.Raw)
	}
	if exact.Span <= 0 {
		t.Fatalf("exact span = %v", exact.Span)
	}
}

func TestCounterTraceDropped(t *testing.T) {
	rt, reg := newInstrumentedRuntime(t, 1)
	rt.EnableTracing(4)
	fs := make([]*Future[int], 10)
	for i := range fs {
		fs[i] = AsyncF(rt, func() int { return 0 })
	}
	WaitAllOf(fs)
	rt.Shutdown() // drops are counted when the worker publishes
	v, err := reg.Evaluate("/runtime{locality#0/total}/trace/dropped", true)
	if err != nil {
		t.Fatalf("Evaluate: %v", err)
	}
	if v.Raw != 6 {
		t.Fatalf("dropped = %d want 6", v.Raw)
	}
	// Evaluate-and-reset cleared it.
	v2, err := reg.Evaluate("/runtime{locality#0/total}/trace/dropped", false)
	if err != nil {
		t.Fatal(err)
	}
	if v2.Raw != 0 {
		t.Fatalf("dropped after reset = %d", v2.Raw)
	}
}

func TestCounterTraceDroppedNoTracer(t *testing.T) {
	_, reg := newInstrumentedRuntime(t, 1)
	v, err := reg.Evaluate("/runtime{locality#0/total}/trace/dropped", false)
	if err != nil {
		t.Fatal(err)
	}
	if v.Raw != 0 {
		t.Fatalf("dropped with no tracer = %d", v.Raw)
	}
}
