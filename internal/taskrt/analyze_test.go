package taskrt

import (
	"testing"
	"time"
)

// synthEvent builds a hand-crafted trace event for shape tests.
func synthEvent(id, parent int64, start time.Time, dur time.Duration) TraceEvent {
	return TraceEvent{
		ID: id, Parent: parent,
		Worker: 0, SpawnWorker: 0, StolenFrom: -1,
		Start: start, SpawnTime: start,
		Duration: dur, Site: "synth.go:1",
	}
}

func TestAnalyzeEmpty(t *testing.T) {
	a := AnalyzeTrace(nil)
	if a.Tasks != 0 || a.Work != 0 || a.Span != 0 {
		t.Fatalf("empty analysis = %+v", a)
	}
}

// A pure chain has span == work: parallelism exactly 1.
func TestAnalyzeChain(t *testing.T) {
	base := time.Unix(0, 0)
	var events []TraceEvent
	for i := int64(1); i <= 10; i++ {
		events = append(events,
			synthEvent(i, i-1, base.Add(time.Duration(i)*10*time.Millisecond), 10*time.Millisecond))
	}
	a := AnalyzeTrace(events)
	if a.Work != 100*time.Millisecond {
		t.Fatalf("work = %v", a.Work)
	}
	if a.Span != a.Work {
		t.Fatalf("chain span = %v, want == work %v", a.Span, a.Work)
	}
	if a.LogicalParallelism != 1 {
		t.Fatalf("chain parallelism = %v, want 1", a.LogicalParallelism)
	}
	if a.Roots != 1 {
		t.Fatalf("roots = %d", a.Roots)
	}
}

// A balanced binary tree of uniform tasks: work = (2^(d+1)-1)*own,
// span = (d+1)*own (root-to-leaf chain).
func TestAnalyzeBalancedTree(t *testing.T) {
	const depth = 4
	const own = time.Millisecond
	base := time.Unix(0, 0)
	var events []TraceEvent
	next := int64(1)
	var build func(parent int64, level int)
	build = func(parent int64, level int) {
		id := next
		next++
		events = append(events, synthEvent(id, parent, base, own))
		if level < depth {
			build(id, level+1)
			build(id, level+1)
		}
	}
	build(0, 0)
	a := AnalyzeTrace(events)
	wantWork := time.Duration(1<<(depth+1)-1) * own
	wantSpan := time.Duration(depth+1) * own
	if a.Work != wantWork {
		t.Fatalf("work = %v want %v", a.Work, wantWork)
	}
	if a.Span != wantSpan {
		t.Fatalf("span = %v want %v", a.Span, wantSpan)
	}
	wantPar := float64(wantWork) / float64(wantSpan)
	if a.LogicalParallelism < wantPar-0.01 || a.LogicalParallelism > wantPar+0.01 {
		t.Fatalf("parallelism = %v want %v", a.LogicalParallelism, wantPar)
	}
}

// Orphaned parents (dropped from the trace) make their children roots
// instead of corrupting the span computation.
func TestAnalyzeOrphans(t *testing.T) {
	base := time.Unix(0, 0)
	events := []TraceEvent{
		synthEvent(5, 3, base, 2*time.Millisecond), // parent 3 not in trace
		synthEvent(6, 5, base, 3*time.Millisecond),
	}
	a := AnalyzeTrace(events)
	if a.Roots != 1 {
		t.Fatalf("roots = %d want 1", a.Roots)
	}
	if a.Span != 5*time.Millisecond {
		t.Fatalf("span = %v want 5ms", a.Span)
	}
}

// A traced run on a real multi-worker runtime: every invariant the
// analyzer promises must hold against real scheduling (steals, inline
// execution, help-first waiting). Runs under -race in CI.
func TestAnalyzeTracedRun(t *testing.T) {
	const workers = 4
	rt := newTestRuntime(t, workers)
	rt.EnableTracing(0)
	start := time.Now()
	if got := fibRT(rt, 16); got != 987 {
		t.Fatalf("fib = %d", got)
	}
	elapsed := time.Since(start)
	rt.Shutdown() // publishes the events still staged
	events, dropped := rt.TraceEvents()
	if dropped != 0 {
		t.Fatalf("dropped = %d", dropped)
	}
	a := AnalyzeTrace(events)
	if a.Tasks != len(events) || a.Tasks == 0 {
		t.Fatalf("tasks = %d events = %d", a.Tasks, len(events))
	}
	if a.Work <= 0 || a.Span <= 0 {
		t.Fatalf("work = %v span = %v, want positive", a.Work, a.Span)
	}
	if a.Span > a.Work {
		t.Fatalf("span %v > work %v", a.Span, a.Work)
	}
	if a.Makespan <= 0 || a.Makespan > 2*elapsed+10*time.Millisecond {
		t.Fatalf("makespan = %v (run took %v)", a.Makespan, elapsed)
	}
	// Achieved parallelism is bounded by the worker count (with slack
	// for timer granularity); logical parallelism is not.
	if a.AchievedParallelism > float64(workers)*1.5 {
		t.Fatalf("achieved parallelism %v > %d workers x slack", a.AchievedParallelism, workers)
	}
	// Spawn-site attribution partitions the work.
	var siteWork time.Duration
	var siteCount int64
	for _, s := range a.Sites {
		siteWork += s.Total
		siteCount += s.Count
	}
	if siteWork != a.Work {
		t.Fatalf("site work %v != total work %v", siteWork, a.Work)
	}
	if siteCount != int64(a.Tasks) {
		t.Fatalf("site count %d != tasks %d", siteCount, a.Tasks)
	}
	// fib spawns from exactly one site (runtime_test.go:55).
	if len(a.Sites) != 1 || a.Sites[0].Site == "<unknown>" {
		t.Fatalf("sites = %+v, want single known site", a.Sites)
	}
	if a.Steals != countSteals(events) {
		t.Fatalf("steals = %d, events say %d", a.Steals, countSteals(events))
	}
	if s := a.Summary(5); s == "" {
		t.Fatal("empty summary")
	}
}

func countSteals(events []TraceEvent) int {
	n := 0
	for _, ev := range events {
		if ev.StolenFrom >= 0 {
			n++
		}
	}
	return n
}

// Work stealing shows up in the trace: a long-running root that spawns
// parked tasks from worker 0 forces other workers to steal.
func TestAnalyzeObservesSteals(t *testing.T) {
	rt := newTestRuntime(t, 4)
	rt.EnableTracing(0)
	fs := make([]*Future[int], 64)
	root := AsyncF(rt, func() int {
		for i := range fs {
			fs[i] = AsyncF(rt, func() int {
				busySpin(200 * time.Microsecond)
				return 1
			})
		}
		busySpin(2 * time.Millisecond)
		return 0
	})
	root.Get()
	WaitAllOf(fs)
	rt.Shutdown() // publishes the events still staged
	events, _ := rt.TraceEvents()
	a := AnalyzeTrace(events)
	if a.Steals == 0 {
		t.Skip("no steals observed in this run (single-core scheduling)")
	}
	for _, s := range a.Sites {
		if s.Steals < 0 || s.Steals > s.Count {
			t.Fatalf("site steals out of range: %+v", s)
		}
	}
}
