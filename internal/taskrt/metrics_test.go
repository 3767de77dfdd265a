package taskrt

import (
	"strings"
	"testing"
	"time"

	"repro/internal/core"
)

func newInstrumentedRuntime(t *testing.T, workers int) (*Runtime, *core.Registry) {
	t.Helper()
	rt := New(WithWorkers(workers))
	t.Cleanup(rt.Shutdown)
	reg := core.NewRegistry()
	if err := rt.RegisterCounters(reg); err != nil {
		t.Fatalf("RegisterCounters: %v", err)
	}
	return rt, reg
}

func TestCountersCumulativeTasks(t *testing.T) {
	rt, reg := newInstrumentedRuntime(t, 2)
	const n = 100
	fs := make([]*Future[int], n)
	for i := range fs {
		fs[i] = AsyncF(rt, func() int {
			time.Sleep(50 * time.Microsecond)
			return 0
		})
	}
	WaitAllOf(fs)
	// A future completes inside its task, just before the worker counts
	// the task: wait for the count, which must reach n exactly.
	settles(t, reg, "/threads{locality#0/total}/count/cumulative", n)
	// Per-worker counters sum to the total.
	var perWorker int64
	for w := 0; w < rt.NumWorkers(); w++ {
		name := core.Name{Object: "threads", Counter: "count/cumulative"}.
			WithInstances(core.LocalityInstance(0, "worker-thread", int64(w))...)
		wv, err := reg.Evaluate(name.String(), false)
		if err != nil {
			t.Fatalf("Evaluate worker %d: %v", w, err)
		}
		perWorker += wv.Raw
	}
	if perWorker != n {
		t.Fatalf("per-worker sum = %d", perWorker)
	}
}

func TestCounterTaskDuration(t *testing.T) {
	rt, reg := newInstrumentedRuntime(t, 1)
	const n = 50
	const sleep = 200 * time.Microsecond
	fs := make([]*Future[int], n)
	for i := range fs {
		fs[i] = AsyncF(rt, func() int {
			busySpin(sleep)
			return 0
		})
	}
	WaitAllOf(fs)
	v, err := reg.Evaluate("/threads{locality#0/total}/time/average", false)
	if err != nil {
		t.Fatalf("Evaluate: %v", err)
	}
	avg := time.Duration(v.Float64())
	if avg < sleep || avg > 20*sleep {
		t.Fatalf("average task duration = %v, want >= %v", avg, sleep)
	}
	cum, _ := reg.Evaluate("/threads{locality#0/total}/time/cumulative", false)
	if cum.Raw < int64(n)*sleep.Nanoseconds() {
		t.Fatalf("cumulative task time = %d", cum.Raw)
	}
}

func TestCounterEvaluateAndResetBetweenSamples(t *testing.T) {
	// The paper's measurement protocol: evaluate+reset active counters
	// around each computation sample.
	rt, reg := newInstrumentedRuntime(t, 2)
	if _, err := reg.AddActive("/threads{locality#0/total}/count/cumulative"); err != nil {
		t.Fatal(err)
	}
	runSample := func(k int) int64 {
		fs := make([]*Future[int], k)
		for i := range fs {
			fs[i] = AsyncF(rt, func() int { return 0 })
		}
		WaitAllOf(fs)
		settles(t, reg, "/threads{locality#0/total}/count/cumulative", int64(k))
		vals := reg.EvaluateActiveInto(nil, true)
		return vals[0].Raw
	}
	if got := runSample(30); got != 30 {
		t.Fatalf("sample 1 = %d", got)
	}
	if got := runSample(20); got != 20 {
		t.Fatalf("sample 2 = %d (reset between samples failed)", got)
	}
}

func TestCounterIdleRate(t *testing.T) {
	rt, reg := newInstrumentedRuntime(t, 2)
	// Let the workers idle a while.
	time.Sleep(30 * time.Millisecond)
	v, err := reg.Evaluate("/threads{locality#0/total}/idle-rate", false)
	if err != nil {
		t.Fatalf("Evaluate: %v", err)
	}
	// idle-rate is in 0.01% units: an idle runtime should be near 10000.
	if rate := v.Float64(); rate < 5000 {
		t.Fatalf("idle-rate = %v (runtime was idle)", rate)
	}
	_ = rt
}

func TestCounterPendingAndQueueLength(t *testing.T) {
	rt, reg := newInstrumentedRuntime(t, 1)
	block := make(chan struct{})
	// Occupy the single worker, then queue more tasks.
	head := AsyncF(rt, func() int { <-block; return 0 })
	time.Sleep(5 * time.Millisecond)
	tail := make([]*Future[int], 5)
	for i := range tail {
		tail[i] = AsyncF(rt, func() int { return 0 })
	}
	// The counter is the one pending sum shedding, the watchdog and the
	// inliner read, exact with tasks queued and at quiesce.
	pending := func(want int64) {
		t.Helper()
		v, err := reg.Evaluate("/threads{locality#0/total}/count/instantaneous/pending", false)
		if err != nil {
			t.Fatalf("Evaluate: %v", err)
		}
		if v.Raw != want || rt.pendingCount() != want {
			t.Fatalf("pending = %d, pendingCount() = %d, want %d", v.Raw, rt.pendingCount(), want)
		}
	}
	pending(5)
	a, _ := reg.Evaluate("/threads{locality#0/total}/count/instantaneous/active", false)
	if a.Raw != 1 {
		t.Fatalf("active = %d want 1", a.Raw)
	}
	close(block)
	head.Get()
	WaitAllOf(tail)
	pending(0)
	// A worker stops counting as executing once it leaves the task,
	// just after the task's future completes.
	settles(t, reg, "/threads{locality#0/total}/count/instantaneous/active", 0)
}

// settles waits up to 5 s for the counter name to read want.
func settles(t *testing.T, reg *core.Registry, name string, want int64) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for {
		v, err := reg.Evaluate(name, false)
		if err != nil {
			t.Fatalf("Evaluate(%q): %v", name, err)
		}
		if v.Raw == want {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("%s = %d, want %d", name, v.Raw, want)
		}
		time.Sleep(time.Millisecond)
	}
}

func TestCounterMemoryAndUptime(t *testing.T) {
	_, reg := newInstrumentedRuntime(t, 1)
	for _, name := range []string{
		"/runtime{locality#0/total}/memory/allocated",
		"/runtime{locality#0/total}/memory/resident",
		"/runtime{locality#0/total}/memory/total-allocated",
		"/runtime{locality#0/total}/uptime",
	} {
		v, err := reg.Evaluate(name, false)
		if err != nil {
			t.Fatalf("Evaluate(%q): %v", name, err)
		}
		if v.Raw <= 0 {
			t.Fatalf("%s = %d", name, v.Raw)
		}
	}
}

// TestCounterMemoryOneReadPerSweep: the three memory counters of one
// sweep share a single runtime/metrics read instead of paying one each.
func TestCounterMemoryOneReadPerSweep(t *testing.T) {
	rt, reg := newInstrumentedRuntime(t, 1)
	names, err := reg.Discover("/runtime{locality#0/total}/memory/*")
	if err != nil || len(names) != len(memCounters) {
		t.Fatalf("Discover = %v, %v; want the %d memory counters", names, err, len(memCounters))
	}
	full := make([]string, len(names))
	for i, n := range names {
		full[i] = n.String()
	}
	set, err := reg.BindSet(full)
	if err != nil {
		t.Fatal(err)
	}
	reads := func() int64 {
		rt.mem.mu.Lock()
		defer rt.mem.mu.Unlock()
		return rt.mem.reads
	}
	// A sweep descheduled for longer than memStatsMaxAge between two
	// counters legitimately re-reads, so a loaded machine gets retries.
	var got int64
	for try := 0; try < 5; try++ {
		time.Sleep(2 * memStatsMaxAge) // age out the previous sweep's read
		before := reads()
		for _, v := range set.EvaluateBatch(nil, false) {
			if v.Raw <= 0 {
				t.Fatalf("%s = %d", v.Name, v.Raw)
			}
		}
		if got = reads() - before; got == 1 {
			return
		}
	}
	t.Fatalf("one sweep of the memory counters cost %d metrics reads, want 1", got)
}

func TestCounterDiscoveryOfRuntimeCounters(t *testing.T) {
	rt, reg := newInstrumentedRuntime(t, 3)
	names, err := reg.Discover("/threads{locality#0/worker-thread#*}/time/average")
	if err != nil {
		t.Fatalf("Discover: %v", err)
	}
	if len(names) != rt.NumWorkers() {
		t.Fatalf("discovered %d worker counters, want %d: %v", len(names), rt.NumWorkers(), names)
	}
	types := reg.Types()
	var haveAvg, haveIdle bool
	for _, info := range types {
		if info.TypeName == "/threads/time/average" {
			haveAvg = true
		}
		if info.TypeName == "/threads/idle-rate" {
			haveIdle = true
		}
	}
	if !haveAvg || !haveIdle {
		t.Fatalf("expected counter types missing from %d types", len(types))
	}
}

func TestStatisticsOverRuntimeCounter(t *testing.T) {
	// Integration: a /statistics meta counter over a live runtime
	// counter.
	rt, reg := newInstrumentedRuntime(t, 2)
	c, err := reg.Get("/statistics{/threads{locality#0/total}/count/cumulative}/max@100")
	if err != nil {
		t.Fatalf("Get: %v", err)
	}
	sc := c.(*core.StatisticsCounter)
	for i := 0; i < 3; i++ {
		fs := make([]*Future[int], 10)
		for j := range fs {
			fs[j] = AsyncF(rt, func() int { return 0 })
		}
		WaitAllOf(fs)
		// A future completes before its worker books the task: sample
		// once the wave is counted, as the paper's protocol reads a
		// quiesced runtime.
		settles(t, reg, "/threads{locality#0/total}/count/cumulative", int64(10*(i+1)))
		sc.Sample()
	}
	if got := sc.Value(false).Float64(); got != 30 {
		t.Fatalf("max cumulative = %v", got)
	}
}

func TestCounterNamesWellFormed(t *testing.T) {
	_, reg := newInstrumentedRuntime(t, 2)
	names, err := reg.Discover("/threads/count/cumulative")
	if err != nil {
		t.Fatal(err)
	}
	for _, n := range names {
		if _, err := core.ParseName(n.String()); err != nil {
			t.Errorf("registered counter name %q does not re-parse: %v", n, err)
		}
		if !strings.HasPrefix(n.String(), "/threads{locality#0/") {
			t.Errorf("unexpected instance prefix in %q", n)
		}
	}
}

// busySpin spins for roughly d without sleeping, so task duration is
// attributable CPU time even on a loaded host.
func busySpin(d time.Duration) {
	end := time.Now().Add(d)
	for time.Now().Before(end) {
	}
}
