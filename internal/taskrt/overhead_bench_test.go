package taskrt

// The real-runtime analogue of the paper's Section VI overhead table:
// how much does intrinsic-counter monitoring cost, as a fraction of the
// task grain? The paper's claim is 0-10 % for HPX; this harness measures
// the same quantity for taskrt by running batches of tasks whose bodies
// busy-spin for a known grain and comparing a bare run against a run
// with the full counter set registered and sampled at 1 kHz (the
// perfcli --print-counter-interval access pattern).
//
// Two numbers come out per grain:
//
//   - sched_overhead_pct: (per-task wall time - serial body cost) /
//     serial body cost, with the body cost calibrated by running the
//     same spin loop outside the runtime. The Task Bench "minimum
//     effective task granularity" view: how small a task can be before
//     the runtime's own spawn/steal/accounting path dominates.
//   - counter_sampling_overhead_pct: relative slowdown from concurrent
//     counter evaluation. This is the paper's intrinsic-counter cost.
//
// `scripts/bench.sh` persists the table to BENCH_taskrt.json via
// TestWriteBenchJSON so the perf trajectory is tracked across PRs.

import (
	"encoding/json"
	"fmt"
	"os"
	"runtime"
	"testing"
	"time"

	"repro/internal/apex"
	"repro/internal/core"
)

// spin busy-waits for d, the standard Inncabs-style synthetic grain.
func spin(d time.Duration) {
	start := time.Now()
	for time.Since(start) < d {
	}
}

// totalCounterPatterns is the counter set a monitoring session would
// watch, matching the paper's per-run counter selection.
func totalCounterPatterns() []string {
	return []string{
		"/threads{locality#0/total}/count/cumulative",
		"/threads{locality#0/total}/time/average",
		"/threads{locality#0/total}/time/average-overhead",
		"/threads{locality#0/total}/time/cumulative",
		"/threads{locality#0/total}/time/cumulative-overhead",
		"/threads{locality#0/total}/idle-rate",
		"/threads{locality#0/total}/count/stolen",
		"/threads{locality#0/total}/count/instantaneous/pending",
	}
}

// runGrainLoad executes nTasks tasks of the given grain from a root
// worker task and returns the elapsed wall time of the whole run. It
// uses the fast spawn surface a tuned wide node uses: one batch spawn
// per wave (one deque-window publish, one notify), the known grain
// passed as the adaptive-inline hint, and futures recycled with
// Release so the steady state allocates nothing.
func runGrainLoad(rt *Runtime, nTasks int, grain time.Duration) time.Duration {
	const wave = 256 // bounded fan-out per wait, like the Inncabs loops
	grainNs := grain.Nanoseconds()
	root := AsyncF(rt, func() time.Duration {
		body := func() int { spin(grain); return 1 }
		fns := make([]func() int, wave)
		for i := range fns {
			fns[i] = body
		}
		begin := time.Now()
		for remaining := nTasks; remaining > 0; {
			n := wave
			if remaining < n {
				n = remaining
			}
			fs := AsyncBatchGrain(rt, grainNs, fns[:n])
			WaitAllOf(fs)
			ReleaseAll(fs)
			remaining -= n
		}
		return time.Since(begin)
	})
	return root.Get()
}

// measureGrain times one batch, optionally with the counter set
// registered and polled at interval during the run, optionally with
// the default watchdog sweeping the health heuristics, and optionally
// with causal tracing recording every task.
func measureGrain(workers, nTasks int, grain time.Duration, sampled, watchdog, traced bool) time.Duration {
	rt := New(WithWorkers(workers), WithAdaptiveInlining())
	defer rt.Shutdown()
	if watchdog {
		e := apex.NewEngine()
		_ = e.Add(rt.Watchdog(WatchdogConfig{}))
		e.Start()
		defer e.Stop()
	}
	if traced {
		rt.EnableTracing(nTasks + 16) // roomy: no drops during the measurement
	}

	stop := make(chan struct{})
	samplerDone := make(chan struct{})
	if sampled {
		reg := core.NewRegistry()
		if err := rt.RegisterCounters(reg); err != nil {
			panic(err)
		}
		for _, p := range totalCounterPatterns() {
			if _, err := reg.AddActive(p); err != nil {
				panic(err)
			}
		}
		// Sample the published active set into a reused buffer — the
		// intended steady-state monitoring loop: no name parsing, no
		// sorting, no allocation per tick.
		buf := make([]core.Value, 0, len(reg.Active()))
		go func() {
			defer close(samplerDone)
			tick := time.NewTicker(time.Millisecond)
			defer tick.Stop()
			for {
				select {
				case <-stop:
					return
				case <-tick.C:
					buf = reg.EvaluateActiveInto(buf, false)
				}
			}
		}()
	} else {
		close(samplerDone)
	}
	elapsed := runGrainLoad(rt, nTasks, grain)
	close(stop)
	<-samplerDone
	return elapsed
}

// grainPoint is one row of the overhead-vs-grain table. BodyUs is the
// calibrated serial cost of one task body — what the same work costs
// with no runtime under it — and is the baseline the overhead
// percentage is computed against.
type grainPoint struct {
	GrainUs            float64 `json:"grain_us"`
	BodyUs             float64 `json:"body_us"`
	Tasks              int     `json:"tasks"`
	PerTaskUs          float64 `json:"per_task_us"`
	SchedOverheadPct   float64 `json:"sched_overhead_pct"`
	CounterOverheadPct float64 `json:"counter_sampling_overhead_pct"`
	SampledPerTaskUs   float64 `json:"sampled_per_task_us"`
}

// calibrateBodyNs measures the serial per-iteration cost of the spin
// body outside the runtime. spin overshoots its nominal grain by one
// clock-poll interval (~10 % at 1 µs on a slow clock), and that
// overshoot is work the body does, not work the scheduler adds — the
// Task Bench efficiency metric divides by the serial time for the same
// reason. Minimum over reps runs.
func calibrateBodyNs(grain time.Duration, reps int) float64 {
	// Short exposures: on a shared vCPU a long serial run eats steal
	// time that the per-wave runtime runs dodge, so keep each rep well
	// under a scheduling quantum and take the minimum.
	n := tasksForGrain(grain)
	if n > 1000 {
		n = 1000
	}
	for int64(n)*grain.Nanoseconds() > 20e6 && n > 10 {
		n /= 2
	}
	best := float64(1 << 62)
	for r := 0; r < reps; r++ {
		begin := time.Now()
		for i := 0; i < n; i++ {
			spin(grain)
		}
		if v := float64(time.Since(begin).Nanoseconds()) / float64(n); v < best {
			best = v
		}
	}
	return best
}

// overheadGrains is the sweep the paper's Section VI covers (HPX showed
// fine grains where the runtime saturates and coarse grains where
// counters are free).
var overheadGrains = []time.Duration{
	1 * time.Microsecond,
	10 * time.Microsecond,
	100 * time.Microsecond,
	1 * time.Millisecond,
}

// tasksForGrain sizes the batch so each measurement runs long enough to
// average out scheduler noise without making the sweep minutes long.
func tasksForGrain(g time.Duration) int {
	const budget = 150 * time.Millisecond
	n := int(budget / g)
	if n > 20000 {
		n = 20000
	}
	if n < 100 {
		n = 100
	}
	return n
}

// measureGrainPoint produces one table row, taking the minimum of reps
// runs to suppress scheduling noise.
func measureGrainPoint(workers int, grain time.Duration, reps int) grainPoint {
	nTasks := tasksForGrain(grain)
	best := func(sampled bool) time.Duration {
		min := time.Duration(1<<62 - 1)
		for i := 0; i < reps; i++ {
			if d := measureGrain(workers, nTasks, grain, sampled, false, false); d < min {
				min = d
			}
		}
		return min
	}
	bare := best(false)
	sampled := best(true)
	bodyNs := calibrateBodyNs(grain, 3)
	perTask := float64(bare.Nanoseconds()) / float64(nTasks)
	// Per-worker ideal: the measured serial body cost spread over the
	// pool. A pool wider than the machine cannot run more than NumCPU
	// bodies at once, so the ideal is bounded by the effective
	// parallelism — otherwise an oversubscribed sweep reports phantom
	// overhead.
	eff := workers
	if n := runtime.NumCPU(); eff > n {
		eff = n
	}
	ideal := bodyNs * float64(nTasks) / float64(eff)
	schedPct := (float64(bare.Nanoseconds()) - ideal) / ideal * 100
	if schedPct < 0 {
		schedPct = 0 // calibration noise: the runtime cannot beat the serial body
	}
	counterPct := (float64(sampled.Nanoseconds()) - float64(bare.Nanoseconds())) /
		float64(bare.Nanoseconds()) * 100
	if counterPct < 0 {
		counterPct = 0 // run-to-run noise: sampling cannot speed the run up
	}
	return grainPoint{
		GrainUs:            float64(grain.Nanoseconds()) / 1e3,
		BodyUs:             bodyNs / 1e3,
		Tasks:              nTasks,
		PerTaskUs:          perTask / 1e3,
		SchedOverheadPct:   schedPct,
		CounterOverheadPct: counterPct,
		SampledPerTaskUs:   float64(sampled.Nanoseconds()) / float64(nTasks) / 1e3,
	}
}

// measureWatchdogOverheadPct compares the 10 µs grain batch with and
// without the default watchdog (100 ms sweeps over per-worker atomics).
// The watchdog only reads counters the scheduler already maintains, so
// the issue budgets it at <= 1 % on this grain.
func measureWatchdogOverheadPct(workers, reps int) float64 {
	const grain = 10 * time.Microsecond
	nTasks := tasksForGrain(grain)
	// Interleave the two configurations so machine-load drift hits both
	// minima equally; an unpaired min-of-N can swing several percent.
	bare := time.Duration(1<<62 - 1)
	guarded := bare
	for i := 0; i < reps; i++ {
		if d := measureGrain(workers, nTasks, grain, false, false, false); d < bare {
			bare = d
		}
		if d := measureGrain(workers, nTasks, grain, false, true, false); d < guarded {
			guarded = d
		}
	}
	pct := (float64(guarded.Nanoseconds()) - float64(bare.Nanoseconds())) /
		float64(bare.Nanoseconds()) * 100
	if pct < 0 {
		pct = 0 // run-to-run noise: the watchdog cannot speed the run up
	}
	return pct
}

// measureTracingOverheadPct compares the 10 µs grain batch with and
// without causal tracing. Tracing allocates a taskMeta per spawn,
// captures the spawn stack's raw PCs, and stages one event per task
// beside its counters; its budget is <= 25 % on this grain. The
// tracing-OFF path adds only one atomic tracer load per task over the
// previous runtime, which is below measurement noise — the bare
// configuration here IS the tracing-off cost, tracked across
// PRs through SpawnGetNs and the grain table in BENCH_taskrt.json.
func measureTracingOverheadPct(workers, reps int) float64 {
	const grain = 10 * time.Microsecond
	nTasks := tasksForGrain(grain)
	// Interleaved minima, like the watchdog measurement: machine-load
	// drift hits both configurations equally.
	bare := time.Duration(1<<62 - 1)
	traced := bare
	for i := 0; i < reps; i++ {
		if d := measureGrain(workers, nTasks, grain, false, false, false); d < bare {
			bare = d
		}
		if d := measureGrain(workers, nTasks, grain, false, false, true); d < traced {
			traced = d
		}
	}
	pct := (float64(traced.Nanoseconds()) - float64(bare.Nanoseconds())) /
		float64(bare.Nanoseconds()) * 100
	if pct < 0 {
		pct = 0 // run-to-run noise: tracing cannot speed the run up
	}
	return pct
}

// TestTracingOverheadWithinBudget asserts causal tracing's cost at the
// 10 µs grain stays within the issue's 25 % budget.
func TestTracingOverheadWithinBudget(t *testing.T) {
	if testing.Short() {
		t.Skip("timing measurement; skipped in -short mode")
	}
	if raceEnabled {
		t.Skip("timing measurement; the race detector skews the ratio")
	}
	pct := measureTracingOverheadPct(runtime.GOMAXPROCS(0), 5)
	t.Logf("tracing overhead at 10µs grain: %.2f%%", pct)
	if pct > 25 {
		t.Errorf("tracing overhead %.2f%% exceeds the 25%% budget", pct)
	}
}

// TestWatchdogOverheadWithinBudget asserts the watchdog's cost on the
// 10 µs grain stays within budget. The design figure is <= 1 %; the CI
// assertion leaves the same noise margin as the counter-overhead test.
func TestWatchdogOverheadWithinBudget(t *testing.T) {
	if testing.Short() {
		t.Skip("timing measurement; skipped in -short mode")
	}
	if raceEnabled {
		t.Skip("timing measurement; the race detector skews the ratio")
	}
	pct := measureWatchdogOverheadPct(runtime.GOMAXPROCS(0), 5)
	t.Logf("watchdog overhead at 10µs grain: %.2f%%", pct)
	if pct > 5 {
		t.Errorf("watchdog overhead %.2f%% exceeds budget", pct)
	}
}

// BenchmarkOverheadGrain reports per-task cost and overhead percentages
// for each grain; run with -bench=OverheadGrain -benchtime=1x.
func BenchmarkOverheadGrain(b *testing.B) {
	workers := runtime.GOMAXPROCS(0)
	for _, g := range overheadGrains {
		g := g
		b.Run(fmt.Sprintf("grain=%v", g), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				p := measureGrainPoint(workers, g, 1)
				b.ReportMetric(p.SchedOverheadPct, "sched-overhead-%")
				b.ReportMetric(p.CounterOverheadPct, "counter-overhead-%")
				b.ReportMetric(p.PerTaskUs*1e3, "ns/task")
			}
		})
	}
}

// TestCounterOverheadWithinPaperBudget asserts the paper's headline
// claim on the real runtime: at coarse grains (>= 100 µs) the intrinsic
// counters plus a 1 kHz sampler must cost <= 10 % of the grain. Skipped
// in -short mode (it is a timing measurement, ~2 s).
func TestCounterOverheadWithinPaperBudget(t *testing.T) {
	if testing.Short() {
		t.Skip("timing measurement; skipped in -short mode")
	}
	if raceEnabled {
		t.Skip("timing measurement; the race detector skews the ratio")
	}
	workers := runtime.GOMAXPROCS(0)
	for _, g := range []time.Duration{100 * time.Microsecond, time.Millisecond} {
		p := measureGrainPoint(workers, g, 3)
		t.Logf("grain=%v per-task=%.1fµs sched=%.1f%% counters=%.1f%%",
			g, p.PerTaskUs, p.SchedOverheadPct, p.CounterOverheadPct)
		// Generous CI margin over the 10 % claim: shared runners can
		// inflate any single timing run. BENCH_taskrt.json records the
		// quiet-machine numbers.
		if p.CounterOverheadPct > 25 {
			t.Errorf("grain %v: counter sampling overhead %.1f%% exceeds budget",
				g, p.CounterOverheadPct)
		}
	}
}

// TestBenchGate is the CI perf budget (scripts/bench.sh and the CI
// bench smoke run it with TASKRT_BENCH_GATE=1). Live measurements:
// the 1 µs grain counter-sampling overhead (≤ 8 %), the 1 µs grain
// scheduling overhead (≤ 40 % — the fine-grain budget batch spawn and
// adaptive inlining exist to hold), the spawn+get round trip (≤ 2×
// the committed BENCH_taskrt.json "current" baseline) and the batch
// per-child spawn cost (≤ 1.08× its committed baseline). Every budget
// leaves headroom over the quiet-machine numbers so shared-runner
// noise does not flake the gate while real regressions — a lock back
// on the sampling path, a per-child notify in the batch publish —
// blow straight through it.
func TestBenchGate(t *testing.T) {
	if os.Getenv("TASKRT_BENCH_GATE") == "" {
		t.Skip("set TASKRT_BENCH_GATE=1 to enforce the perf budgets")
	}
	if raceEnabled {
		t.Skip("timing measurement; the race detector skews the ratio")
	}
	workers := runtime.GOMAXPROCS(0)

	p := measureGrainPoint(workers, 1*time.Microsecond, 3)
	t.Logf("1µs grain: counter sampling overhead %.2f%% (budget 8%%), sched overhead %.2f%% (budget 40%%)",
		p.CounterOverheadPct, p.SchedOverheadPct)
	if p.CounterOverheadPct > 8 {
		t.Errorf("counter sampling overhead at 1µs grain is %.2f%%, budget is 8%%",
			p.CounterOverheadPct)
	}
	// The fine-grain scheduling budget: batch spawn + adaptive inlining
	// must keep the runtime's own share of a 1 µs task under 40 % (the
	// pre-batching runtime sat near 80 %).
	if p.SchedOverheadPct > 40 {
		t.Errorf("sched overhead at 1µs grain is %.2f%%, budget is 40%%", p.SchedOverheadPct)
	}

	baselinePath := os.Getenv("TASKRT_BENCH_BASELINE")
	if baselinePath == "" {
		baselinePath = "../../BENCH_taskrt.json"
	}
	raw, err := os.ReadFile(baselinePath)
	if err != nil {
		t.Fatalf("read baseline %s: %v", baselinePath, err)
	}
	var doc struct {
		Current struct {
			SpawnGetNs   float64 `json:"spawn_get_ns"`
			BatchSpawnNs float64 `json:"batch_spawn_ns"`
		} `json:"current"`
	}
	if err := json.Unmarshal(raw, &doc); err != nil {
		t.Fatalf("parse baseline: %v", err)
	}
	if doc.Current.SpawnGetNs <= 0 {
		t.Fatalf("baseline %s has no current.spawn_get_ns", baselinePath)
	}
	spawn := measureSpawnGetNs()
	t.Logf("spawn+get: %.1f ns (baseline %.1f ns, budget 2×)", spawn, doc.Current.SpawnGetNs)
	if spawn > 2*doc.Current.SpawnGetNs {
		t.Errorf("spawn+get %.1f ns regressed more than 2× over the committed %.1f ns",
			spawn, doc.Current.SpawnGetNs)
	}
	if doc.Current.BatchSpawnNs > 0 {
		// The batch path's budget is much tighter than spawn+get's 2×:
		// its whole point is a stable low per-child constant, so more
		// than 8 % over the committed number is a regression. Min of
		// several runs keeps machine noise out of the comparison.
		batch := measureBatchSpawnNs()
		for i := 0; i < 4; i++ {
			if b := measureBatchSpawnNs(); b < batch {
				batch = b
			}
		}
		t.Logf("batch spawn: %.1f ns/child (baseline %.1f ns, budget +8%%)",
			batch, doc.Current.BatchSpawnNs)
		if batch > 1.08*doc.Current.BatchSpawnNs {
			t.Errorf("batch spawn %.1f ns/child regressed more than 8%% over the committed %.1f ns",
				batch, doc.Current.BatchSpawnNs)
		}
	}
}

// benchReport is the schema of BENCH_taskrt.json.
type benchReport struct {
	GeneratedBy  string  `json:"generated_by"`
	CPU          string  `json:"cpu"`
	Workers      int     `json:"workers"`
	SpawnGetNs   float64 `json:"spawn_get_ns"`
	BatchSpawnNs float64 `json:"batch_spawn_ns"`
	GoidNs       float64 `json:"goroutine_id_ns"`
	LookupNs     float64 `json:"current_worker_lookup_ns"`
	WatchdogPct  float64 `json:"watchdog_overhead_pct_10us"`
	TracingPct   float64 `json:"tracing_overhead_pct_10us"`
	// Adaptive-inline decision state after the 1 µs grain run: the
	// /runtime{locality#0/total}/grain/* counter values.
	InlineThresholdNs int64              `json:"inline_threshold_ns"`
	GrainInlined      int64              `json:"grain_inlined"`
	GrainSpawned      int64              `json:"grain_spawned"`
	Grains            []grainPoint       `json:"overhead_by_grain"`
	WorkerSweep       []workerSweepPoint `json:"overhead_by_workers"`
}

// workerSweepPoint is one row of the workers×grain sweep: the same
// sched-overhead quantity as the grain table, at an explicit pool
// width, so the batch/steal path is exercised beyond one worker.
type workerSweepPoint struct {
	Workers          int     `json:"workers"`
	GrainUs          float64 `json:"grain_us"`
	PerTaskUs        float64 `json:"per_task_us"`
	SchedOverheadPct float64 `json:"sched_overhead_pct"`
}

// measureSpawnGetNs times the canonical spawn+join round trip from a
// worker task (the BenchmarkSpawnGet loop, without the testing harness).
// The loop recycles each future, so it times the allocation-free fused
// lifecycle a spawn-heavy caller gets. Minimum over a few short runs:
// one long run is a sitting target for vCPU steal.
func measureSpawnGetNs() float64 {
	rt := New(WithWorkers(1))
	defer rt.Shutdown()
	const n = 5000
	best := float64(1 << 62)
	for r := 0; r < 4; r++ {
		root := AsyncF(rt, func() time.Duration {
			begin := time.Now()
			for i := 0; i < n; i++ {
				f := AsyncF(rt, func() int { return 1 })
				f.Get()
				f.Release()
			}
			return time.Since(begin)
		})
		if v := float64(root.Get().Nanoseconds()) / n; v < best {
			best = v
		}
	}
	return best
}

// measureBatchSpawnNs times the per-child cost of the batch spawn path:
// AsyncBatch waves of empty tasks, joined and recycled, from a worker
// task. The quantity TestBenchGate budgets against regression.
func measureBatchSpawnNs() float64 {
	rt := New(WithWorkers(1))
	defer rt.Shutdown()
	const wave = 256
	const waves = 20
	best := float64(1 << 62)
	for r := 0; r < 3; r++ {
		root := AsyncF(rt, func() time.Duration {
			body := func() int { return 1 }
			fns := make([]func() int, wave)
			for i := range fns {
				fns[i] = body
			}
			begin := time.Now()
			for i := 0; i < waves; i++ {
				fs := AsyncBatch(rt, fns)
				WaitAllOf(fs)
				ReleaseAll(fs)
			}
			return time.Since(begin)
		})
		if v := float64(root.Get().Nanoseconds()) / (wave * waves); v < best {
			best = v
		}
	}
	return best
}

func measureNs(n int, fn func()) float64 {
	begin := time.Now()
	for i := 0; i < n; i++ {
		fn()
	}
	return float64(time.Since(begin).Nanoseconds()) / float64(n)
}

// TestWriteBenchJSON regenerates the "current" section of
// BENCH_taskrt.json (path in TASKRT_BENCH_JSON), preserving any other
// top-level sections (e.g. the committed seed baseline). Driven by
// scripts/bench.sh; skipped otherwise.
func TestWriteBenchJSON(t *testing.T) {
	path := os.Getenv("TASKRT_BENCH_JSON")
	if path == "" {
		t.Skip("set TASKRT_BENCH_JSON=<path> to regenerate the benchmark record")
	}
	workers := runtime.GOMAXPROCS(0)
	rep := benchReport{
		GeneratedBy:  "go test -run TestWriteBenchJSON (scripts/bench.sh)",
		CPU:          runtime.GOARCH,
		Workers:      workers,
		SpawnGetNs:   measureSpawnGetNs(),
		BatchSpawnNs: measureBatchSpawnNs(),
		GoidNs:       measureNs(100000, func() { goroutineID() }),
		WatchdogPct:  measureWatchdogOverheadPct(workers, 8),
		TracingPct:   measureTracingOverheadPct(workers, 8),
	}
	rt := New(WithWorkers(1))
	rep.LookupNs = measureNs(100000, func() { rt.currentWorker() })
	rt.Shutdown()
	// Grain counters: one 1 µs run on a fresh adaptive runtime, its
	// /grain/* decision state snapshotted after the load drains.
	grt := New(WithWorkers(workers), WithAdaptiveInlining())
	runGrainLoad(grt, tasksForGrain(time.Microsecond), time.Microsecond)
	rep.InlineThresholdNs = grt.InlineThresholdNs()
	rep.GrainInlined = grt.GrainInlined()
	rep.GrainSpawned = grt.GrainSpawned()
	grt.Shutdown()
	for _, g := range overheadGrains {
		rep.Grains = append(rep.Grains, measureGrainPoint(workers, g, 3))
	}
	// Pool-width sweep: the 1 and 10 µs grains at 1 and 4 workers, so
	// the batch publish is drained by thieves as well as by its owner.
	for _, w := range []int{1, 4} {
		for _, g := range []time.Duration{time.Microsecond, 10 * time.Microsecond} {
			p := measureGrainPoint(w, g, 2)
			rep.WorkerSweep = append(rep.WorkerSweep, workerSweepPoint{
				Workers:          w,
				GrainUs:          p.GrainUs,
				PerTaskUs:        p.PerTaskUs,
				SchedOverheadPct: p.SchedOverheadPct,
			})
		}
	}

	doc := map[string]json.RawMessage{}
	if prev, err := os.ReadFile(path); err == nil {
		_ = json.Unmarshal(prev, &doc) // keep unknown sections on failure below
	}
	cur, err := json.MarshalIndent(rep, "  ", "  ")
	if err != nil {
		t.Fatal(err)
	}
	doc["current"] = cur
	out, err := json.MarshalIndent(doc, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, append(out, '\n'), 0o644); err != nil {
		t.Fatal(err)
	}
	t.Logf("wrote %s", path)
}
