package telemetry

// Benchmark record for the budgeted-sampling plane: run a 1µs-grain
// task workload on the real runtime with the budgeted collector armed
// at a 1% overhead budget, let the controller converge, and record the
// convergence trajectory and final measured overhead into the
// "telemetry_budget" section of BENCH_taskrt.json. The assertion —
// measured overhead at or under budget after convergence — runs here
// too, so regenerating the record is also the acceptance check.

import (
	"encoding/json"
	"os"
	"runtime"
	"sync"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/taskrt"
)

type telemetryBudgetReport struct {
	GeneratedBy      string  `json:"generated_by"`
	Workers          int     `json:"workers"`
	GrainUs          float64 `json:"workload_grain_us"`
	BudgetPct        float64 `json:"budget_pct"`
	BaseIntervalMs   float64 `json:"base_interval_ms"`
	WindowMs         float64 `json:"window_ms"`
	ConvergedWindows int     `json:"converged_after_windows"`
	FinalOverheadPct float64 `json:"final_measured_overhead_pct"`
	FinalIntervalMs  float64 `json:"final_interval_ms"`
	FinalLevel       int     `json:"final_degradation_level"`
	Demotions        int64   `json:"demotions"`
	EvalCostNsPerSwp float64 `json:"eval_cost_ns_per_sweep"`
	ActiveCounters   int     `json:"active_counters_full_set"`
	TasksPerSecond   float64 `json:"workload_tasks_per_second"`
}

// TestWriteTelemetryBudgetJSON regenerates the "telemetry_budget"
// section of BENCH_taskrt.json (path in TASKRT_BENCH_JSON), preserving
// every other top-level section. Driven by scripts/bench.sh; skipped
// otherwise. Every number here is a timing — run on a quiet machine.
func TestWriteTelemetryBudgetJSON(t *testing.T) {
	path := os.Getenv("TASKRT_BENCH_JSON")
	if path == "" {
		t.Skip("set TASKRT_BENCH_JSON=<path> to regenerate the benchmark record")
	}
	workers := runtime.GOMAXPROCS(0)
	const (
		grain        = time.Microsecond // the paper's finest-grain regime
		budgetPct    = 1.0
		baseInterval = MinInterval // start deliberately hot: 1ms sweeps
		window       = 50 * time.Millisecond
		maxWindows   = 60
	)

	rt := taskrt.New(taskrt.WithWorkers(workers))
	defer rt.Shutdown()
	reg := core.NewRegistry()
	if err := rt.RegisterCounters(reg); err != nil {
		t.Fatal(err)
	}
	for _, pat := range []string{
		"/runtime{locality#0/total}/health/events",
		"/threads{locality#0/total}/count/cumulative",
		"/threads{locality#0/total}/time/average",
		"/threads{locality#0/total}/idle-rate",
		"/threads{locality#0/worker-thread#*}/count/cumulative",
		"/threads{locality#0/worker-thread#*}/time/average",
		"/counters{locality#0/total}/cost/eval-ns",
		"/counters{locality#0/total}/cost/per-counter",
	} {
		if _, err := reg.AddActive(pat); err != nil {
			t.Fatalf("%s: %v", pat, err)
		}
	}
	// One deliberately expensive debug-tier counter: the over-budget
	// condition the controller must degrade its way out of (the
	// "telemetry degradation" scenario from FAULTS.md).
	exp := core.Name{Object: "threads", Counter: "statistics/expensive"}.
		WithInstances(core.LocalityInstance(0, "total", -1)...)
	reg.MustRegister(core.NewFuncCounter(exp, core.Info{TypeName: "/threads/statistics/expensive"}, 1,
		func() int64 {
			time.Sleep(200 * time.Microsecond)
			return 1
		}, nil))
	if _, err := reg.AddActive(exp.String()); err != nil {
		t.Fatal(err)
	}
	fullSet := len(reg.EvaluateActiveInto(nil, false))

	// The 1µs-grain workload: spawn-and-join spinning tasks for the
	// whole measurement. The generator yields between spawns so the
	// workload does not saturate every core — on a saturated machine
	// wall-clock cost metering measures scheduler delay, not sampling
	// work, and no sampling rate is "affordable".
	stopWork := make(chan struct{})
	var wg sync.WaitGroup
	var tasks int64
	var tasksMu sync.Mutex
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			n := int64(0)
			for {
				select {
				case <-stopWork:
					tasksMu.Lock()
					tasks += n
					tasksMu.Unlock()
					return
				default:
				}
				f := taskrt.AsyncF(rt, func() int {
					for begin := time.Now(); time.Since(begin) < grain; {
					}
					return 1
				})
				f.Get()
				n++
				time.Sleep(200 * time.Microsecond)
			}
		}()
	}
	workStart := time.Now()

	col := NewBudgetedCollector(NewSampler(256), reg, baseInterval,
		Budget{Fraction: budgetPct / 100, Window: window}, false)
	col.Start()

	// Convergence: first window after which the controller holds the
	// overhead at or under budget.
	converged := -1
	for w := 1; w <= maxWindows; w++ {
		time.Sleep(window)
		if col.Controller.HeadroomPPM() >= 0 && col.Controller.OverheadPPM() > 0 {
			converged = w
			break
		}
	}

	// Final overhead: a clean trailing measurement from the registry's
	// own cost meter, after the controller settled.
	_, _, ns0 := reg.SamplingCost()
	t0 := time.Now()
	time.Sleep(4 * window)
	_, _, ns1 := reg.SamplingCost()
	elapsed := time.Since(t0)
	finalPct := 100 * float64(ns1-ns0) / float64(elapsed.Nanoseconds())

	col.Stop()
	close(stopWork)
	wg.Wait()
	workElapsed := time.Since(workStart)

	sweeps, _, costNs := reg.SamplingCost()
	perSweep := 0.0
	if sweeps > 0 {
		perSweep = float64(costNs) / float64(sweeps)
	}
	rep := telemetryBudgetReport{
		GeneratedBy:      "go test -run TestWriteTelemetryBudgetJSON (scripts/bench.sh)",
		Workers:          workers,
		GrainUs:          float64(grain) / float64(time.Microsecond),
		BudgetPct:        budgetPct,
		BaseIntervalMs:   float64(baseInterval) / float64(time.Millisecond),
		WindowMs:         float64(window) / float64(time.Millisecond),
		ConvergedWindows: converged,
		FinalOverheadPct: finalPct,
		FinalIntervalMs:  float64(col.Interval()) / float64(time.Millisecond),
		FinalLevel:       col.Controller.Level(),
		Demotions:        col.Controller.Demotions(),
		EvalCostNsPerSwp: perSweep,
		ActiveCounters:   fullSet,
		TasksPerSecond:   float64(tasks) / workElapsed.Seconds(),
	}
	t.Logf("telemetry_budget: %+v", rep)

	// The acceptance assertion: the controller found a configuration at
	// or under the 1%% budget.
	if converged < 0 {
		t.Errorf("budget controller did not converge within %d windows (overhead %d ppm)",
			maxWindows, col.Controller.OverheadPPM())
	}
	// Allow scheduling jitter on the trailing measurement: the budget
	// is 1%, the dead band upper edge; 1.5% here means control failed.
	if finalPct > 1.5*budgetPct {
		t.Errorf("final measured overhead %.3f%% exceeds budget %.1f%%", finalPct, budgetPct)
	}

	doc := map[string]json.RawMessage{}
	if prev, err := os.ReadFile(path); err == nil {
		_ = json.Unmarshal(prev, &doc)
	}
	cur, err := json.MarshalIndent(rep, "  ", "  ")
	if err != nil {
		t.Fatal(err)
	}
	doc["telemetry_budget"] = cur
	out, err := json.MarshalIndent(doc, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, append(out, '\n'), 0o644); err != nil {
		t.Fatal(err)
	}
	t.Logf("wrote %s", path)
}
