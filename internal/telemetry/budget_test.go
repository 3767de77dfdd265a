package telemetry

import (
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/core"
)

// budgetTestRegistry builds a registry with counters across all three
// tiers: a critical health counter, normal totals, per-worker debug
// counters, and one deliberately expensive debug FuncCounter whose
// evaluation sleeps for expensiveCost.
func budgetTestRegistry(t testing.TB, expensiveCost time.Duration) (*core.Registry, *atomic.Int64) {
	t.Helper()
	reg := core.NewRegistry()
	reg.MustRegister(core.NewRawCounter(
		core.Name{Object: "runtime", Counter: "health/events"}.
			WithInstances(core.LocalityInstance(0, "total", -1)...),
		core.Info{TypeName: "/runtime/health/events"}))
	reg.MustRegister(core.NewRawCounter(
		core.Name{Object: "threads", Counter: "count/cumulative"}.
			WithInstances(core.LocalityInstance(0, "total", -1)...),
		core.Info{TypeName: "/threads/count/cumulative"}))
	for i := 0; i < 4; i++ {
		reg.MustRegister(core.NewRawCounter(
			core.Name{Object: "threads", Counter: "count/cumulative"}.
				WithInstances(core.LocalityInstance(0, "worker-thread", int64(i))...),
			core.Info{TypeName: "/threads/count/cumulative"}))
	}
	var evals atomic.Int64
	reg.MustRegister(core.NewFuncCounter(
		core.Name{Object: "threads", Counter: "time/average"}.
			WithInstances(core.LocalityInstance(0, "worker-thread", 0)...),
		core.Info{TypeName: "/threads/time/average"}, 0,
		func() int64 {
			evals.Add(1)
			if expensiveCost > 0 {
				time.Sleep(expensiveCost)
			}
			return 1
		}, nil))
	for _, p := range []string{
		"/runtime{locality#0/total}/health/events",
		"/threads{locality#0/total}/count/cumulative",
		"/threads{locality#0/worker-thread#*}/count/cumulative",
		"/threads{locality#0/worker-thread#0}/time/average",
	} {
		if _, err := reg.AddActive(p); err != nil {
			t.Fatalf("AddActive(%q): %v", p, err)
		}
	}
	return reg, &evals
}

func TestDefaultTiers(t *testing.T) {
	cases := []struct {
		name string
		want Priority
	}{
		{"/runtime{locality#0/total}/health/events", PriorityCritical},
		{"/runtime{locality#0/total}/health/callback-errors", PriorityCritical},
		{"/counters{locality#0/total}/cost/eval-ns", PriorityCritical},
		{"/telemetry{locality#0/total}/budget/headroom", PriorityCritical},
		{"/telemetry{locality#0/total}/flight/triggers", PriorityCritical},
		{"/counters{locality#0/total}/count/errors", PriorityCritical},
		{"/threads{locality#0/total}/count/cumulative", PriorityNormal},
		{"/threads{locality#0/total}/idle-rate", PriorityNormal},
		{"/threads{locality#0/worker-thread#3}/count/cumulative", PriorityDebug},
		{"/statistics{/threads{locality#0/total}/time/average}/percentile@95", PriorityDebug},
	}
	for _, c := range cases {
		if got := DefaultTiers(c.name); got != c.want {
			t.Errorf("DefaultTiers(%q) = %s, want %s", c.name, got, c.want)
		}
	}
}

// TestTieredSourceLevels: level 0 samples everything, level 1 drops
// exactly the debug tier, level 2 leaves only critical — and a
// registry change (new counter in the active set) is picked up through
// the generation check.
func TestTieredSourceLevels(t *testing.T) {
	reg, _ := budgetTestRegistry(t, 0)
	ts := newTieredSource(reg, false)

	count := func(lvl int, substr string) (total, match int) {
		ts.setLevel(lvl)
		for _, v := range ts.sample() {
			total++
			if strings.Contains(v.Name, substr) {
				match++
			}
		}
		return
	}

	all, debug := count(0, "worker-thread#")
	if all != 7 || debug != 5 {
		t.Fatalf("level 0: %d values (%d debug), want 7 (5)", all, debug)
	}
	lvl1, debug1 := count(1, "worker-thread#")
	if lvl1 != 2 || debug1 != 0 {
		t.Fatalf("level 1: %d values (%d debug), want 2 (0)", lvl1, debug1)
	}
	lvl2, _ := count(2, "")
	if lvl2 != 1 {
		t.Fatalf("level 2: %d values, want 1 (critical only)", lvl2)
	}
	v := ts.sample()[0]
	if !strings.Contains(v.Name, "/health/") {
		t.Fatalf("level 2 kept %q, want the critical health counter", v.Name)
	}

	// Active-set change rebuilds the sets.
	reg.MustRegister(core.NewRawCounter(
		core.Name{Object: "threads", Counter: "idle-rate"}.
			WithInstances(core.LocalityInstance(0, "total", -1)...),
		core.Info{TypeName: "/threads/idle-rate"}))
	if _, err := reg.AddActive("/threads{locality#0/total}/idle-rate"); err != nil {
		t.Fatal(err)
	}
	if got, _ := count(0, ""); got != 8 {
		t.Fatalf("after AddActive: %d values, want 8", got)
	}

	// The new counter lands in DefaultTiers' normal tier.
	if got, _ := count(1, ""); got != 3 {
		t.Fatalf("after AddActive, level 1: %d values, want 3", got)
	}
}

// TestBudgetControllerDemotionOrder drives the controller with a
// synthetic cost source and asserts the exact degradation ladder:
// debug demoted first, then normal, then interval doubling up to 64×
// base — and critical is never dropped (level never exceeds Levels).
func TestBudgetControllerDemotionOrder(t *testing.T) {
	var cost int64
	var levels []int
	var intervals []time.Duration
	base := 10 * time.Millisecond
	bc := NewBudgetController(BudgetControllerConfig{
		Budget:       Budget{Fraction: 0.01, Window: time.Second},
		BaseInterval: base,
		Cost:         func() int64 { return cost },
		SetInterval:  func(d time.Duration) { intervals = append(intervals, d) },
		Levels:       2,
		SetLevel:     func(l int) { levels = append(levels, l) },
	})
	t0 := time.Unix(0, 0)
	bc.Tick(t0) // arm
	for i := 1; i <= 8; i++ {
		cost += int64(100 * time.Millisecond) // 10% of one core: far over 1%
		bc.Tick(t0.Add(time.Duration(i) * time.Second))
	}
	if want := []int{1, 2}; len(levels) != 2 || levels[0] != 1 || levels[1] != 2 {
		t.Fatalf("level sequence = %v, want %v (debug first, then normal, never critical)", levels, want)
	}
	if len(intervals) != 6 || intervals[0] != 20*time.Millisecond || intervals[5] != 640*time.Millisecond {
		t.Fatalf("interval sequence = %v, want [20ms .. 640ms] (doubling after tiers exhausted)", intervals)
	}
	if bc.Level() != 2 {
		t.Fatalf("final level = %d, want 2 (critical tier still sampled)", bc.Level())
	}
	if bc.Demotions() != 8 {
		t.Fatalf("demotions = %d, want 8", bc.Demotions())
	}
	// Saturated: further over-budget windows change nothing.
	cost += int64(100 * time.Millisecond)
	if did := bc.Tick(t0.Add(9 * time.Second)); did != "" {
		t.Fatalf("saturated step = %q, want \"\"", did)
	}
	if bc.Level() != 2 || bc.Interval() != 640*time.Millisecond {
		t.Fatal("saturated controller kept degrading")
	}
	if bc.HeadroomPPM() >= 0 {
		t.Fatalf("headroom = %d ppm, want negative while over budget", bc.HeadroomPPM())
	}
}

// TestBudgetControllerPromotionHysteresis: easing requires calmWindows
// consecutive under-half-budget windows, restores in reverse order
// (interval first, then tiers), and a degrade right after an ease
// doubles the required calm stretch.
func TestBudgetControllerPromotionHysteresis(t *testing.T) {
	var cost int64
	base := 10 * time.Millisecond
	bc := NewBudgetController(BudgetControllerConfig{
		Budget:       Budget{Fraction: 0.01, Window: time.Second},
		BaseInterval: base,
		Cost:         func() int64 { return cost },
		SetInterval:  func(time.Duration) {},
		Levels:       2,
		SetLevel:     func(int) {},
	})
	t0 := time.Unix(0, 0)
	tick := func(i int, overNs int64) {
		cost += overNs
		bc.Tick(t0.Add(time.Duration(i) * time.Second))
	}
	over := int64(100 * time.Millisecond) // 10%
	calm := int64(time.Millisecond)       // 0.1% < half of 1%

	bc.Tick(t0) // arm the first window
	i := 0
	for n := 0; n < 3; n++ { // degrade to level 2 + one interval double
		i++
		tick(i, over)
	}
	if bc.Level() != 2 || bc.Interval() != 20*time.Millisecond {
		t.Fatalf("setup: level=%d interval=%v", bc.Level(), bc.Interval())
	}
	// calmWindows-1 calm windows are not enough.
	for n := 0; n < calmWindows-1; n++ {
		i++
		tick(i, calm)
	}
	if bc.Interval() != 20*time.Millisecond {
		t.Fatal("eased before calmWindows calm windows")
	}
	// The calmWindows-th calm window: interval restores first.
	i++
	tick(i, calm)
	if bc.Interval() != base || bc.Level() != 2 {
		t.Fatalf("first ease: interval=%v level=%d, want %v/2 (interval restores before tiers)",
			bc.Interval(), bc.Level(), base)
	}
	// Immediate re-degrade = flap: the calm requirement doubles.
	i++
	tick(i, over)
	if bc.Interval() != 20*time.Millisecond {
		t.Fatal("flap did not re-stretch the interval")
	}
	for n := 0; n < 2*calmWindows-1; n++ {
		i++
		tick(i, calm)
	}
	if bc.Interval() == base {
		t.Fatalf("eased after %d calm windows; flap backoff should require %d", 2*calmWindows-1, 2*calmWindows)
	}
	i++
	tick(i, calm)
	if bc.Interval() != base {
		t.Fatal("doubled calm stretch after flap should have eased the interval")
	}
	if bc.Promotions() != 2 {
		t.Fatalf("promotions = %d, want 2", bc.Promotions())
	}
}

// TestBudgetConvergence is the acceptance test: a deliberately
// expensive (sleeping) FuncCounter pushes measured sampling overhead
// far past a 1% budget; within a handful of controller windows the
// demotion ladder must bring the *measured* overhead back under
// budget — surgically parking the expensive counter when attribution
// has pinned it, or demoting debug (where it lives) before normal —
// and never touching critical.
func TestBudgetConvergence(t *testing.T) {
	reg, evals := budgetTestRegistry(t, 2*time.Millisecond)
	s := NewSampler(64)
	// 5ms sampling interval × 2ms-per-eval counter ≈ 40% overhead,
	// 40× over the 1% budget. Windows are short so the test converges
	// in well under a second.
	bcol := NewBudgetedCollector(s, reg, 5*time.Millisecond,
		Budget{Fraction: 0.01, Window: 100 * time.Millisecond}, false)
	bcol.Controller.RegisterCounters(reg)
	bcol.Start()
	defer bcol.Stop()

	const maxTicks = 20 // controller windows allowed before convergence
	deadline := time.After(time.Duration(maxTicks) * 100 * time.Millisecond * 2)
	for {
		demoted := bcol.Controller.Level() >= 1 || bcol.Controller.DemotedCounters() >= 1
		if demoted && bcol.Controller.OverheadPPM() > 0 &&
			bcol.Controller.HeadroomPPM() >= 0 {
			break
		}
		select {
		case <-deadline:
			t.Fatalf("no convergence: level=%d overhead=%dppm headroom=%dppm demotions=%d",
				bcol.Controller.Level(), bcol.Controller.OverheadPPM(),
				bcol.Controller.HeadroomPPM(), bcol.Controller.Demotions())
		case <-time.After(10 * time.Millisecond):
		}
	}
	if bcol.Controller.Level() > 2 {
		t.Fatalf("level = %d, critical tier must never demote", bcol.Controller.Level())
	}

	// The expensive counter is debug-tier: once demoted it must stop
	// being evaluated entirely.
	settled := evals.Load()
	time.Sleep(150 * time.Millisecond)
	if got := evals.Load(); got != settled {
		t.Fatalf("demoted expensive counter still evaluated (%d -> %d)", settled, got)
	}

	// Critical counters keep flowing after convergence.
	var healthPts, budgetPts int
	for _, series := range s.Snapshot() {
		switch {
		case strings.Contains(series.Name, "/health/events"):
			healthPts = len(series.Points)
		case strings.Contains(series.Name, "/budget/headroom"):
			budgetPts = len(series.Points)
		}
	}
	if healthPts == 0 {
		t.Fatal("critical health counter vanished from the sampler")
	}
	if budgetPts == 0 {
		t.Fatal("budget self-counters not sampled")
	}
}

// TestBudgetTinyWindow: a one-nanosecond window halves to a zero tick
// period, which must run the control loop at the floor rather than
// panic it; Start and Stop stay clean.
func TestBudgetTinyWindow(t *testing.T) {
	reg := newTestRegistry(t)
	bcol := NewBudgetedCollector(NewSampler(16), reg, time.Millisecond, Budget{Window: 1}, false)
	bcol.Start()
	bcol.Stop()
	bcol.Stop() // idempotent
}
