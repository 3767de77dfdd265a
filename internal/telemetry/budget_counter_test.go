package telemetry

// Tests for surgical per-counter demotion: the budget controller parks
// the single most expensive counter (per-handle cost attribution)
// before it demotes a whole tier, and restores it last on the way out.

import (
	"strings"
	"testing"
	"time"

	"repro/internal/core"
)

// newAttributionFixture builds a registry whose active set holds one
// deliberately expensive normal-tier counter among cheap peers.
func newAttributionFixture(t *testing.T) (*core.Registry, string) {
	t.Helper()
	reg := core.NewRegistry()
	mk := func(counter string, inst []core.Instance, slow bool) string {
		n := core.Name{Object: "threads", Counter: counter}.WithInstances(inst...)
		var fn func() int64
		if slow {
			fn = func() int64 { time.Sleep(200 * time.Microsecond); return 1 }
		} else {
			fn = func() int64 { return 1 }
		}
		reg.MustRegister(core.NewFuncCounter(n,
			core.Info{TypeName: "/threads/" + counter}, 0, fn, nil))
		if _, err := reg.AddActive(n.String()); err != nil {
			t.Fatal(err)
		}
		return n.String()
	}
	total := core.LocalityInstance(0, "total", -1)
	mk("count/cumulative", total, false)
	mk("idle-rate", total, false)
	slow := mk("time/average", total, true) // normal tier, expensive
	return reg, slow
}

func TestParkMostExpensiveCounter(t *testing.T) {
	reg, slow := newAttributionFixture(t)
	ts := newTieredSource(reg, false)
	ts.attributeCost = true

	// Warm the attribution EWMAs.
	for i := 0; i < 8; i++ {
		ts.sample()
	}
	if !ts.parkMostExpensive() {
		t.Fatal("nothing parked despite cost data")
	}
	parked := ts.demotedCounters()
	if len(parked) != 1 || parked[0] != slow {
		t.Fatalf("parked %v, want exactly [%s]", parked, slow)
	}

	// The parked counter is really excluded; its cheap tier-mates keep
	// being sampled (the surgical property).
	vals := ts.sample()
	var sawSlow, sawCheap bool
	for _, v := range vals {
		if v.Name == slow {
			sawSlow = true
		}
		if strings.Contains(v.Name, "idle-rate") {
			sawCheap = true
		}
	}
	if sawSlow {
		t.Fatal("parked counter still sampled")
	}
	if !sawCheap {
		t.Fatal("tier-mate of parked counter dropped too")
	}

	// Restore brings it back.
	if !ts.unparkLast() {
		t.Fatal("unpark failed")
	}
	vals = ts.sample()
	sawSlow = false
	for _, v := range vals {
		if v.Name == slow {
			sawSlow = true
		}
	}
	if !sawSlow {
		t.Fatal("restored counter not sampled")
	}
	if ts.unparkLast() {
		t.Fatal("unpark with nothing parked reported success")
	}
}

func TestParkNeverTakesCritical(t *testing.T) {
	reg := core.NewRegistry()
	// Only a critical counter is active — and it is expensive.
	n := core.Name{Object: "runtime", Counter: "health/events"}.
		WithInstances(core.LocalityInstance(0, "total", -1)...)
	reg.MustRegister(core.NewFuncCounter(n,
		core.Info{TypeName: "/runtime/health/events"}, 0,
		func() int64 { time.Sleep(100 * time.Microsecond); return 1 }, nil))
	if _, err := reg.AddActive(n.String()); err != nil {
		t.Fatal(err)
	}
	ts := newTieredSource(reg, false)
	ts.attributeCost = true
	for i := 0; i < 8; i++ {
		ts.sample()
	}
	if ts.parkMostExpensive() {
		t.Fatal("parked a critical-tier counter")
	}
}

func TestControllerShedsCounterBeforeTier(t *testing.T) {
	var shed, restored, level int
	cost := int64(0)
	bc := NewBudgetController(BudgetControllerConfig{
		Budget:       Budget{Fraction: 0.01, Window: time.Second},
		BaseInterval: 100 * time.Millisecond,
		Cost:         func() int64 { return cost },
		Levels:       2,
		SetLevel:     func(l int) { level = l },
		ShedCounter: func() bool {
			if shed >= 2 { // park limit: fall through to tiers
				return false
			}
			shed++
			return true
		},
		RestoreCounter: func() bool {
			if restored >= shed {
				return false
			}
			restored++
			return true
		},
	})

	t0 := time.Unix(0, 0)
	bc.Tick(t0) // arm
	over := func(sec int) {
		cost += int64(0.02 * 1e9) // 2% of one core for the window
		bc.Tick(t0.Add(time.Duration(sec) * time.Second))
	}
	under := func(sec int) { // calmWindows calm windows: one ease
		for w := 0; w < calmWindows; w++ {
			bc.Tick(t0.Add(time.Duration(sec*calmWindows+w) * time.Second))
		}
	}

	// Two over-budget windows park two counters; the tier is untouched.
	over(1)
	over(2)
	if shed != 2 || level != 0 {
		t.Fatalf("after 2 degrades: shed=%d level=%d, want 2 and 0", shed, level)
	}
	if bc.DemotedCounters() != 2 {
		t.Fatalf("demoted-counters gauge = %d, want 2", bc.DemotedCounters())
	}

	// Third degrade: shed refuses (limit), so the tier goes.
	over(3)
	if level != 1 {
		t.Fatalf("after shed limit: level = %d, want 1", level)
	}

	// Easing: tier comes back first, parked counters last.
	under(4)
	if level != 0 {
		t.Fatalf("first ease should re-promote tier, level = %d", level)
	}
	under(5)
	under(6)
	if restored != 2 {
		t.Fatalf("restored = %d, want 2", restored)
	}
	if bc.DemotedCounters() != 0 {
		t.Fatalf("demoted-counters gauge = %d, want 0", bc.DemotedCounters())
	}
	// Fully restored: further ease steps are no-ops.
	under(7)
	if restored != 2 || level != 0 {
		t.Fatalf("ease past baseline changed state: restored=%d level=%d", restored, level)
	}
}

func TestBudgetedCollectorParksExpensiveCounter(t *testing.T) {
	reg, slow := newAttributionFixture(t)
	s := NewSampler(64)
	bc := NewBudgetedCollector(s, reg, 10*time.Millisecond,
		Budget{Fraction: 0.0001, Window: 50 * time.Millisecond}, false)

	// Drive sampling + control synchronously (no goroutines): arm the
	// window, warm the attribution (accruing metered cost), then tick
	// the controller over budget.
	t0 := time.Unix(0, 0)
	bc.Controller.Tick(t0)
	for i := 0; i < 8; i++ {
		bc.tiers.sample()
	}
	bc.Controller.Tick(t0.Add(time.Second))
	names := bc.DemotedCounters()
	if len(names) != 1 || names[0] != slow {
		t.Fatalf("budgeted collector parked %v, want [%s]", names, slow)
	}
	if bc.Controller.DemotedCounters() != 1 {
		t.Fatalf("gauge = %d, want 1", bc.Controller.DemotedCounters())
	}
}
