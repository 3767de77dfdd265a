package telemetry

// Overhead-budgeted sampling (ScALPEL-style): the collector is given a
// budget — a maximum fraction of one core that observation may cost —
// and a closed-loop controller keeps the *measured* sampling cost (the
// registry's own /counters{...}/cost meters) inside it. Degradation is
// graceful and ordered: debug-tier counters are demoted first, then
// normal-tier, then the sampling interval stretches; critical counters
// are never dropped. Recovery is the reverse, gated by hysteresis so a
// workload hovering at the budget edge cannot make the sampler flap.

import (
	"fmt"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/apex"
	"repro/internal/core"
)

// Priority is a counter's sampling tier, assigned when the budgeted
// collector binds the active set. Under budget pressure lower tiers are
// demoted (stop being sampled) before higher ones.
type Priority uint8

const (
	// PriorityCritical counters are never demoted: health, error and
	// budget self-counters — the ones that explain an incident.
	PriorityCritical Priority = iota
	// PriorityNormal is the default tier.
	PriorityNormal
	// PriorityDebug counters (per-worker breakdowns, percentile
	// series) are the first to go under pressure.
	PriorityDebug

	numPriorities = 3
)

func (p Priority) String() string {
	switch p {
	case PriorityCritical:
		return "critical"
	case PriorityNormal:
		return "normal"
	case PriorityDebug:
		return "debug"
	}
	return fmt.Sprintf("priority(%d)", uint8(p))
}

// DefaultTiers classifies a full counter name into a sampling tier:
// self-observation, health and error counters are critical (they must
// survive any degradation — they are what a post-incident flight dump
// is read for); per-worker instances and statistics/percentile series
// are debug; everything else is normal.
func DefaultTiers(name string) Priority {
	switch {
	case strings.Contains(name, "/cost/"),
		strings.Contains(name, "/budget/"),
		strings.Contains(name, "/flight/"),
		strings.Contains(name, "/health/"),
		strings.Contains(name, "/count/errors"):
		return PriorityCritical
	case strings.Contains(name, "worker-thread#"),
		strings.HasPrefix(name, "/statistics{"),
		strings.Contains(name, "percentile"):
		return PriorityDebug
	}
	return PriorityNormal
}

// Budget bounds what sampling may cost.
type Budget struct {
	// Fraction is the maximum fraction of one core the metered
	// sampling cost may consume (0.01 = 1%). Defaults to 0.01.
	Fraction float64
	// Window is the controller's decision period: cost is averaged
	// over it and at most one degrade/ease action is taken per window.
	// Defaults to 1s.
	Window time.Duration
}

// The controller's fixed ladder bounds: interval stretching stops at
// maxStretch times the base interval, and easing needs calmWindows
// consecutive under-half-budget windows (doubled by the band on a
// flap).
const (
	maxStretch  = 64
	calmWindows = 3
)

// BudgetControllerConfig wires a BudgetController to the thing it
// regulates. Cost and BaseInterval are required; Levels/SetLevel are
// optional (a remote monitor like perfmon has no tiers to demote and
// regulates rate only).
type BudgetControllerConfig struct {
	Budget Budget
	// BaseInterval is the undegraded sampling interval.
	BaseInterval time.Duration
	// Cost returns the cumulative metered sampling cost in
	// nanoseconds (monotone non-decreasing between windows).
	Cost func() int64
	// SetInterval is called whenever the controller changes the
	// sampling interval.
	SetInterval func(time.Duration)
	// Levels is the number of demotion levels available (2 for the
	// tiered source: drop debug, then drop normal). 0 disables tier
	// demotion and the controller regulates by interval alone.
	Levels int
	// SetLevel is called whenever the demotion level changes.
	SetLevel func(int)
	// ShedCounter, when set, is tried BEFORE tier demotion on each
	// degrade step: park the single most expensive counter (per-handle
	// cost attribution) instead of dropping a whole tier. It reports
	// whether it shed anything — false (no cost data yet, park limit
	// reached) falls through to tier demotion.
	ShedCounter func() bool
	// RestoreCounter is the inverse, tried as the LAST ease step once
	// interval and tiers are fully restored. Reports whether a parked
	// counter was restored.
	RestoreCounter func() bool
}

// BudgetController is the closed loop: feed it Tick(now) at any cadence
// (it acts at most once per Budget.Window) and it drives the measured
// sampling overhead back under budget by demoting tiers, then
// stretching the interval — and eases back out, reverse order, through
// an apex.Band: over budget degrades at once, calmWindows windows under
// half the budget ease one step, and in between it holds. It is passive
// and time-explicit, so it works equally for the local budgeted
// collector and perfmon's remote sampling loop, and is deterministic
// under test.
type BudgetController struct {
	cfg    BudgetControllerConfig
	budget Budget

	mu       sync.Mutex
	band     apex.Band
	lastTick time.Time
	lastCost int64

	overheadPPM    atomic.Int64
	headroomPPM    atomic.Int64
	intervalNs     atomic.Int64
	levelNow       atomic.Int64
	demotions      atomic.Int64
	promotions     atomic.Int64
	counterDemoted atomic.Int64
}

// NewBudgetController builds a controller; panics if cfg.Cost or
// cfg.BaseInterval is unset (they are programming errors, not runtime
// conditions).
func NewBudgetController(cfg BudgetControllerConfig) *BudgetController {
	if cfg.Cost == nil {
		panic("telemetry: BudgetController needs a Cost source")
	}
	if cfg.BaseInterval <= 0 {
		panic("telemetry: BudgetController needs a positive BaseInterval")
	}
	if cfg.Levels > 0 && cfg.SetLevel == nil {
		panic("telemetry: Levels > 0 requires SetLevel")
	}
	b := cfg.Budget
	if b.Fraction <= 0 {
		b.Fraction = 0.01
	}
	if b.Window <= 0 {
		b.Window = time.Second
	}
	bc := &BudgetController{cfg: cfg, budget: b}
	bc.band = apex.Band{Low: b.Fraction / 2, High: b.Fraction, Calm: calmWindows,
		Period: b.Window, Up: bc.ease, Down: bc.degrade}
	bc.intervalNs.Store(cfg.BaseInterval.Nanoseconds())
	bc.headroomPPM.Store(int64(b.Fraction * 1e6))
	return bc
}

// Tick advances the control loop and returns the step it took, or ""
// — it is the controller's apex.Policy step. Call it as often as
// convenient; a decision is made only when a full Budget.Window has
// elapsed since the last one. The first call only arms the window.
func (bc *BudgetController) Tick(t time.Time) string {
	bc.mu.Lock()
	defer bc.mu.Unlock()
	if bc.lastTick.IsZero() {
		bc.lastTick = t
		bc.lastCost = bc.cfg.Cost()
		return ""
	}
	elapsed := t.Sub(bc.lastTick)
	if elapsed < bc.budget.Window {
		return ""
	}
	cur := bc.cfg.Cost()
	delta := cur - bc.lastCost
	bc.lastTick = t
	bc.lastCost = cur
	if delta < 0 { // cost meter was reset underneath us; re-arm
		return ""
	}
	overhead := float64(delta) / float64(elapsed.Nanoseconds())
	bc.overheadPPM.Store(int64(overhead * 1e6))
	bc.headroomPPM.Store(int64((bc.budget.Fraction - overhead) * 1e6))
	return bc.band.Step(t, overhead)
}

// degrade is the band's Down step (run under bc.mu): park the one
// counter the attribution EWMA blames, else demote the next tier (debug
// before normal, never critical), else double the interval up to
// maxStretch times base. Fully saturated, it returns "": the budget
// counters keep reporting the excess.
func (bc *BudgetController) degrade() (did string) {
	switch {
	case bc.cfg.ShedCounter != nil && bc.cfg.ShedCounter():
		bc.counterDemoted.Add(1)
		did = "park counter"
	case bc.Level() < bc.cfg.Levels:
		did = bc.setLevel(bc.Level() + 1)
	case bc.Interval() < maxStretch*bc.cfg.BaseInterval:
		did = bc.setInterval(min(2*bc.Interval(), maxStretch*bc.cfg.BaseInterval))
	}
	if did != "" {
		bc.demotions.Add(1)
	}
	return did
}

// ease is the band's Up step (run under bc.mu), the reverse ladder:
// shrink a stretched interval toward base, then promote tiers, and
// restore parked counters last — they were the single most expensive,
// so they are the first to re-blow the budget.
func (bc *BudgetController) ease() (did string) {
	switch {
	case bc.Interval() > bc.cfg.BaseInterval:
		did = bc.setInterval(max(bc.Interval()/2, bc.cfg.BaseInterval))
	case bc.Level() > 0:
		did = bc.setLevel(bc.Level() - 1)
	case bc.cfg.RestoreCounter != nil && bc.cfg.RestoreCounter():
		bc.counterDemoted.Add(-1)
		did = "restore counter"
	}
	if did != "" {
		bc.promotions.Add(1)
	}
	return did
}

func (bc *BudgetController) setLevel(l int) string {
	bc.levelNow.Store(int64(l))
	bc.cfg.SetLevel(l)
	return fmt.Sprintf("demotion level %d", l)
}

func (bc *BudgetController) setInterval(d time.Duration) string {
	bc.intervalNs.Store(d.Nanoseconds())
	if bc.cfg.SetInterval != nil {
		bc.cfg.SetInterval(d)
	}
	return "interval " + d.String()
}

// OverheadPPM returns the last window's measured sampling overhead in
// parts-per-million of one core.
func (bc *BudgetController) OverheadPPM() int64 { return bc.overheadPPM.Load() }

// HeadroomPPM returns budget minus measured overhead, in ppm (negative
// while over budget).
func (bc *BudgetController) HeadroomPPM() int64 { return bc.headroomPPM.Load() }

// Interval returns the interval the controller currently commands.
func (bc *BudgetController) Interval() time.Duration {
	return time.Duration(bc.intervalNs.Load())
}

// Level returns the current demotion level (0 = nothing demoted).
func (bc *BudgetController) Level() int { return int(bc.levelNow.Load()) }

// Demotions returns the cumulative count of degradation steps taken.
func (bc *BudgetController) Demotions() int64 { return bc.demotions.Load() }

// Promotions returns the cumulative count of easing steps taken.
func (bc *BudgetController) Promotions() int64 { return bc.promotions.Load() }

// DemotedCounters returns how many individual counters are currently
// parked by surgical (per-counter) demotion.
func (bc *BudgetController) DemotedCounters() int64 { return bc.counterDemoted.Load() }

// RegisterCounters self-exports the controller's state as
// /telemetry{locality#0/total}/budget/* counters on reg and adds them
// to the active set, so the budget plane is visible through the very
// plane it regulates (they are critical-tier by DefaultTiers). Already-
// registered names are left in place.
func (bc *BudgetController) RegisterCounters(reg *core.Registry) {
	register := func(counter, help, unit string, sample func() int64) {
		c := core.NewLocalityFunc("telemetry", counter, 0, help, unit, sample, nil)
		if err := reg.Register(c); err != nil {
			return
		}
		_, _ = reg.AddActive(c.Name().String())
	}
	register("budget/overhead", "measured sampling overhead, ppm of one core",
		core.UnitNone, bc.OverheadPPM)
	register("budget/headroom", "budget minus measured overhead, ppm (negative = over)",
		core.UnitNone, bc.HeadroomPPM)
	register("budget/rate", "controller-commanded sampling interval",
		core.UnitNanoseconds, bc.intervalNs.Load)
	register("budget/level", "current demotion level (0 = full set)",
		core.UnitNone, bc.levelNow.Load)
	register("budget/demotions", "cumulative degradation steps (counter parks + tier demotions + interval stretches)",
		core.UnitEvents, bc.demotions.Load)
	register("budget/demoted-counters", "individual counters currently parked by per-counter demotion",
		core.UnitNone, bc.counterDemoted.Load)
	register("budget/promotions", "cumulative easing steps",
		core.UnitEvents, bc.promotions.Load)
}

// ---------------------------------------------------------------------------
// tieredSource: the active set split by priority, evaluated by level.

// tieredSource samples a registry's active set through per-tier compiled
// bind sets, skipping demoted tiers. The sets are rebuilt only when the
// registry's active generation changes, so the steady-state sample path
// stays allocation-free.
type tieredSource struct {
	reg   *core.Registry
	reset bool
	// burst reports whether the flight recorder is bursting: a burst
	// captures the full set regardless of demotion level — the window
	// is bounded, so the budget claim stays honest.
	burst func() bool

	// attributeCost enables per-handle EWMA cost metering on the built
	// sets, the signal behind surgical per-counter demotion. One extra
	// clock read per counter per sweep.
	attributeCost bool

	level atomic.Int32

	mu      sync.Mutex
	gen     uint64
	built   bool
	sets    [numPriorities]*core.BindSet
	scratch [numPriorities][]core.Value
	buf     []core.Value
	// parked holds individually demoted counters (excluded from the
	// rebuilt sets); parkOrder is the LIFO restore order.
	parked    map[string]bool
	parkOrder []string
}

func newTieredSource(reg *core.Registry, reset bool) *tieredSource {
	return &tieredSource{reg: reg, reset: reset}
}

func (ts *tieredSource) setLevel(l int) { ts.level.Store(int32(l)) }

func (ts *tieredSource) rebuildLocked(gen uint64) {
	var names [numPriorities][]string
	for _, n := range ts.reg.Active() {
		if ts.parked[n] {
			continue
		}
		p := DefaultTiers(n)
		names[p] = append(names[p], n)
	}
	for p := range ts.sets {
		ts.sets[p] = ts.reg.BindSetLenient(names[p])
		if ts.attributeCost {
			ts.sets[p].EnableCostMetering()
		}
	}
	ts.gen = gen
	ts.built = true
}

// maxParkedCounters caps surgical demotion: past this many parks the
// cost clearly isn't one hot counter, and the controller falls back to
// tier demotion.
const maxParkedCounters = 8

// parkMostExpensive demotes the single most expensive non-critical
// counter according to the per-handle cost EWMAs. Reports false when
// there is no attribution data yet or the park limit is reached —
// the controller then degrades a whole tier instead.
func (ts *tieredSource) parkMostExpensive() bool {
	ts.mu.Lock()
	defer ts.mu.Unlock()
	if !ts.built || !ts.attributeCost || len(ts.parked) >= maxParkedCounters {
		return false
	}
	best, bestNs := "", int64(0)
	// Critical-tier counters are never parked, same as they are never
	// tier-demoted.
	for p := PriorityNormal; p <= PriorityDebug; p++ {
		set := ts.sets[p]
		if set == nil {
			continue
		}
		if i, ns := set.MostExpensive(nil); i >= 0 && ns > bestNs {
			best, bestNs = set.Names()[i], ns
		}
	}
	if best == "" {
		return false
	}
	if ts.parked == nil {
		ts.parked = make(map[string]bool)
	}
	ts.parked[best] = true
	ts.parkOrder = append(ts.parkOrder, best)
	ts.built = false // rebuild without it on the next sample
	return true
}

// unparkLast restores the most recently parked counter (LIFO — the
// first parked was the most expensive and returns last). Reports false
// when nothing is parked.
func (ts *tieredSource) unparkLast() bool {
	ts.mu.Lock()
	defer ts.mu.Unlock()
	if len(ts.parkOrder) == 0 {
		return false
	}
	last := ts.parkOrder[len(ts.parkOrder)-1]
	ts.parkOrder = ts.parkOrder[:len(ts.parkOrder)-1]
	delete(ts.parked, last)
	ts.built = false
	return true
}

// demotedCounters returns the currently parked names, most recent last.
func (ts *tieredSource) demotedCounters() []string {
	ts.mu.Lock()
	defer ts.mu.Unlock()
	return append([]string(nil), ts.parkOrder...)
}

// sample is the collector Source: evaluate every non-demoted tier into
// one reused buffer. Demoted tiers are not evaluated at all — their
// cost genuinely disappears, which is what lets the controller converge.
func (ts *tieredSource) sample() []core.Value {
	ts.mu.Lock()
	defer ts.mu.Unlock()
	if gen := ts.reg.ActiveGeneration(); !ts.built || gen != ts.gen {
		ts.rebuildLocked(gen)
	}
	lvl := int(ts.level.Load())
	if ts.burst != nil && ts.burst() {
		lvl = 0
	}
	ts.buf = ts.buf[:0]
	for p := 0; p < numPriorities; p++ {
		// Level l drops the lowest l tiers: 1 drops debug, 2 drops
		// normal too; critical would need level 3, which no
		// controller is configured to reach.
		if lvl >= numPriorities-p {
			continue
		}
		ts.scratch[p] = ts.sets[p].EvaluateBatch(ts.scratch[p][:0], ts.reset)
		ts.buf = append(ts.buf, ts.scratch[p]...)
	}
	return ts.buf
}

// ---------------------------------------------------------------------------
// BudgetedCollector: collector + tiered source + controller, wired.

// BudgetedCollector is a Collector whose sampling cost is closed-loop
// regulated to stay inside a Budget. The embedded Collector serves the
// usual sampler plane; Controller exposes the loop's state.
type BudgetedCollector struct {
	*Collector
	Controller *BudgetController

	tiers   *tieredSource
	control *apex.Engine
}

// NewBudgetedCollector samples reg's active set into s every interval,
// regulated to b. With reset, samples evaluate-and-reset. The budget's
// cost signal is reg's own /counters{...}/cost meter, so anything else
// evaluating counters on reg (an HTTP scrape, an ad-hoc query) counts
// against the same budget — the controller regulates total observation
// cost, not just its own.
func NewBudgetedCollector(s *Sampler, reg *core.Registry, interval time.Duration, b Budget, reset bool) *BudgetedCollector {
	ts := newTieredSource(reg, reset)
	ts.attributeCost = true
	col := NewCollector(s, ts.sample, interval)
	ctl := NewBudgetController(BudgetControllerConfig{
		Budget:       b,
		BaseInterval: col.Interval(),
		Cost: func() int64 {
			_, _, ns := reg.SamplingCost()
			return ns
		},
		SetInterval:    col.SetInterval,
		Levels:         numPriorities - 1, // drop debug, then normal; never critical
		SetLevel:       ts.setLevel,
		ShedCounter:    ts.parkMostExpensive,
		RestoreCounter: ts.unparkLast,
	})
	// Step at half the window so a full window is always seen within
	// one period of elapsing; the controller itself acts at most once
	// per window.
	control := apex.NewEngine()
	_ = control.Add(apex.Policy{Name: "telemetry-budget", Period: ctl.budget.Window / 2, Step: ctl.Tick})
	ts.burst = func() bool {
		fr := col.flight.Load()
		return fr != nil && fr.Bursting()
	}
	return &BudgetedCollector{Collector: col, Controller: ctl, tiers: ts, control: control}
}

// DemotedCounters lists the individually parked counters, most recent
// last (the /telemetry{...}/budget/demoted-counters gauge counts them).
func (bc *BudgetedCollector) DemotedCounters() []string { return bc.tiers.demotedCounters() }

// Start begins sampling and the control loop (idempotent).
func (bc *BudgetedCollector) Start() {
	bc.Collector.Start()
	bc.control.Start()
}

// Stop ends the control loop and sampling (idempotent).
func (bc *BudgetedCollector) Stop() {
	bc.control.Stop()
	bc.Collector.Stop()
}
