package apex

import (
	"fmt"
	"sync/atomic"
	"testing"
	"time"
)

// threshold is a policy that acts on every step whose load exceeds 100.
func threshold(name string, load *atomic.Int64, acted *atomic.Int64) Policy {
	return Policy{Name: name, Period: time.Hour, Step: func(time.Time) string {
		if v := load.Load(); v > 100 {
			acted.Add(1)
			return fmt.Sprintf("load %d", v)
		}
		return ""
	}}
}

func TestPolicyValidation(t *testing.T) {
	e := NewEngine()
	if err := e.Add(Policy{Name: "no-step", Period: time.Second}); err == nil {
		t.Error("policy without a Step accepted")
	}
	// A period core.Every would clamp is not rejected.
	if err := e.Add(Policy{Name: "no-period", Step: func(time.Time) string { return "" }}); err != nil {
		t.Errorf("zero-period policy rejected: %v", err)
	}
}

func TestPollFiresOnRule(t *testing.T) {
	e := NewEngine()
	var load, acted atomic.Int64
	if err := e.Add(threshold("high-load", &load, &acted)); err != nil {
		t.Fatal(err)
	}
	t0 := time.Unix(100, 0)
	e.Poll(t0)
	if acted.Load() != 0 || len(e.Events()) != 0 {
		t.Fatal("a step that held was logged")
	}
	load.Store(500)
	e.Poll(t0.Add(time.Second))
	e.Poll(t0.Add(2 * time.Second))
	if acted.Load() != 2 {
		t.Fatalf("acted %d times", acted.Load())
	}
	events := e.Events()
	if len(events) != 2 || events[0].Policy != "high-load" || events[0].Action != "load 500" ||
		!events[1].Time.Equal(t0.Add(2*time.Second)) {
		t.Fatalf("events = %+v", events)
	}
}

func TestEngineStartStop(t *testing.T) {
	e := NewEngine()
	fired := make(chan struct{}, 64)
	if err := e.Add(Policy{Name: "tick", Period: time.Millisecond, Step: func(time.Time) string {
		fired <- struct{}{}
		return "tick"
	}}); err != nil {
		t.Fatal(err)
	}
	e.Start()
	e.Start() // idempotent
	select {
	case <-fired:
	case <-time.After(2 * time.Second):
		t.Fatal("policy never stepped under Start")
	}
	e.Stop()
	e.Stop() // idempotent
}

func TestPanickingPolicyContained(t *testing.T) {
	e := NewEngine()
	healthy := 0
	if err := e.Add(Policy{Name: "bomb", Period: time.Hour,
		Step: func(time.Time) string { panic("policy bug") }}); err != nil {
		t.Fatal(err)
	}
	if err := e.Add(Policy{Name: "healthy", Period: time.Hour,
		Step: func(time.Time) string { healthy++; return "" }}); err != nil {
		t.Fatal(err)
	}
	e.Poll(time.Now()) // must not panic the test
	e.Poll(time.Now())
	if healthy != 2 {
		t.Fatalf("healthy policy ran %d times next to the bomb", healthy)
	}
	var panics int
	for _, ev := range e.Events() {
		if ev.Panicked && ev.Policy == "bomb" && ev.Action == "policy bug" {
			panics++
		}
	}
	if panics != 2 {
		t.Fatalf("panic events = %d (%+v)", panics, e.Events())
	}
}

// TestEngineLifecycle: a policy added to a started engine runs at once;
// a panicking policy is logged while its neighbours keep running; a
// zero period runs at core.Every's floor; Stop waits for a step in
// flight and is idempotent.
func TestEngineLifecycle(t *testing.T) {
	e := NewEngine()
	e.Start()
	var fast atomic.Int64
	if err := e.Add(Policy{Name: "floor", Step: func(time.Time) string { fast.Add(1); return "" }}); err != nil {
		t.Fatal(err)
	}
	if err := e.Add(Policy{Name: "bomb", Period: time.Millisecond,
		Step: func(time.Time) string { panic("policy bug") }}); err != nil {
		t.Fatal(err)
	}
	entered, release := make(chan struct{}), make(chan struct{})
	var done atomic.Bool
	if err := e.Add(Policy{Name: "slow", Period: time.Millisecond, Step: func(time.Time) string {
		if done.Load() {
			return ""
		}
		close(entered)
		<-release
		done.Store(true)
		return "slow step"
	}}); err != nil {
		t.Fatal(err)
	}
	select {
	case <-entered:
	case <-time.After(2 * time.Second):
		t.Fatal("policy added to a started engine never ran")
	}
	deadline := time.Now().Add(2 * time.Second)
	for fast.Load() < 10 || !loggedPanic(e) {
		if time.Now().After(deadline) {
			t.Fatalf("zero-period steps = %d, panic logged = %v", fast.Load(), loggedPanic(e))
		}
		time.Sleep(time.Millisecond)
	}

	stopped := make(chan struct{})
	go func() { e.Stop(); close(stopped) }()
	select {
	case <-stopped:
		t.Fatal("Stop returned while a step was in flight")
	case <-time.After(20 * time.Millisecond):
	}
	close(release)
	<-stopped
	if !done.Load() {
		t.Fatal("Stop returned before the step in flight finished")
	}
	steps := fast.Load()
	e.Stop() // idempotent
	time.Sleep(5 * time.Millisecond)
	if fast.Load() != steps {
		t.Fatal("a policy stepped after Stop")
	}
}

func loggedPanic(e *Engine) bool {
	for _, ev := range e.Events() {
		if ev.Panicked {
			return true
		}
	}
	return false
}

// TestEventLogBounded: the log keeps the latest maxEvents actions.
func TestEventLogBounded(t *testing.T) {
	e := NewEngine()
	var load, acted atomic.Int64
	load.Store(500)
	if err := e.Add(threshold("busy", &load, &acted)); err != nil {
		t.Fatal(err)
	}
	t0 := time.Unix(100, 0)
	for i := 0; i < 300; i++ {
		e.Poll(t0.Add(time.Duration(i) * time.Second))
	}
	events := e.Events()
	if acted.Load() != 300 || len(events) != maxEvents {
		t.Fatalf("300 actions left %d events, want %d", len(events), maxEvents)
	}
	if first := events[0].Time; !first.Equal(t0.Add(time.Duration(300-maxEvents) * time.Second)) {
		t.Fatalf("oldest kept event at %v, want the latest %d", first, maxEvents)
	}
}

// TestBand walks the hysteresis through a value sequence per case and
// checks the steps it takes.
func TestBand(t *testing.T) {
	const hi, lo, mid = 10.0, 0.0, 5.0 // above High, below Low, dead band
	cases := []struct {
		name   string
		calm   int
		values []float64
		// limit bounds the Up steps that change anything (0 = none
		// left: saturated); Down never saturates here.
		limit int
		want  string // one letter per value: U, D, or . when it held
	}{
		{"over steps down at once", 3, []float64{hi, hi, hi}, 9, "DDD"},
		{"calm count", 3, []float64{lo, lo, lo, lo, lo, lo}, 9, "..U..U"},
		{"dead band resets calm", 3, []float64{lo, lo, mid, lo, lo, lo}, 9, ".....U"},
		{"saturated up holds", 1, []float64{lo, lo, lo}, 1, "U.."},
		{"flap doubles calm", 1, []float64{lo, hi, lo, lo, hi, lo, lo, lo, lo}, 9, "UD.UD...U"},
		{"no flap after two periods", 1, []float64{lo, mid, mid, hi, lo}, 9, "U..DU"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			ups := 0
			b := Band{Low: 1, High: 9, Calm: c.calm, Period: time.Second,
				Up: func() string {
					if ups == c.limit {
						return ""
					}
					ups++
					return "U"
				},
				Down: func() string { return "D" },
			}
			got := ""
			t0 := time.Unix(100, 0)
			for i, v := range c.values {
				did := b.Step(t0.Add(time.Duration(i)*time.Second), v)
				if did == "" {
					did = "."
				}
				got += did
			}
			if got != c.want {
				t.Fatalf("steps = %s, want %s", got, c.want)
			}
		})
	}
}

// TestBandFlapCap: each flap doubles the calm count while it is below
// 32, so from 1 it settles at 32.
func TestBandFlapCap(t *testing.T) {
	b := Band{Low: 1, High: 9, Calm: 1, Period: time.Second,
		Up: func() string { return "U" }, Down: func() string { return "D" }}
	now := time.Unix(100, 0)
	step := func(v float64) string {
		now = now.Add(time.Second)
		return b.Step(now, v)
	}
	for flap := 0; flap < 8; flap++ {
		calms := 0
		for step(0) == "" {
			calms++
		}
		if want := min(1<<flap, maxCalm) - 1; calms != want {
			t.Fatalf("flap %d: eased after %d held calm values, want %d", flap, calms, want)
		}
		step(10) // a Down right after the Up: a flap
	}
}
