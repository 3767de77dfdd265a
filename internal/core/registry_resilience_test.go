package core

import (
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// panicCounter panics on Value and/or Reset.
type panicCounter struct {
	name       Name
	panicValue bool
	panicReset bool
	resets     atomic.Int64
}

func (c *panicCounter) Name() Name { return c.name }
func (c *panicCounter) Info() Info {
	return Info{TypeName: c.name.TypeName(), HelpText: "test", Unit: UnitEvents, Version: "1.0"}
}
func (c *panicCounter) Value(reset bool) Value {
	if c.panicValue {
		panic("counter provider exploded")
	}
	return Value{Name: c.name.String(), Raw: 1, Scaling: 1, Time: time.Now(), Status: StatusValid}
}
func (c *panicCounter) Reset() {
	if c.panicReset {
		panic("reset exploded")
	}
	c.resets.Add(1)
}

func testName(t *testing.T, s string) Name {
	t.Helper()
	n, err := ParseName(s)
	if err != nil {
		t.Fatalf("ParseName(%q): %v", s, err)
	}
	return n
}

// TestPanicIsolatedEvaluateActive: a panicking Counter.Value must not
// abort the sweep — its entry carries StatusInvalidData, the remaining
// counters evaluate normally, and the error self-counter increments.
func TestPanicIsolatedEvaluateActive(t *testing.T) {
	r := NewRegistry()
	good := NewRawCounter(testName(t, "/test{locality#0/total}/good"),
		Info{TypeName: "/test/good", Unit: UnitEvents, Version: "1.0"})
	good.Add(5)
	bad := &panicCounter{name: testName(t, "/test{locality#0/total}/bad"), panicValue: true}
	for _, c := range []Counter{good, bad} {
		if err := r.Register(c); err != nil {
			t.Fatal(err)
		}
		if _, err := r.AddActive(c.Name().String()); err != nil {
			t.Fatal(err)
		}
	}

	values := r.EvaluateActiveInto(nil, false)
	if len(values) != 2 {
		t.Fatalf("EvaluateActive returned %d values, want 2", len(values))
	}
	byName := map[string]Value{}
	for _, v := range values {
		byName[v.Name] = v
	}
	if v := byName[bad.name.String()]; v.Status != StatusInvalidData {
		t.Fatalf("bad counter status = %v, want StatusInvalidData", v.Status)
	}
	if v := byName[good.Name().String()]; v.Status != StatusValid || v.Raw != 5 {
		t.Fatalf("good counter corrupted by neighbor panic: %+v", v)
	}
	if got := r.EvalErrors(); got != 1 {
		t.Fatalf("EvalErrors = %d, want 1", got)
	}

	// The self-counter reports the same number through the normal path.
	v, err := r.Evaluate("/counters{locality#0/total}/count/errors", false)
	if err != nil || v.Raw != 1 || v.Status != StatusValid {
		t.Fatalf("self-counter = %+v, %v", v, err)
	}

	// Single-counter Evaluate is isolated the same way.
	v, err = r.Evaluate(bad.name.String(), false)
	if err != nil {
		t.Fatalf("Evaluate returned error for panicking counter: %v", err)
	}
	if v.Status != StatusInvalidData {
		t.Fatalf("Evaluate status = %v, want StatusInvalidData", v.Status)
	}
	if got := r.EvalErrors(); got != 2 {
		t.Fatalf("EvalErrors = %d, want 2", got)
	}
}

// TestPanicIsolatedResetActive: a panicking Reset must not stop the
// sweep from resetting the remaining counters.
func TestPanicIsolatedResetActive(t *testing.T) {
	r := NewRegistry()
	bad := &panicCounter{name: testName(t, "/test{locality#0/total}/badreset"), panicReset: true}
	ok := &panicCounter{name: testName(t, "/test{locality#0/total}/okreset")}
	for _, c := range []Counter{bad, ok} {
		if err := r.Register(c); err != nil {
			t.Fatal(err)
		}
		if _, err := r.AddActive(c.Name().String()); err != nil {
			t.Fatal(err)
		}
	}
	r.ResetActive() // must not panic
	if ok.resets.Load() == 0 {
		t.Fatal("healthy counter was not reset after neighbor's Reset panicked")
	}
	if r.EvalErrors() == 0 {
		t.Fatal("reset panic not accounted in EvalErrors")
	}
}

// TestPanicIsolatedEvaluateConcurrent exercises the recovery path under
// the race detector: concurrent sweeps over a panicking counter.
func TestPanicIsolatedEvaluateConcurrent(t *testing.T) {
	r := NewRegistry()
	bad := &panicCounter{name: testName(t, "/test{locality#0/total}/bad"), panicValue: true}
	if err := r.Register(bad); err != nil {
		t.Fatal(err)
	}
	if _, err := r.AddActive(bad.name.String()); err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	const sweeps = 50
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < sweeps; i++ {
				for _, v := range r.EvaluateActiveInto(nil, false) {
					if v.Name == bad.name.String() && v.Status != StatusInvalidData {
						t.Errorf("bad counter status = %v", v.Status)
					}
				}
			}
		}()
	}
	wg.Wait()
	if got := r.EvalErrors(); got != 4*sweeps {
		t.Fatalf("EvalErrors = %d, want %d", got, 4*sweeps)
	}
}

// TestPanicIsolatedStatisticsBase: a statistics counter sampling a
// panicking base — from its own ticker or a direct Sample — contains
// the panic, counts it in EvalErrors and reports no data, instead of
// taking the process down.
func TestPanicIsolatedStatisticsBase(t *testing.T) {
	r := NewRegistry()
	bad := &panicCounter{name: testName(t, "/test{locality#0/total}/bad"), panicValue: true}
	if err := r.Register(bad); err != nil {
		t.Fatal(err)
	}
	name := "/statistics{/test{locality#0/total}/bad}/average@1"
	if _, err := r.AddActive(name); err != nil {
		t.Fatal(err)
	}
	defer r.RemoveActive(name)
	getStats(t, r, name).Sample()
	if r.EvalErrors() == 0 {
		t.Fatal("base panic not accounted in EvalErrors")
	}
	v, err := r.Evaluate(name, false)
	if err != nil {
		t.Fatal(err)
	}
	if v.Valid() {
		t.Fatalf("statistics over a panicking base = %+v, want no data", v)
	}
}

// closableCounter records whether it was closed.
type closableCounter struct {
	name   Name
	closed atomic.Bool
}

func (c *closableCounter) Name() Name { return c.name }
func (c *closableCounter) Info() Info {
	return Info{TypeName: c.name.TypeName(), Unit: UnitEvents, Version: "1.0"}
}
func (c *closableCounter) Value(bool) Value {
	return Value{Name: c.name.String(), Raw: 1, Scaling: 1, Time: time.Now(), Status: StatusValid}
}
func (c *closableCounter) Reset()       {}
func (c *closableCounter) Close() error { c.closed.Store(true); return nil }

// TestRegisterRaceLoserClosed: when concurrent Gets race to instantiate
// the same counter, registration is first-wins — every caller sees one
// shared instance and each losing twin is Closed so factory-held
// resources are not leaked.
func TestRegisterRaceLoserClosed(t *testing.T) {
	r := NewRegistry()
	var created []*closableCounter
	var mu sync.Mutex
	err := r.RegisterType(Info{TypeName: "/raced/value", Unit: UnitEvents, Version: "1.0"},
		func(name Name, _ *Registry) (Counter, error) {
			c := &closableCounter{name: name}
			mu.Lock()
			created = append(created, c)
			mu.Unlock()
			time.Sleep(time.Millisecond) // widen the race window
			return c, nil
		}, nil)
	if err != nil {
		t.Fatal(err)
	}

	const goroutines = 8
	full := "/raced{locality#0/total}/value"
	got := make([]Counter, goroutines)
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			c, err := r.Get(full)
			if err != nil {
				t.Error(err)
				return
			}
			got[g] = c
		}()
	}
	wg.Wait()

	for g := 1; g < goroutines; g++ {
		if got[g] != got[0] {
			t.Fatal("racing Gets returned different instances")
		}
	}
	winner := got[0].(*closableCounter)
	mu.Lock()
	defer mu.Unlock()
	if len(created) == 0 {
		t.Fatal("factory never ran")
	}
	for i, c := range created {
		if c == winner {
			if c.closed.Load() {
				t.Fatal("winning instance was closed")
			}
			continue
		}
		if !c.closed.Load() {
			t.Fatalf("losing instance %d of %d not closed", i, len(created))
		}
	}
}

// TestRegisterFirstWins documents Register's own collision semantics:
// the second registration of a full name errors out and the original
// instance keeps serving.
func TestRegisterFirstWins(t *testing.T) {
	r := NewRegistry()
	name := testName(t, "/test{locality#0/total}/dup")
	first := &closableCounter{name: name}
	second := &closableCounter{name: name}
	if err := r.Register(first); err != nil {
		t.Fatal(err)
	}
	if err := r.Register(second); err == nil {
		t.Fatal("duplicate Register did not error")
	}
	c, err := r.Get(name.String())
	if err != nil || c != Counter(first) {
		t.Fatalf("Get after duplicate Register = %v, %v; want the first instance", c, err)
	}
}
