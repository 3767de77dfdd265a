package core

import (
	"fmt"
	"strings"
	"sync"
	"testing"
)

// registerWorkerType registers a /threads/test counter type whose
// instances are worker-thread#0..n-1 plus total, each backed by a raw
// counter, and returns the created raw counters keyed by full name.
func registerWorkerType(t *testing.T, r *Registry, workers int) map[string]*RawCounter {
	t.Helper()
	made := make(map[string]*RawCounter)
	var mu sync.Mutex
	info := Info{TypeName: "/threads/test/count", HelpText: "test counter", Unit: UnitEvents}
	err := r.RegisterType(info,
		func(n Name, _ *Registry) (Counter, error) {
			c := NewRawCounter(n, info)
			mu.Lock()
			made[n.String()] = c
			mu.Unlock()
			return c, nil
		},
		func(_ *Registry) []Name {
			var names []Name
			base := Name{Object: "threads", Counter: "test/count"}
			names = append(names, base.WithInstances(LocalityInstance(0, "total", -1)...))
			for i := 0; i < workers; i++ {
				names = append(names, base.WithInstances(LocalityInstance(0, "worker-thread", int64(i))...))
			}
			return names
		})
	if err != nil {
		t.Fatalf("RegisterType: %v", err)
	}
	return made
}

func TestRegistryGetCreatesInstance(t *testing.T) {
	r := NewRegistry()
	made := registerWorkerType(t, r, 2)
	c, err := r.Get("/threads{locality#0/worker-thread#1}/test/count")
	if err != nil {
		t.Fatalf("Get: %v", err)
	}
	if len(made) != 1 {
		t.Fatalf("factory invocations = %d", len(made))
	}
	c2, err := r.Get("/threads{locality#0/worker-thread#1}/test/count")
	if err != nil || c2 != c {
		t.Fatalf("second Get returned a different instance (err=%v)", err)
	}
}

func TestRegistryGetErrors(t *testing.T) {
	r := NewRegistry()
	if _, err := r.Get("/nosuch{locality#0/total}/counter"); err == nil {
		t.Error("unknown type did not error")
	}
	if _, err := r.Get("/threads/test/count"); err == nil {
		t.Error("type-only name did not error")
	}
	if _, err := r.Get("not-a-name"); err == nil {
		t.Error("invalid name did not error")
	}
}

func TestRegistryRegisterInstance(t *testing.T) {
	r := NewRegistry()
	c := NewRawCounter(mustName(t, "/custom{locality#0/total}/thing"), Info{HelpText: "h"})
	if err := r.Register(c); err != nil {
		t.Fatalf("Register: %v", err)
	}
	if err := r.Register(c); err == nil {
		t.Fatal("duplicate Register did not error")
	}
	got, err := r.Get("/custom{locality#0/total}/thing")
	if err != nil || got != c {
		t.Fatalf("Get after Register: %v", err)
	}
	// Type was implicitly registered and shows in Types().
	found := false
	for _, info := range r.Types() {
		if info.TypeName == "/custom/thing" {
			found = true
		}
	}
	if !found {
		t.Fatal("implicit type not listed")
	}
	// Type-only instance names are rejected.
	bad := NewRawCounter(Name{Object: "x", Counter: "y"}, Info{})
	if err := r.Register(bad); err == nil {
		t.Fatal("type-only instance registration did not error")
	}
}

func TestRegistryDiscover(t *testing.T) {
	r := NewRegistry()
	registerWorkerType(t, r, 3)
	names, err := r.Discover("/threads{locality#0/worker-thread#*}/test/count")
	if err != nil {
		t.Fatalf("Discover: %v", err)
	}
	if len(names) != 3 {
		t.Fatalf("got %d names: %v", len(names), names)
	}
	names, err = r.Discover("/threads/test/count")
	if err != nil {
		t.Fatalf("Discover: %v", err)
	}
	if len(names) != 4 { // total + 3 workers
		t.Fatalf("type discovery got %d names: %v", len(names), names)
	}
	// Sorted output.
	for i := 1; i < len(names); i++ {
		if names[i-1].String() >= names[i].String() {
			t.Fatalf("not sorted: %v", names)
		}
	}
	names, err = r.Discover("/threads{locality#1/total}/test/count")
	if err != nil || len(names) != 0 {
		t.Fatalf("foreign locality matched: %v (%v)", names, err)
	}
}

func TestRegistryActiveSet(t *testing.T) {
	r := NewRegistry()
	made := registerWorkerType(t, r, 2)
	added, err := r.AddActive("/threads{locality#0/worker-thread#*}/test/count")
	if err != nil {
		t.Fatalf("AddActive: %v", err)
	}
	if len(added) != 2 {
		t.Fatalf("added = %v", added)
	}
	// Adding again is a no-op.
	added, err = r.AddActive("/threads{locality#0/worker-thread#*}/test/count")
	if err != nil || len(added) != 0 {
		t.Fatalf("re-AddActive added %v (%v)", added, err)
	}
	for _, c := range made {
		c.Add(5)
	}
	vals := r.EvaluateActiveInto(nil, true)
	if len(vals) != 2 {
		t.Fatalf("EvaluateActive returned %d values", len(vals))
	}
	for _, v := range vals {
		if v.Raw != 5 {
			t.Fatalf("value = %+v", v)
		}
	}
	// Ordered by name.
	if !(vals[0].Name < vals[1].Name) {
		t.Fatalf("values unordered: %v then %v", vals[0].Name, vals[1].Name)
	}
	// The evaluate-and-reset cleared them.
	for _, v := range r.EvaluateActiveInto(nil, false) {
		if v.Raw != 0 {
			t.Fatalf("after reset: %+v", v)
		}
	}
	for _, c := range made {
		c.Add(9)
	}
	r.ResetActive()
	for _, v := range r.EvaluateActiveInto(nil, false) {
		if v.Raw != 0 {
			t.Fatalf("after ResetActive: %+v", v)
		}
	}
	names := r.Active()
	if len(names) != 2 || !strings.Contains(names[0], "worker-thread#0") {
		t.Fatalf("Active() = %v", names)
	}
	r.RemoveActive(names[0])
	if len(r.Active()) != 1 {
		t.Fatal("RemoveActive did not remove")
	}
	r.StopActive()
	if len(r.Active()) != 0 {
		t.Fatal("StopActive did not clear")
	}
}

func TestRegistryAddActiveExactUndiscoverable(t *testing.T) {
	r := NewRegistry()
	// A type with a factory but no discoverer: AddActive with an exact
	// name must instantiate it directly.
	info := Info{TypeName: "/lazy/value"}
	r.MustRegisterType(info, func(n Name, _ *Registry) (Counter, error) {
		return NewRawCounter(n, info), nil
	}, nil)
	added, err := r.AddActive("/lazy{locality#0/total}/value")
	if err != nil || len(added) != 1 {
		t.Fatalf("AddActive exact: %v %v", added, err)
	}
	if _, err := r.AddActive("/lazy{locality#0/nope#*}/value"); err == nil {
		t.Fatal("wildcard with no matches did not error")
	}
}

func TestRegistryEvaluate(t *testing.T) {
	r := NewRegistry()
	c := NewRawCounter(mustName(t, "/custom{locality#0/total}/thing"), Info{})
	r.MustRegister(c)
	c.Add(3)
	v, err := r.Evaluate("/custom{locality#0/total}/thing", false)
	if err != nil || v.Raw != 3 {
		t.Fatalf("Evaluate: %+v %v", v, err)
	}
	v, err = r.Evaluate("/custom{locality#0/missing}/thing", false)
	if err == nil || v.Status != StatusCounterUnknown {
		t.Fatalf("missing counter: %+v %v", v, err)
	}
}

func TestRegistryRemove(t *testing.T) {
	r := NewRegistry()
	c := NewRawCounter(mustName(t, "/custom{locality#0/total}/thing"), Info{})
	r.MustRegister(c)
	if _, err := r.AddActive("/custom{locality#0/total}/thing"); err != nil {
		t.Fatal(err)
	}
	r.Remove("/custom{locality#0/total}/thing")
	if len(r.Active()) != 0 {
		t.Fatal("Remove left counter active")
	}
	if _, err := r.Get("/custom{locality#0/total}/thing"); err == nil {
		t.Fatal("Remove left instance gettable")
	}
}

func TestRegistryDuplicateType(t *testing.T) {
	r := NewRegistry()
	info := Info{TypeName: "/dup/type"}
	f := func(n Name, _ *Registry) (Counter, error) { return NewRawCounter(n, info), nil }
	if err := r.RegisterType(info, f, nil); err != nil {
		t.Fatal(err)
	}
	if err := r.RegisterType(info, f, nil); err == nil {
		t.Fatal("duplicate type registration did not error")
	}
	if err := r.RegisterType(Info{TypeName: "/bad{locality#0}/x"}, f, nil); err == nil {
		t.Fatal("instance-carrying type name did not error")
	}
}

func TestRegistryConcurrentGet(t *testing.T) {
	r := NewRegistry()
	info := Info{TypeName: "/conc/value"}
	r.MustRegisterType(info, func(n Name, _ *Registry) (Counter, error) {
		return NewRawCounter(n, info), nil
	}, nil)
	var wg sync.WaitGroup
	counters := make([]Counter, 16)
	for i := range counters {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			c, err := r.Get("/conc{locality#0/total}/value")
			if err != nil {
				t.Errorf("Get: %v", err)
				return
			}
			counters[i] = c
		}(i)
	}
	wg.Wait()
	for i := 1; i < len(counters); i++ {
		if counters[i] != counters[0] {
			t.Fatal("concurrent Get returned distinct instances")
		}
	}
}

func TestHasWildcard(t *testing.T) {
	cases := map[string]bool{
		"/threads{locality#0/total}/time/average":    false,
		"/threads{locality#*/total}/time/average":    true,
		"/threads{locality#0/total}/count/*":         true,
		"/*{locality#0/total}/time/average":          true,
		"/threads{locality#0/total}/count/*/deep":    true,
		"/threads{*/total}/time/average":             true,
		"/threads{locality#0/worker-thread#3}/x/y/z": false,
	}
	for s, want := range cases {
		n := mustName(t, s)
		if got := hasWildcard(n); got != want {
			t.Errorf("hasWildcard(%q) = %v want %v", s, got, want)
		}
	}
}

func TestRegistryTypesSorted(t *testing.T) {
	r := NewRegistry()
	for _, tn := range []string{"/z/last", "/a/first", "/m/middle"} {
		info := Info{TypeName: tn}
		r.MustRegisterType(info, func(n Name, _ *Registry) (Counter, error) {
			return NewRawCounter(n, info), nil
		}, nil)
	}
	types := r.Types()
	for i := 1; i < len(types); i++ {
		if types[i-1].TypeName >= types[i].TypeName {
			t.Fatalf("Types() unsorted: %v", types)
		}
	}
}

func ExampleRegistry() {
	r := NewRegistry()
	tasks := NewRawCounter(
		Name{Object: "threads", Counter: "count/cumulative"}.
			WithInstances(LocalityInstance(0, "total", -1)...),
		Info{TypeName: "/threads/count/cumulative", HelpText: "executed tasks", Unit: UnitEvents})
	r.MustRegister(tasks)
	tasks.Add(1234)
	v, _ := r.Evaluate("/threads{locality#0/total}/count/cumulative", false)
	fmt.Printf("%s = %d\n", v.Name, v.Raw)
	// Output: /threads{locality#0/total}/count/cumulative = 1234
}
