package core

import (
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

func testRawCounter(i int64) *RawCounter {
	n := Name{Object: "runtime", Counter: "count/tasks"}.
		WithInstances(LocalityInstance(0, "worker-thread", i)...)
	return NewRawCounter(n, Info{TypeName: "/runtime/count/tasks", Unit: UnitEvents})
}

func TestHandleEvaluate(t *testing.T) {
	r := NewRegistry()
	c := testRawCounter(0)
	r.MustRegister(c)
	c.Add(7)

	h, err := r.Bind(c.Name().String())
	if err != nil {
		t.Fatalf("Bind: %v", err)
	}
	if !h.Valid() {
		t.Fatal("handle should be valid")
	}
	if h.Name() != c.Name().String() {
		t.Fatalf("handle name = %q, want %q", h.Name(), c.Name().String())
	}
	v := h.Evaluate(false)
	if v.Raw != 7 || v.Status != StatusValid || v.Name != c.Name().String() {
		t.Fatalf("Evaluate = %+v", v)
	}
	// Evaluate-and-reset through the handle.
	if v := h.Evaluate(true); v.Raw != 7 {
		t.Fatalf("evaluate-and-reset read %d, want 7", v.Raw)
	}
	if v := h.Evaluate(false); v.Raw != 0 {
		t.Fatalf("after reset read %d, want 0", v.Raw)
	}
}

func TestHandleUnknown(t *testing.T) {
	r := NewRegistry()
	h, err := r.Bind("/nosuch{locality#0/total}/count/thing")
	if err == nil {
		t.Fatal("Bind of unknown counter should error")
	}
	if h.Valid() {
		t.Fatal("unbound handle should not be valid")
	}
	v := h.Evaluate(false)
	if v.Status != StatusCounterUnknown {
		t.Fatalf("unbound Evaluate status = %v, want CounterUnknown", v.Status)
	}
	if v.Name != "/nosuch{locality#0/total}/count/thing" {
		t.Fatalf("unbound Evaluate name = %q", v.Name)
	}
}

func TestHandlePanicIsolation(t *testing.T) {
	r := NewRegistry()
	bad := &panicCounter{name: Name{Object: "test", Counter: "count/bad"}.
		WithInstances(LocalityInstance(0, "total", -1)...), panicValue: true}
	r.MustRegister(bad)
	h, err := r.Bind(bad.name.String())
	if err != nil {
		t.Fatalf("Bind: %v", err)
	}
	before := r.EvalErrors()
	v := h.Evaluate(false)
	if v.Status != StatusInvalidData {
		t.Fatalf("panicking handle Evaluate status = %v, want InvalidData", v.Status)
	}
	if r.EvalErrors() != before+1 {
		t.Fatalf("EvalErrors = %d, want %d", r.EvalErrors(), before+1)
	}
}

func TestBindSet(t *testing.T) {
	r := NewRegistry()
	c0, c1 := testRawCounter(0), testRawCounter(1)
	r.MustRegister(c0)
	r.MustRegister(c1)
	c0.Add(10)
	c1.Add(20)

	// Deliberately bind in reverse-sorted order: batch results must keep
	// bind order, not name order.
	names := []string{c1.Name().String(), c0.Name().String()}
	s, err := r.BindSet(names)
	if err != nil {
		t.Fatalf("BindSet: %v", err)
	}
	if s.Len() != 2 {
		t.Fatalf("Len = %d", s.Len())
	}
	vals := s.EvaluateBatch(nil, false)
	if len(vals) != 2 || vals[0].Raw != 20 || vals[1].Raw != 10 {
		t.Fatalf("EvaluateBatch = %+v", vals)
	}
	if vals[0].Name != names[0] || vals[1].Name != names[1] {
		t.Fatalf("batch order broken: %q, %q", vals[0].Name, vals[1].Name)
	}

	// The destination buffer is reused when it has capacity.
	again := s.EvaluateBatch(vals, false)
	if &again[0] != &vals[0] {
		t.Fatal("EvaluateBatch did not reuse the destination buffer")
	}

	// Strict binding fails on any unknown name.
	if _, err := r.BindSet([]string{names[0], "/nosuch{locality#0/total}/count/x"}); err == nil {
		t.Fatal("strict BindSet should fail on unknown names")
	}

	// Lenient binding degrades the unknown slot only.
	ls := r.BindSetLenient([]string{names[0], "/nosuch{locality#0/total}/count/x"})
	lv := ls.EvaluateBatch(nil, false)
	if lv[0].Status != StatusValid || lv[1].Status != StatusCounterUnknown {
		t.Fatalf("lenient batch = %+v", lv)
	}
}

func TestBindActive(t *testing.T) {
	r := NewRegistry()
	c0, c1 := testRawCounter(0), testRawCounter(1)
	r.MustRegister(c0)
	r.MustRegister(c1)
	for _, c := range []Counter{c1, c0} {
		if _, err := r.AddActive(c.Name().String()); err != nil {
			t.Fatalf("AddActive: %v", err)
		}
	}
	// Binding the active names gives the same sweep as the published
	// active set: name-sorted whatever the AddActive order.
	s, err := r.BindSet(r.Active())
	if err != nil {
		t.Fatalf("BindSet(Active()): %v", err)
	}
	c0.Add(1)
	c1.Add(2)
	got := s.EvaluateBatch(nil, false)
	want := r.EvaluateActiveInto(nil, false)
	if len(got) != 2 || len(want) != 2 {
		t.Fatalf("batch %d values, active %d, want 2 each", len(got), len(want))
	}
	if want[0].Name != c0.Name().String() || want[1].Name != c1.Name().String() {
		t.Fatalf("active sweep not name-sorted: %q, %q", want[0].Name, want[1].Name)
	}
	for i := range got {
		if got[i].Name != want[i].Name || got[i].Raw != want[i].Raw {
			t.Fatalf("batch[%d] = %+v, active = %+v", i, got[i], want[i])
		}
	}
}

// TestHandleAllocs locks in the PR's headline property: the compiled
// read path allocates nothing at steady state.
func TestHandleAllocs(t *testing.T) {
	r := NewRegistry()
	c := testRawCounter(0)
	r.MustRegister(c)
	h, err := r.Bind(c.Name().String())
	if err != nil {
		t.Fatalf("Bind: %v", err)
	}
	if n := testing.AllocsPerRun(1000, func() { h.Evaluate(false) }); n != 0 {
		t.Fatalf("Handle.Evaluate allocates %v per run, want 0", n)
	}

	s, err := r.BindSet([]string{c.Name().String()})
	if err != nil {
		t.Fatalf("BindSet: %v", err)
	}
	dst := make([]Value, 0, s.Len())
	if n := testing.AllocsPerRun(1000, func() { dst = s.EvaluateBatch(dst, false) }); n != 0 {
		t.Fatalf("EvaluateBatch allocates %v per run, want 0", n)
	}

	buf := make([]Value, 0, 8)
	if n := testing.AllocsPerRun(1000, func() { buf = r.EvaluateActiveInto(buf, false) }); n != 0 {
		t.Fatalf("EvaluateActiveInto allocates %v per run, want 0", n)
	}
}

// TestRegistryShardStress exercises Register/Remove/AddActive/
// RemoveActive/Evaluate/EvaluateActiveInto concurrently. Its value is
// under -race: the instance map and the lock-free active snapshot must
// stay coherent while mutators run.
func TestRegistryShardStress(t *testing.T) {
	r := NewRegistry()
	const fixed = 8
	for i := 0; i < fixed; i++ {
		c := testRawCounter(int64(i))
		r.MustRegister(c)
		if _, err := r.AddActive(c.Name().String()); err != nil {
			t.Fatalf("AddActive: %v", err)
		}
	}

	dur := 300 * time.Millisecond
	if testing.Short() {
		dur = 50 * time.Millisecond
	}
	stop := make(chan struct{})
	var failures atomic.Int64
	var wg sync.WaitGroup

	// Churners: register/activate/deactivate/remove a private counter.
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := int64(0); ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				n := Name{Object: "stress", Counter: "count/churn"}.
					WithInstances(LocalityInstance(int64(g), "worker-thread", i%16)...)
				c := NewRawCounter(n, Info{TypeName: "/stress/count/churn"})
				if err := r.Register(c); err != nil {
					continue // sibling churner briefly owns this slot
				}
				key := n.String()
				if _, err := r.AddActive(key); err != nil {
					failures.Add(1)
				}
				r.RemoveActive(key)
				r.Remove(key)
			}
		}(g)
	}
	// Samplers: the lock-free read paths.
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var buf []Value
			fixedName := testRawCounter(0).Name().String()
			for {
				select {
				case <-stop:
					return
				default:
				}
				buf = r.EvaluateActiveInto(buf, false)
				for i := 1; i < len(buf); i++ {
					if buf[i-1].Name >= buf[i].Name {
						failures.Add(1)
					}
				}
				if _, err := r.Evaluate(fixedName, false); err != nil {
					failures.Add(1)
				}
				_ = r.Active()
			}
		}()
	}

	time.Sleep(dur)
	close(stop)
	wg.Wait()
	if f := failures.Load(); f != 0 {
		t.Fatalf("%d consistency failures under concurrent churn", f)
	}
	// The fixed counters must all still be present and active.
	active := r.Active()
	count := 0
	for _, n := range active {
		if len(n) >= 8 && n[:8] == "/runtime" {
			count++
		}
	}
	if count != fixed {
		t.Fatalf("fixed active counters = %d, want %d (active: %v)", count, fixed, active)
	}
}

// BenchmarkEvaluateString measures string-keyed Evaluate with the exact
// canonical name: the shard-map fast path, no ParseName.
func BenchmarkEvaluateString(b *testing.B) {
	r := NewRegistry()
	c := testRawCounter(0)
	r.MustRegister(c)
	name := c.Name().String()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := r.Evaluate(name, false); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkEvaluateParsed measures the pre-fast-path behaviour —
// ParseName on every call followed by the parsed-name lookup — to
// quantify what the exact-match fast path saves.
func BenchmarkEvaluateParsed(b *testing.B) {
	r := NewRegistry()
	c := testRawCounter(0)
	r.MustRegister(c)
	name := c.Name().String()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		n, err := ParseName(name)
		if err != nil {
			b.Fatal(err)
		}
		cc, err := r.get(n)
		if err != nil {
			b.Fatal(err)
		}
		_ = r.safeValue(cc, false)
	}
}

// BenchmarkHandleEvaluate measures the compiled fast path.
func BenchmarkHandleEvaluate(b *testing.B) {
	r := NewRegistry()
	c := testRawCounter(0)
	r.MustRegister(c)
	h, err := r.Bind(c.Name().String())
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = h.Evaluate(false)
	}
}

// BenchmarkEvaluateBatch measures a full active-set sweep through the
// published BindSet with a reused buffer — the sampling loop's steady
// state.
func BenchmarkEvaluateBatch(b *testing.B) {
	r := NewRegistry()
	for i := 0; i < 8; i++ {
		c := testRawCounter(int64(i))
		r.MustRegister(c)
		if _, err := r.AddActive(c.Name().String()); err != nil {
			b.Fatal(err)
		}
	}
	dst := make([]Value, 0, 8)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		dst = r.EvaluateActiveInto(dst, false)
	}
}
