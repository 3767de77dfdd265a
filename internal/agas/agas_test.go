package agas

import (
	"errors"
	"testing"

	"repro/internal/core"
)

func TestLocalityCounters(t *testing.T) {
	l := NewLocality(2, "node-2")
	if l.ID() != 2 || l.Name() != "node-2" {
		t.Fatalf("identity: %d %q", l.ID(), l.Name())
	}
	for _, op := range []string{"bind", "resolve", "unbind"} {
		name := "/agas{locality#2/total}/count/" + op
		v, err := l.Registry().Evaluate(name, false)
		if err != nil {
			t.Fatalf("Evaluate(%s): %v", name, err)
		}
		if v.Raw != 0 {
			t.Fatalf("%s initial = %d", op, v.Raw)
		}
	}
}

func TestResolverBindResolve(t *testing.T) {
	r := NewResolver()
	l0 := NewLocality(0, "root")
	l1 := NewLocality(1, "peer")
	if err := r.Bind(l0); err != nil {
		t.Fatal(err)
	}
	if err := r.Bind(l1); err != nil {
		t.Fatal(err)
	}
	if err := r.Bind(NewLocality(0, "dup")); err == nil {
		t.Fatal("duplicate bind accepted")
	}
	got, err := r.Resolve(1)
	if err != nil || got != l1 {
		t.Fatalf("Resolve(1) = %v, %v", got, err)
	}
	if _, err := r.Resolve(9); err == nil {
		t.Fatal("unknown locality resolved")
	}
	if len(r.Localities()) != 2 {
		t.Fatalf("Localities = %v", r.Localities())
	}
	// Resolve was counted on the target locality.
	v, _ := l1.Registry().Evaluate("/agas{locality#1/total}/count/resolve", false)
	if v.Raw != 1 {
		t.Fatalf("resolve count = %d", v.Raw)
	}
	r.Unbind(1)
	if _, err := r.Resolve(1); err == nil {
		t.Fatal("unbound locality still resolves")
	}
}

func TestLocalityOf(t *testing.T) {
	cases := map[string]int64{
		"/threads{locality#0/total}/time/average":                              0,
		"/threads{locality#7/worker-thread#3}/idle-rate":                       7,
		"/statistics{/threads{locality#4/total}/count/cumulative}/average@100": 4,
	}
	for s, want := range cases {
		n, err := core.ParseName(s)
		if err != nil {
			t.Fatalf("ParseName(%q): %v", s, err)
		}
		got, err := LocalityOf(n)
		if err != nil || got != want {
			t.Errorf("LocalityOf(%q) = %d, %v want %d", s, got, err, want)
		}
	}
	bad, _ := core.ParseName("/arithmetics/add@/x{a#0/b}/c,/x{a#0/b}/d")
	if _, err := LocalityOf(bad); err == nil {
		t.Error("name without locality prefix accepted")
	}
}

func TestEvaluateCounterCrossLocality(t *testing.T) {
	r := NewResolver()
	l0 := NewLocality(0, "here")
	l1 := NewLocality(1, "there")
	if err := r.Bind(l0); err != nil {
		t.Fatal(err)
	}
	if err := r.Bind(l1); err != nil {
		t.Fatal(err)
	}
	c := core.NewRawCounter(
		core.Name{Object: "threads", Counter: "count/cumulative"}.
			WithInstances(core.LocalityInstance(1, "total", -1)...),
		core.Info{TypeName: "/threads/count/cumulative"})
	l1.Registry().MustRegister(c)
	c.Add(42)

	// Access by name alone: the resolver routes to locality 1.
	v, err := r.EvaluateCounter("/threads{locality#1/total}/count/cumulative", false)
	if err != nil || v.Raw != 42 {
		t.Fatalf("cross-locality evaluate = %+v, %v", v, err)
	}
	// Errors: unknown locality, unparsable name, missing counter.
	if _, err := r.EvaluateCounter("/threads{locality#5/total}/count/cumulative", false); err == nil {
		t.Fatal("unknown locality accepted")
	}
	if _, err := r.EvaluateCounter("garbage", false); err == nil {
		t.Fatal("garbage name accepted")
	}
	if _, err := r.EvaluateCounter("/threads{locality#0/total}/count/cumulative", false); err == nil {
		t.Fatal("missing counter on locality 0 accepted")
	}
}

// flakyProvider is a CounterProvider whose behaviour the test flips —
// healthy, failing, serving stale values or answering short — and which
// records its exchanges, so tests can assert one per locality.
type flakyProvider struct {
	fail, stale, short bool
	v                  core.Value
	calls              int
	lastNames          []string
}

func (f *flakyProvider) EvaluateBulk(names []string, reset bool) ([]core.Value, error) {
	f.calls++
	f.lastNames = append([]string(nil), names...)
	if f.fail {
		return nil, errors.New("flaky: endpoint down")
	}
	vals := make([]core.Value, len(names))
	for i, name := range names {
		vals[i] = f.v
		vals[i].Name = name
		if f.stale {
			vals[i].Status = core.StatusStale
		}
	}
	if f.short {
		vals = vals[:len(vals)-1]
	}
	return vals, nil
}

func TestRemoteEndpointHealthTracking(t *testing.T) {
	r := NewResolver()
	fp := &flakyProvider{v: core.Value{Raw: 7, Status: core.StatusValid}}
	if err := r.BindRemote(3, fp); err != nil {
		t.Fatal(err)
	}
	name := "/threads{locality#3/total}/count/cumulative"

	if _, ok := r.Health(99); ok {
		t.Fatal("health reported for an unbound locality")
	}
	h, ok := r.Health(3)
	if !ok || !h.Healthy() || h.Successes != 0 {
		t.Fatalf("initial health = %+v, %v", h, ok)
	}

	if _, err := r.EvaluateCounter(name, false); err != nil {
		t.Fatal(err)
	}
	h, _ = r.Health(3)
	if !h.Healthy() || h.Successes != 1 || h.LastSuccess.IsZero() {
		t.Fatalf("health after success = %+v", h)
	}

	fp.fail = true
	for i := 0; i < 2; i++ {
		if _, err := r.EvaluateCounter(name, false); err == nil {
			t.Fatal("failing endpoint reported success")
		}
	}
	h, _ = r.Health(3)
	if h.Healthy() || h.Consecutive != 2 || h.Failures != 2 ||
		h.LastError != "flaky: endpoint down" || h.LastFailure.IsZero() {
		t.Fatalf("health after failures = %+v", h)
	}

	// A stale answer means the endpoint did NOT answer — transport served
	// a cache — so it counts against health despite the nil error.
	fp.fail = false
	fp.stale = true
	if _, err := r.EvaluateCounter(name, false); err != nil {
		t.Fatal(err)
	}
	h, _ = r.Health(3)
	if h.Healthy() || h.Consecutive != 3 {
		t.Fatalf("health after stale = %+v", h)
	}

	// Recovery resets the consecutive run.
	fp.stale = false
	if _, err := r.EvaluateCounter(name, false); err != nil {
		t.Fatal(err)
	}
	h, _ = r.Health(3)
	if !h.Healthy() || h.Consecutive != 0 || h.Successes != 2 {
		t.Fatalf("health after recovery = %+v", h)
	}
}

func TestEvaluateAcrossPartialResults(t *testing.T) {
	r := NewResolver()
	l0 := NewLocality(0, "up")
	if err := r.Bind(l0); err != nil {
		t.Fatal(err)
	}
	c := core.NewRawCounter(
		core.Name{Object: "threads", Counter: "count/cumulative"}.
			WithInstances(core.LocalityInstance(0, "total", -1)...),
		core.Info{TypeName: "/threads/count/cumulative"})
	l0.Registry().MustRegister(c)
	c.Add(11)
	down := &flakyProvider{fail: true}
	if err := r.BindRemote(1, down); err != nil {
		t.Fatal(err)
	}

	names := []string{
		"/threads{locality#0/total}/count/cumulative", // healthy local
		"/threads{locality#1/total}/count/cumulative", // dead remote
		"/threads{locality#5/total}/count/cumulative", // unknown locality
		"garbage", // unparsable
	}
	vals := r.EvaluateAcross(names, false)
	if len(vals) != len(names) {
		t.Fatalf("EvaluateAcross returned %d values for %d names", len(vals), len(names))
	}
	if vals[0].Raw != 11 || !vals[0].Valid() {
		t.Fatalf("healthy entry = %+v", vals[0])
	}
	for i := 1; i < len(vals); i++ {
		if vals[i].Valid() {
			t.Fatalf("gap %d reported valid: %+v", i, vals[i])
		}
		if vals[i].Name == "" {
			t.Fatalf("gap %d lost its name", i)
		}
	}
}
