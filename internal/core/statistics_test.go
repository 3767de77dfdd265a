package core

import (
	"math"
	"math/rand"
	"reflect"
	"sort"
	"sync"
	"sync/atomic"
	"testing"
	"testing/quick"
	"time"
)

// newStatsFixture registers a raw base counter and returns it with the
// registry.
func newStatsFixture(t *testing.T) (*Registry, *RawCounter) {
	t.Helper()
	r := NewRegistry()
	base := NewRawCounter(mustName(t, "/threads{locality#0/total}/count/cumulative"), Info{Unit: UnitEvents})
	r.MustRegister(base)
	return r, base
}

func getStats(t *testing.T, r *Registry, name string) *StatisticsCounter {
	t.Helper()
	c, err := r.Get(name)
	if err != nil {
		t.Fatalf("Get(%q): %v", name, err)
	}
	sc, ok := c.(*StatisticsCounter)
	if !ok {
		t.Fatalf("got %T", c)
	}
	return sc
}

func TestStatisticsAverage(t *testing.T) {
	r, base := newStatsFixture(t)
	sc := getStats(t, r, "/statistics{/threads{locality#0/total}/count/cumulative}/average@100")
	for _, v := range []int64{10, 20, 60} {
		base.Set(v)
		sc.Sample()
	}
	v := sc.Value(false)
	if got := v.Float64(); got != 30 {
		t.Fatalf("average = %v", got)
	}
	if v.Count != 3 {
		t.Fatalf("count = %d", v.Count)
	}
}

func TestStatisticsRolling(t *testing.T) {
	r, base := newStatsFixture(t)
	sc := getStats(t, r, "/statistics{/threads{locality#0/total}/count/cumulative}/rolling_average@100,3")
	for _, v := range []int64{1000, 10, 20, 60} { // first sample must roll out
		base.Set(v)
		sc.Sample()
	}
	if got := sc.Value(false).Float64(); got != 30 {
		t.Fatalf("rolling average = %v", got)
	}
}

func TestStatisticsMinMaxStddevMedian(t *testing.T) {
	r, base := newStatsFixture(t)
	samples := []int64{5, 1, 9, 3}
	feed := func(name string) *StatisticsCounter {
		sc := getStats(t, r, name)
		for _, v := range samples {
			base.Set(v)
			sc.Sample()
		}
		return sc
	}
	if got := feed("/statistics{/threads{locality#0/total}/count/cumulative}/max@100").Value(false).Float64(); got != 9 {
		t.Errorf("max = %v", got)
	}
	if got := feed("/statistics{/threads{locality#0/total}/count/cumulative}/min@100").Value(false).Float64(); got != 1 {
		t.Errorf("min = %v", got)
	}
	if got := feed("/statistics{/threads{locality#0/total}/count/cumulative}/median@100").Value(false).Float64(); got != 4 {
		t.Errorf("median = %v", got)
	}
	want := math.Sqrt((0.25 + 12.25 + 20.25 + 2.25) / 4.0) // mean 4.5, squared devs / n
	got := feed("/statistics{/threads{locality#0/total}/count/cumulative}/stddev@100").Value(false).Float64()
	if math.Abs(got-want) > 0.01 {
		t.Errorf("stddev = %v want %v", got, want)
	}
}

func TestStatisticsRate(t *testing.T) {
	base0 := time.Date(2026, 7, 5, 12, 0, 0, 0, time.UTC)
	cur := base0
	defer func(f func() time.Time) { now = f }(now)
	now = func() time.Time { return cur }

	r, base := newStatsFixture(t)
	sc := getStats(t, r, "/statistics{/threads{locality#0/total}/count/cumulative}/rate@100")
	base.Set(0)
	sc.Sample()
	cur = base0.Add(time.Second)
	base.Set(500)
	sc.Sample()
	cur = base0.Add(2 * time.Second)
	base.Set(1500)
	sc.Sample()
	// Rates: 500/s then 1000/s; mean 750.
	if got := sc.Value(false).Float64(); got != 750 {
		t.Fatalf("rate = %v", got)
	}
}

func TestStatisticsEmptyInvalid(t *testing.T) {
	r, _ := newStatsFixture(t)
	sc := getStats(t, r, "/statistics{/threads{locality#0/total}/count/cumulative}/average@100")
	if v := sc.Value(false); v.Status != StatusInvalidData {
		t.Fatalf("empty statistics status = %v", v.Status)
	}
}

func TestStatisticsEvaluateAndReset(t *testing.T) {
	r, base := newStatsFixture(t)
	sc := getStats(t, r, "/statistics{/threads{locality#0/total}/count/cumulative}/average@100")
	base.Set(10)
	sc.Sample()
	if v := sc.Value(true); v.Float64() != 10 {
		t.Fatalf("value = %+v", v)
	}
	if v := sc.Value(false); v.Status != StatusInvalidData {
		t.Fatalf("reset did not clear samples: %+v", v)
	}
	base.Set(4)
	sc.Sample()
	sc.Reset()
	if v := sc.Value(false); v.Status != StatusInvalidData {
		t.Fatalf("Reset did not clear samples: %+v", v)
	}
}

func TestStatisticsStartStop(t *testing.T) {
	r, base := newStatsFixture(t)
	base.Set(42)
	sc := getStats(t, r, "/statistics{/threads{locality#0/total}/count/cumulative}/average@1")
	sc.Start()
	sc.Start() // idempotent
	deadline := time.After(2 * time.Second)
	for {
		if v := sc.Value(false); v.Valid() && v.Float64() == 42 {
			break
		}
		select {
		case <-deadline:
			t.Fatal("background sampler produced no samples")
		case <-time.After(5 * time.Millisecond):
		}
	}
	sc.Stop()
	sc.Stop() // idempotent
}

// blockingCounter's Value blocks until release closes, announcing the
// first call on entered.
type blockingCounter struct {
	name    Name
	entered chan struct{}
	once    sync.Once
	release chan struct{}
}

func (c *blockingCounter) Name() Name { return c.name }
func (c *blockingCounter) Info() Info {
	return Info{TypeName: c.name.TypeName(), Unit: UnitEvents, Version: "1.0"}
}
func (c *blockingCounter) Value(bool) Value {
	c.once.Do(func() { close(c.entered) })
	<-c.release
	return Value{Name: c.name.String(), Raw: 1, Scaling: 1, Time: time.Now(), Status: StatusValid}
}
func (c *blockingCounter) Reset() {}

// TestStatisticsStopWaitsForSample: RemoveActive (Stop) must not return
// while the sampler is blocked in the base's Value — otherwise that
// sample lands after the counter was stopped.
func TestStatisticsStopWaitsForSample(t *testing.T) {
	r := NewRegistry()
	base := &blockingCounter{name: mustName(t, "/test{locality#0/total}/slow"),
		entered: make(chan struct{}), release: make(chan struct{})}
	r.MustRegister(base)
	name := "/statistics{/test{locality#0/total}/slow}/average@1"
	if _, err := r.AddActive(name); err != nil {
		t.Fatal(err)
	}
	<-base.entered

	var released atomic.Bool
	stopped := make(chan struct{})
	go func() {
		defer close(stopped)
		r.RemoveActive(name)
		if !released.Load() {
			t.Error("RemoveActive returned while a sample was blocked in the base")
		}
	}()
	// A Stop that does not wait returns straight away; give it the
	// chance before releasing the base. A correct Stop is still blocked.
	select {
	case <-stopped:
	case <-time.After(20 * time.Millisecond):
	}
	released.Store(true)
	close(base.release)
	<-stopped
	if got := getStats(t, r, name).Value(false).Count; got != 1 {
		t.Fatalf("stopped counter holds %d samples, want exactly the one in flight", got)
	}
}

func TestStatisticsErrors(t *testing.T) {
	r, _ := newStatsFixture(t)
	bad := []string{
		"/statistics{locality#0/total}/average",                                          // instance path, not a base counter
		"/statistics{/threads{locality#0/total}/count/cumulative}/average@0",             // zero interval
		"/statistics{/threads{locality#0/total}/count/cumulative}/average@x",             // bad interval
		"/statistics{/threads{locality#0/total}/count/cumulative}/rolling_average@100,0", // bad window
		"/statistics{/nosuch{locality#0/total}/counter}/average@100",                     // unknown base
	}
	for _, s := range bad {
		if _, err := r.Get(s); err == nil {
			t.Errorf("Get(%q) unexpectedly succeeded", s)
		}
	}
}

// TestStatisticsAgainstReference cross-checks the aggregates against a
// brute-force reference on random sample sets (property-based).
func TestStatisticsAgainstReference(t *testing.T) {
	cfg := &quick.Config{
		MaxCount: 50,
		Values: func(args []reflect.Value, r *rand.Rand) {
			n := 1 + r.Intn(40)
			xs := make([]int64, n)
			for i := range xs {
				xs[i] = int64(r.Intn(10000))
			}
			args[0] = reflect.ValueOf(xs)
		},
	}
	prop := func(xs []int64) bool {
		r, base := newStatsFixture(t)
		avg := getStats(t, r, "/statistics{/threads{locality#0/total}/count/cumulative}/average@100")
		mx := getStats(t, r, "/statistics{/threads{locality#0/total}/count/cumulative}/max@100")
		med := getStats(t, r, "/statistics{/threads{locality#0/total}/count/cumulative}/median@100")
		for _, x := range xs {
			base.Set(x)
			avg.Sample()
			mx.Sample()
			med.Sample()
		}
		var sum, max int64
		fs := make([]float64, len(xs))
		for i, x := range xs {
			sum += x
			if x > max {
				max = x
			}
			fs[i] = float64(x)
		}
		sort.Float64s(fs)
		var wantMed float64
		if len(fs)%2 == 1 {
			wantMed = fs[len(fs)/2]
		} else {
			wantMed = (fs[len(fs)/2-1] + fs[len(fs)/2]) / 2
		}
		wantAvg := float64(sum) / float64(len(xs))
		const eps = 0.001 // fixed-point rounding at scale 1000
		return math.Abs(avg.Value(false).Float64()-wantAvg) <= eps &&
			mx.Value(false).Float64() == float64(max) &&
			math.Abs(med.Value(false).Float64()-wantMed) <= eps
	}
	if err := quick.Check(prop, cfg); err != nil {
		t.Fatal(err)
	}
}

func TestArithmeticCounters(t *testing.T) {
	r := NewRegistry()
	a := NewRawCounter(mustName(t, "/x{locality#0/total}/a"), Info{})
	b := NewRawCounter(mustName(t, "/x{locality#0/total}/b"), Info{})
	r.MustRegister(a)
	r.MustRegister(b)
	a.Set(30)
	b.Set(6)
	cases := map[string]float64{
		"/arithmetics/add@/x{locality#0/total}/a,/x{locality#0/total}/b":      36,
		"/arithmetics/subtract@/x{locality#0/total}/a,/x{locality#0/total}/b": 24,
		"/arithmetics/multiply@/x{locality#0/total}/a,/x{locality#0/total}/b": 180,
		"/arithmetics/divide@/x{locality#0/total}/a,/x{locality#0/total}/b":   5,
		"/arithmetics/mean@/x{locality#0/total}/a,/x{locality#0/total}/b":     18,
	}
	for name, want := range cases {
		c, err := r.Get(name)
		if err != nil {
			t.Fatalf("Get(%q): %v", name, err)
		}
		if got := c.Value(false).Float64(); got != want {
			t.Errorf("%s = %v want %v", name, got, want)
		}
	}
}

func TestArithmeticDivideByZero(t *testing.T) {
	r := NewRegistry()
	a := NewRawCounter(mustName(t, "/x{locality#0/total}/a"), Info{})
	b := NewRawCounter(mustName(t, "/x{locality#0/total}/b"), Info{})
	r.MustRegister(a)
	r.MustRegister(b)
	a.Set(30)
	c, err := r.Get("/arithmetics/divide@/x{locality#0/total}/a,/x{locality#0/total}/b")
	if err != nil {
		t.Fatal(err)
	}
	if v := c.Value(false); v.Status != StatusInvalidData {
		t.Fatalf("divide by zero status = %v", v.Status)
	}
}

func TestArithmeticReset(t *testing.T) {
	r := NewRegistry()
	a := NewRawCounter(mustName(t, "/x{locality#0/total}/a"), Info{})
	b := NewRawCounter(mustName(t, "/x{locality#0/total}/b"), Info{})
	r.MustRegister(a)
	r.MustRegister(b)
	a.Set(1)
	b.Set(2)
	c, err := r.Get("/arithmetics/add@/x{locality#0/total}/a,/x{locality#0/total}/b")
	if err != nil {
		t.Fatal(err)
	}
	c.Reset()
	if a.Load() != 0 || b.Load() != 0 {
		t.Fatal("Reset did not propagate to operands")
	}
	a.Set(3)
	b.Set(4)
	if got := c.Value(true).Float64(); got != 7 {
		t.Fatalf("value = %v", got)
	}
	if a.Load() != 0 || b.Load() != 0 {
		t.Fatal("evaluate-and-reset did not propagate")
	}
}

func TestArithmeticErrors(t *testing.T) {
	r := NewRegistry()
	a := NewRawCounter(mustName(t, "/x{locality#0/total}/a"), Info{})
	r.MustRegister(a)
	for _, s := range []string{
		"/arithmetics/add@/x{locality#0/total}/a",                             // one operand
		"/arithmetics/add@",                                                   // none
		"/arithmetics/add@/nosuch{locality#0/total}/z,/x{locality#0/total}/a", // unknown operand
	} {
		if _, err := r.Get(s); err == nil {
			t.Errorf("Get(%q) unexpectedly succeeded", s)
		}
	}
}

func TestStatisticsOfArithmetic(t *testing.T) {
	// Meta counters compose: statistics over an arithmetic counter.
	r := NewRegistry()
	a := NewRawCounter(mustName(t, "/x{locality#0/total}/a"), Info{})
	b := NewRawCounter(mustName(t, "/x{locality#0/total}/b"), Info{})
	r.MustRegister(a)
	r.MustRegister(b)
	a.Set(10)
	b.Set(5)
	sc := getStats(t, r, "/statistics{/arithmetics/add@/x{locality#0/total}/a,/x{locality#0/total}/b}/max@50")
	sc.Sample()
	a.Set(100)
	sc.Sample()
	if got := sc.Value(false).Float64(); got != 105 {
		t.Fatalf("max of sum = %v", got)
	}
}
