package core

import (
	"sync"
	"testing"
	"time"
)

func mustName(t testing.TB, s string) Name {
	t.Helper()
	n, err := ParseName(s)
	if err != nil {
		t.Fatalf("ParseName(%q): %v", s, err)
	}
	return n
}

func TestRawCounter(t *testing.T) {
	c := NewRawCounter(mustName(t, "/threads{locality#0/total}/count/cumulative"), Info{Unit: UnitEvents})
	c.Inc()
	c.Add(41)
	v := c.Value(false)
	if v.Raw != 42 || v.Float64() != 42 {
		t.Fatalf("value = %+v", v)
	}
	v = c.Value(true) // evaluate-and-reset
	if v.Raw != 42 {
		t.Fatalf("evaluate-and-reset value = %+v", v)
	}
	if got := c.Value(false).Raw; got != 0 {
		t.Fatalf("after reset = %d", got)
	}
	c.Set(7)
	c.Reset()
	if c.Load() != 0 {
		t.Fatal("Reset did not clear")
	}
}

func TestRawCounterConcurrent(t *testing.T) {
	c := NewRawCounter(mustName(t, "/threads{locality#0/total}/count/cumulative"), Info{})
	var wg sync.WaitGroup
	const g, per = 8, 1000
	for i := 0; i < g; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < per; j++ {
				c.Inc()
			}
		}()
	}
	wg.Wait()
	if got := c.Load(); got != g*per {
		t.Fatalf("got %d want %d", got, g*per)
	}
}

func TestFuncCounter(t *testing.T) {
	var src int64 = 500
	c := NewFuncCounter(mustName(t, "/runtime{locality#0/total}/memory/resident"), Info{Unit: UnitBytes},
		0, func() int64 { return src }, func() { src = 0 })
	if v := c.Value(false); v.Raw != 500 {
		t.Fatalf("value = %+v", v)
	}
	if v := c.Value(true); v.Raw != 500 {
		t.Fatalf("evaluate-and-reset = %+v", v)
	}
	if v := c.Value(false); v.Raw != 0 {
		t.Fatalf("after reset = %+v", v)
	}
}

func TestFuncCounterNilReset(t *testing.T) {
	c := NewFuncCounter(mustName(t, "/runtime{locality#0/total}/uptime"), Info{}, 0,
		func() int64 { return 1 }, nil)
	c.Reset() // must not panic
	if v := c.Value(true); v.Raw != 1 {
		t.Fatalf("value = %+v", v)
	}
}

func TestRatioCounter(t *testing.T) {
	var sum, count int64
	record := func(v int64) { sum += v; count++ }
	c := NewRatioCounter(LocalityName("threads", "time/average", 0, -1),
		TypeInfo("threads", "time/average", "mean", UnitNanoseconds),
		func() (int64, int64) { return sum, count }, func() { sum, count = 0, 0 })
	if got := c.Name().String(); got != "/threads{locality#0/total}/time/average" {
		t.Fatalf("name = %s", got)
	}
	if c.Info().TypeName != c.Name().TypeName() || c.Info().Version != "1.0" {
		t.Fatalf("info = %+v", c.Info())
	}
	record(100)
	record(200)
	record(300)
	v := c.Value(false)
	if v.Float64() != 200 {
		t.Fatalf("mean = %v", v.Float64())
	}
	if v.Count != 3 || v.Raw != 600 || v.Scaling != 3 {
		t.Fatalf("value = %+v", v)
	}
	record(400)
	v = c.Value(true)
	if v.Float64() != 250 || v.Count != 4 {
		t.Fatalf("before reset = %+v", v)
	}
	v = c.Value(false)
	if v.Count != 0 || v.Raw != 0 {
		t.Fatalf("after reset = %+v", v)
	}
	if v.Float64() != 0 { // scaling guards against division by zero
		t.Fatalf("empty mean = %v", v.Float64())
	}
	NewRatioCounter(c.Name(), c.Info(), c.read, nil).Reset() // nil reset must not panic
}

func TestElapsedTimeCounter(t *testing.T) {
	base := time.Date(2026, 7, 5, 12, 0, 0, 0, time.UTC)
	cur := base
	defer func(f func() time.Time) { now = f }(now)
	now = func() time.Time { return cur }

	c := NewElapsedTimeCounter(mustName(t, "/runtime{locality#0/total}/uptime"), Info{Unit: UnitNanoseconds})
	cur = base.Add(5 * time.Second)
	if v := c.Value(false); v.Raw != (5 * time.Second).Nanoseconds() {
		t.Fatalf("elapsed = %v", v.Raw)
	}
	if v := c.Value(true); v.Raw != (5 * time.Second).Nanoseconds() {
		t.Fatalf("evaluate-and-reset = %v", v.Raw)
	}
	cur = base.Add(7 * time.Second)
	if v := c.Value(false); v.Raw != (2 * time.Second).Nanoseconds() {
		t.Fatalf("after reset elapsed = %v", v.Raw)
	}
}

func TestValueFloat64(t *testing.T) {
	cases := []struct {
		v    Value
		want float64
	}{
		{Value{Raw: 10}, 10},
		{Value{Raw: 10, Scaling: 1}, 10},
		{Value{Raw: 10, Scaling: 4}, 2.5},
		{Value{Raw: 4, Scaling: 10, Inverse: true}, 2.5},
		{Value{Raw: 0, Scaling: 10, Inverse: true}, 0},
	}
	for i, c := range cases {
		if got := c.v.Float64(); got != c.want {
			t.Errorf("case %d: got %v want %v", i, got, c.want)
		}
	}
	if (Value{Raw: 9, Scaling: 2}).Int64() != 4 {
		t.Error("Int64 truncation")
	}
}

func TestStatusString(t *testing.T) {
	for s, want := range map[Status]string{
		StatusValid:          "valid",
		StatusNewData:        "new-data",
		StatusInvalidData:    "invalid-data",
		StatusCounterUnknown: "unknown",
		Status(99):           "status(99)",
	} {
		if s.String() != want {
			t.Errorf("Status(%d).String() = %q want %q", int(s), s.String(), want)
		}
	}
	if !(Value{Status: StatusNewData}).Valid() || (Value{Status: StatusInvalidData}).Valid() {
		t.Error("Valid() misclassifies")
	}
}
