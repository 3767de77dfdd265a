package core

import (
	"math"
	"math/rand"
	"sort"
	"sync"
	"testing"
)

func TestHistBucketMonotonic(t *testing.T) {
	prev := -1
	for _, v := range []int64{0, 1, 2, 15, 16, 17, 31, 32, 100, 1000, 1 << 20, 1 << 40, math.MaxInt64} {
		b := histBucket(v)
		if b < prev {
			t.Fatalf("bucket(%d) = %d < previous %d", v, b, prev)
		}
		if b < 0 || b >= HistogramBuckets {
			t.Fatalf("bucket(%d) = %d out of range", v, b)
		}
		prev = b
	}
	if histBucket(-5) != histBucket(0) {
		t.Fatal("negative values must clamp to bucket 0")
	}
}

func TestHistBucketMidInBucket(t *testing.T) {
	for b := 0; b < HistogramBuckets-histMinorCount; b++ {
		mid := histBucketMid(b)
		if mid < 0 {
			// Top octave midpoints overflow int64; skip (unreachable
			// for durations).
			continue
		}
		if got := histBucket(mid); got != b {
			t.Fatalf("bucket(mid(%d)) = %d", b, got)
		}
	}
	// Small values are exact.
	for v := int64(0); v < 16; v++ {
		if histBucketMid(histBucket(v)) != v {
			t.Fatalf("value %d not exact", v)
		}
	}
}

func TestHistogramQuantileAccuracy(t *testing.T) {
	var h Histogram
	rng := rand.New(rand.NewSource(42))
	values := make([]int64, 10000)
	for i := range values {
		// Log-uniform over ~1µs..100ms in ns, like task durations.
		values[i] = int64(1000 * math.Pow(10, 5*rng.Float64()))
		h.Record(values[i])
	}
	sort.Slice(values, func(i, j int) bool { return values[i] < values[j] })
	s := h.Snapshot()
	if s.N != int64(len(values)) {
		t.Fatalf("N = %d", s.N)
	}
	for _, q := range []float64{0.5, 0.9, 0.95, 0.99} {
		got, ok := s.Quantile(q)
		if !ok {
			t.Fatalf("q%v not ok", q)
		}
		exact := values[int(q*float64(len(values)))-1]
		if rel := math.Abs(float64(got)-float64(exact)) / float64(exact); rel > 0.07 {
			t.Fatalf("q%v = %d, exact %d, rel err %.3f > 7%%", q, got, exact, rel)
		}
	}
}

func TestHistogramEmptyAndReset(t *testing.T) {
	var h Histogram
	if _, ok := h.Snapshot().Quantile(0.5); ok {
		t.Fatal("empty histogram answered a quantile")
	}
	h.Record(100)
	h.Reset()
	s := h.Snapshot()
	if s.N != 0 || s.Sum != 0 {
		t.Fatalf("after reset: %+v", s)
	}
}

func TestHistogramMerge(t *testing.T) {
	var a, b Histogram
	for i := int64(0); i < 100; i++ {
		a.Record(10)
		b.Record(1000)
	}
	var m HistogramSnapshot
	m.Merge(a.Snapshot())
	m.Merge(b.Snapshot())
	if m.N != 200 || m.Sum != 100*10+100*1000 {
		t.Fatalf("merged: N=%d Sum=%d", m.N, m.Sum)
	}
	lo, _ := m.Quantile(0.25)
	hi, _ := m.Quantile(0.75)
	if lo != 10 || hi <= 900 {
		t.Fatalf("q25 = %d q75 = %d", lo, hi)
	}
}

func TestHistogramConcurrentRecord(t *testing.T) {
	var h Histogram
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := int64(0); i < 1000; i++ {
				h.Record(i)
			}
		}()
	}
	wg.Wait()
	if s := h.Snapshot(); s.N != 8000 {
		t.Fatalf("N = %d", s.N)
	}
}

// TestHistogramBlockFlush: observations staged in a block and flushed
// in several blocks read exactly like the same observations recorded
// one by one, including the top bucket and clamped negatives, and a
// flush leaves the block empty.
func TestHistogramBlockFlush(t *testing.T) {
	var direct, flushed Histogram
	var b HistogramBlock
	rng := rand.New(rand.NewSource(7))
	for i := 0; i < 5000; i++ {
		v := int64(rng.ExpFloat64() * 1e4)
		switch i % 997 {
		case 0:
			v = math.MaxInt64
		case 1:
			v = -3
		}
		direct.Record(v)
		b.Record(v)
		if i%64 == 63 {
			b.FlushTo(&flushed)
		}
	}
	b.FlushTo(&flushed)
	d, f := direct.Snapshot(), flushed.Snapshot()
	if d.N != f.N || d.Sum != f.Sum {
		t.Fatalf("flushed N=%d Sum=%d, direct N=%d Sum=%d", f.N, f.Sum, d.N, d.Sum)
	}
	for i := range d.Counts {
		if d.Counts[i] != f.Counts[i] {
			t.Fatalf("bucket %d: flushed %d, direct %d", i, f.Counts[i], d.Counts[i])
		}
	}
	if b != (HistogramBlock{}) {
		t.Fatal("block not empty after FlushTo")
	}
}

func TestHistogramCounterValue(t *testing.T) {
	c := NewHistogramCounter(mustName(t, "/threads{locality#0/total}/time/average"), Info{Unit: UnitNanoseconds})
	for i := 0; i < 10; i++ {
		c.Record(100)
	}
	v := c.Value(false)
	if v.Float64() != 100 || v.Count != 10 {
		t.Fatalf("value = %v count = %d", v.Float64(), v.Count)
	}
	// Quantiles come back as bucket midpoints (~6% resolution).
	if q, ok := c.Quantile(0.5); !ok || q < 94 || q > 107 {
		t.Fatalf("quantile = %d ok=%v, want ~100", q, ok)
	}
	if v := c.Value(true); v.Count != 10 {
		t.Fatal("evaluate-and-reset must report pre-reset count")
	}
	if v := c.Value(false); v.Count != 0 {
		t.Fatal("reset did not clear")
	}
}

func TestPercentileDirect(t *testing.T) {
	r := NewRegistry()
	base := NewHistogramCounter(mustName(t, "/threads{locality#0/total}/time/average"), Info{Unit: UnitNanoseconds})
	r.MustRegister(base)
	sc := getStats(t, r, "/statistics{/threads{locality#0/total}/time/average}/percentile@95")
	// Empty distribution: invalid.
	if v := sc.Value(false); v.Status != StatusInvalidData {
		t.Fatalf("empty percentile status = %v", v.Status)
	}
	for i := int64(1); i <= 100; i++ {
		base.Record(i * 1000)
	}
	got := sc.Value(false)
	if got.Status != StatusValid {
		t.Fatalf("status = %v", got.Status)
	}
	// Nearest-rank p95 of 1k..100k is 95000; histogram resolution is
	// ~6%, so accept the bucket midpoint near it.
	if f := got.Float64(); f < 88000 || f > 102000 {
		t.Fatalf("p95 = %v, want ~95000", f)
	}
	// Sample and Start are no-ops in direct mode.
	sc.Sample()
	sc.Start()
	defer sc.Stop()
	p50 := getStats(t, r, "/statistics{/threads{locality#0/total}/time/average}/percentile@50")
	if f := p50.Value(false).Float64(); f < 47000 || f > 54000 {
		t.Fatalf("p50 = %v, want ~50500", f)
	}
}

func TestPercentileSampled(t *testing.T) {
	r, base := newStatsFixture(t)
	sc := getStats(t, r, "/statistics{/threads{locality#0/total}/count/cumulative}/percentile@90,100")
	for i := int64(1); i <= 10; i++ {
		base.Set(i)
		sc.Sample()
	}
	// Nearest-rank p90 of 1..10 is 9.
	if got := sc.Value(false).Float64(); got != 9 {
		t.Fatalf("sampled p90 = %v, want 9", got)
	}
}

func TestPercentileBadParams(t *testing.T) {
	r, _ := newStatsFixture(t)
	for _, name := range []string{
		"/statistics{/threads{locality#0/total}/count/cumulative}/percentile",
		"/statistics{/threads{locality#0/total}/count/cumulative}/percentile@0",
		"/statistics{/threads{locality#0/total}/count/cumulative}/percentile@101",
		"/statistics{/threads{locality#0/total}/count/cumulative}/percentile@abc",
	} {
		if _, err := r.Get(name); err == nil {
			t.Fatalf("Get(%q) succeeded, want error", name)
		}
	}
}
