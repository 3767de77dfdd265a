package core

// Satellite coverage for HistogramSnapshot.Merge — the fold the
// aggregation tree leans on. Properties: merge commutes, totals add,
// the merged quantile stays within the bucketing scheme's relative
// error of the exact quantile of the union, mismatched bucket-table
// lengths merge losslessly, and merging snapshots taken concurrently
// with recording is race-free and self-consistent.

import (
	"math"
	"math/rand"
	"sort"
	"sync"
	"testing"
)

// histQuantileRelError bounds the log-linear bucketing's relative error:
// bucket width is 1/16 of the value's octave, and the reported midpoint
// sits within half a bucket of any member, so ~1/32 ≈ 3.2%; 7% leaves
// slack for the nearest-rank step at small N.
const histQuantileRelError = 0.07

func exactQuantile(sorted []int64, q float64) int64 {
	rank := int(q*float64(len(sorted)) + 0.5)
	if rank < 1 {
		rank = 1
	}
	if rank > len(sorted) {
		rank = len(sorted)
	}
	return sorted[rank-1]
}

func TestHistogramMergeProperties(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for trial := 0; trial < 50; trial++ {
		na, nb := 1+rng.Intn(400), 1+rng.Intn(400)
		var ha, hb Histogram
		all := make([]int64, 0, na+nb)
		record := func(h *Histogram, n int) {
			for i := 0; i < n; i++ {
				// Mix magnitudes so the two histograms occupy different
				// bucket ranges — the interesting merge case.
				v := rng.Int63n(int64(1) << uint(3+rng.Intn(30)))
				h.Record(v)
				all = append(all, v)
			}
		}
		record(&ha, na)
		record(&hb, nb)

		sa, sb := ha.Snapshot(), hb.Snapshot()

		// Merge commutes.
		ab := sa
		ab.Counts = append([]int64(nil), sa.Counts...)
		ab.Merge(sb)
		ba := sb
		ba.Counts = append([]int64(nil), sb.Counts...)
		ba.Merge(sa)
		if ab.N != ba.N || ab.Sum != ba.Sum {
			t.Fatalf("trial %d: merge order changed totals: %d/%d vs %d/%d",
				trial, ab.N, ab.Sum, ba.N, ba.Sum)
		}
		for i := range ab.Counts {
			if ab.Counts[i] != ba.Counts[i] {
				t.Fatalf("trial %d: merge order changed bucket %d", trial, i)
			}
		}

		// Totals add.
		if ab.N != sa.N+sb.N || ab.Sum != sa.Sum+sb.Sum {
			t.Fatalf("trial %d: totals do not add: %d != %d+%d", trial, ab.N, sa.N, sb.N)
		}

		// Quantile error bounded against the exact union quantile.
		sort.Slice(all, func(i, j int) bool { return all[i] < all[j] })
		for _, q := range []float64{0.5, 0.9, 0.99} {
			got, ok := ab.Quantile(q)
			if !ok {
				t.Fatalf("trial %d: merged quantile(%g) empty", trial, q)
			}
			want := exactQuantile(all, q)
			bound := histQuantileRelError * float64(want)
			if bound < 1 { // integer buckets at tiny values
				bound = 1
			}
			if math.Abs(float64(got-want)) > bound {
				t.Fatalf("trial %d: quantile(%g) = %d, exact %d (bound %g)",
					trial, q, got, want, bound)
			}
		}
	}
}

// TestHistogramMergeMismatchedBuckets covers compacted wire snapshots
// and peers built with a different bucket count: shorter into longer,
// longer into shorter, and into the nil zero value.
func TestHistogramMergeMismatchedBuckets(t *testing.T) {
	var h Histogram
	for i := int64(0); i < 100; i++ {
		h.Record(i)
	}
	full := h.Snapshot()
	short := full.Compact()
	if len(short.Counts) >= len(full.Counts) {
		t.Fatalf("compact did not shrink: %d vs %d", len(short.Counts), len(full.Counts))
	}
	if short.N != full.N || short.Sum != full.Sum {
		t.Fatalf("compact changed totals: %+v", short)
	}

	// Short into long.
	a := h.Snapshot()
	a.Merge(short)
	if a.N != 200 || a.Sum != 2*full.Sum {
		t.Fatalf("short-into-long totals: %+v", a)
	}

	// Long into short: the receiver must grow, not panic.
	b := full.Compact()
	b.Merge(full)
	if b.N != 200 || len(b.Counts) != len(full.Counts) {
		t.Fatalf("long-into-short: N=%d len=%d", b.N, len(b.Counts))
	}
	for i := range full.Counts {
		if b.Counts[i] != 2*full.Counts[i] {
			t.Fatalf("long-into-short bucket %d: %d != %d", i, b.Counts[i], 2*full.Counts[i])
		}
	}

	// Into the zero value.
	var zero HistogramSnapshot
	zero.Merge(short)
	if zero.N != 100 {
		t.Fatalf("zero-value merge: %+v", zero)
	}
	q, ok := zero.Quantile(0.5)
	if !ok || q < 40 || q > 60 {
		t.Fatalf("median after zero-value merge = %d", q)
	}
}

// TestHistogramMergeConcurrentSnapshots merges snapshots taken while
// recorders are running. Each snapshot must be internally consistent
// (bucket sum == N) even though it races the writers, and so must any
// merge of such snapshots.
func TestHistogramMergeConcurrentSnapshots(t *testing.T) {
	var h Histogram
	const writers = 4
	const perWriter = 20000
	var wg sync.WaitGroup
	stop := make(chan struct{})
	// The writers hold their second half until the reader has handed
	// over a snapshot, so on a loaded machine they cannot all finish
	// before the reader runs.
	first := make(chan struct{})
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed))
			for i := 0; i < perWriter; i++ {
				if i == perWriter/2 {
					<-first
				}
				h.Record(rng.Int63n(1 << 20))
			}
		}(int64(w))
	}
	snapshots := make(chan HistogramSnapshot, 64)
	var rg sync.WaitGroup
	rg.Add(1)
	go func() {
		defer rg.Done()
		firstOnce := sync.OnceFunc(func() { close(first) })
		for {
			s := h.Snapshot()
			select {
			case snapshots <- s:
				firstOnce()
			case <-stop:
				return
			}
		}
	}()
	wg.Wait()
	close(stop)
	rg.Wait()
	close(snapshots)

	var merged HistogramSnapshot
	taken := 0
	for s := range snapshots {
		var sum int64
		for _, c := range s.Counts {
			sum += c
		}
		if sum != s.N {
			t.Fatalf("torn snapshot: bucket sum %d != N %d", sum, s.N)
		}
		merged.Merge(s.Compact())
		taken++
	}
	if taken == 0 {
		t.Fatal("no snapshots taken")
	}
	// The final state must account for every recorded value.
	final := h.Snapshot()
	if final.N != writers*perWriter {
		t.Fatalf("final N = %d, want %d", final.N, writers*perWriter)
	}
}
