package core

import (
	"math/bits"
	"sync/atomic"
)

// Log-bucketed histogram: the lock-cheap distribution store behind the
// /statistics{...}/percentile@Q counters. Recording is two atomic adds
// (no locks, no allocation); a producer on a hot path — the task
// scheduler books every task's duration — stages its observations in a
// plain HistogramBlock and flushes them in blocks instead. Buckets are
// log-linear (16 linear sub-buckets per power of two), bounding the
// relative quantile error at ~6% while keeping the whole table in a few
// KB.

const (
	// histMinorBits sets the linear resolution inside each power of
	// two: 2^histMinorBits sub-buckets per octave.
	histMinorBits  = 4
	histMinorCount = 1 << histMinorBits

	// HistogramBuckets is the fixed bucket count covering all of int64.
	HistogramBuckets = histMinorCount * (65 - histMinorBits)
)

// histBucket maps a non-negative value to its bucket index.
func histBucket(v int64) int {
	u := uint64(v)
	if v < 0 {
		u = 0
	}
	m := bits.Len64(u)
	if m <= histMinorBits {
		return int(u)
	}
	g := m - histMinorBits
	minor := int(u>>uint(g-1)) - histMinorCount
	return histMinorCount*g + minor
}

// histBucketMid returns a representative (midpoint) value for a bucket.
func histBucketMid(b int) int64 {
	if b < histMinorCount {
		return int64(b)
	}
	g := b / histMinorCount
	minor := b % histMinorCount
	low := uint64(histMinorCount+minor) << uint(g-1)
	width := uint64(1) << uint(g-1)
	return int64(low + width/2)
}

// Histogram is a fixed-size log-bucketed value distribution, safe for
// one or many concurrent recorders and concurrent snapshotting. The
// zero value is ready to use. A single producer that records per event
// on a hot path fills a HistogramBlock and flushes it here.
type Histogram struct {
	counts [HistogramBuckets]atomic.Int64
	sum    atomic.Int64
}

// Record folds one observation into the distribution. Negative values
// are clamped to zero.
func (h *Histogram) Record(v int64) {
	if v < 0 {
		v = 0
	}
	h.counts[histBucket(v)].Add(1)
	h.sum.Add(v)
}

// HistogramBlock stages observations for a Histogram in plain memory:
// one owner records without atomics and FlushTo publishes the touched
// buckets in one pass. It holds no pointers, so a struct embedding it
// after its last pointer field adds nothing for the GC to scan. Not
// safe for concurrent use; the zero value is empty.
type HistogramBlock struct {
	counts [HistogramBuckets]int64
	sum    int64
	dirty  [(HistogramBuckets + 63) / 64]uint64 // one bit per touched bucket
}

// Record stages one observation. Negative values are clamped to zero.
func (b *HistogramBlock) Record(v int64) {
	if v < 0 {
		v = 0
	}
	i := histBucket(v)
	b.counts[i]++
	b.sum += v
	b.dirty[i/64] |= 1 << (i % 64)
}

// FlushTo adds the staged observations to h, one atomic add per touched
// bucket and one for the sum, and empties the block.
func (b *HistogramBlock) FlushTo(h *Histogram) {
	for wi, word := range b.dirty {
		for word != 0 {
			i := wi*64 + bits.TrailingZeros64(word)
			h.counts[i].Add(b.counts[i])
			b.counts[i] = 0
			word &= word - 1
		}
		b.dirty[wi] = 0
	}
	if b.sum != 0 {
		h.sum.Add(b.sum)
		b.sum = 0
	}
}

// Reset clears the distribution. Not atomic with respect to concurrent
// recorders: observations recorded during a reset may be partially
// kept, which the evaluate-and-reset consumers tolerate.
func (h *Histogram) Reset() {
	for i := range h.counts {
		h.counts[i].Store(0)
	}
	h.sum.Store(0)
}

// Totals returns the observation count and value sum without copying
// the bucket table — the allocation-free read used by Counter.Value on
// sampling hot paths (quantiles still need a full Snapshot).
func (h *Histogram) Totals() (n, sum int64) {
	for i := range h.counts {
		n += h.counts[i].Load()
	}
	return n, h.sum.Load()
}

// Snapshot copies the current distribution.
func (h *Histogram) Snapshot() HistogramSnapshot {
	s := HistogramSnapshot{Counts: make([]int64, HistogramBuckets)}
	for i := range h.counts {
		c := h.counts[i].Load()
		s.Counts[i] = c
		s.N += c
	}
	s.Sum = h.sum.Load()
	return s
}

// HistogramSnapshot is a point-in-time copy of a Histogram, mergeable
// across producers (e.g. per-worker histograms into a locality total).
type HistogramSnapshot struct {
	Counts []int64
	N      int64
	Sum    int64
}

// Merge folds another snapshot into s. Bucket tables of different
// lengths merge correctly — s grows to cover the longer one — so
// compacted wire snapshots (Compact) and snapshots from peers built
// with a different bucket count fold without loss or panic.
func (s *HistogramSnapshot) Merge(o HistogramSnapshot) {
	if s.Counts == nil {
		s.Counts = make([]int64, HistogramBuckets)
	}
	if len(o.Counts) > len(s.Counts) {
		grown := make([]int64, len(o.Counts))
		copy(grown, s.Counts)
		s.Counts = grown
	}
	for i, c := range o.Counts {
		s.Counts[i] += c
	}
	s.N += o.N
	s.Sum += o.Sum
}

// Compact returns a copy of the snapshot with trailing zero buckets
// trimmed — the form worth serializing: most distributions occupy a
// narrow band of the full int64 bucket range, and Merge re-grows as
// needed on the receiving side.
func (s HistogramSnapshot) Compact() HistogramSnapshot {
	last := len(s.Counts)
	for last > 0 && s.Counts[last-1] == 0 {
		last--
	}
	out := HistogramSnapshot{N: s.N, Sum: s.Sum}
	if last > 0 {
		out.Counts = append([]int64(nil), s.Counts[:last]...)
	}
	return out
}

// Quantile returns a representative value at quantile q (0 < q <= 1),
// nearest-rank over the bucketed distribution. ok is false when the
// snapshot holds no observations.
func (s HistogramSnapshot) Quantile(q float64) (v int64, ok bool) {
	if s.N == 0 {
		return 0, false
	}
	if q < 0 {
		q = 0
	}
	if q > 1 {
		q = 1
	}
	rank := int64(q*float64(s.N) + 0.5)
	if rank < 1 {
		rank = 1
	}
	if rank > s.N {
		rank = s.N
	}
	var cum int64
	for b, c := range s.Counts {
		cum += c
		if cum >= rank {
			return histBucketMid(b), true
		}
	}
	return histBucketMid(len(s.Counts) - 1), true
}

// Mean returns the arithmetic mean of the recorded values (0 when
// empty).
func (s HistogramSnapshot) Mean() float64 {
	if s.N == 0 {
		return 0
	}
	return float64(s.Sum) / float64(s.N)
}

// Quantiler is implemented by counters that can answer distribution
// quantiles exactly (histogram-backed). The /statistics/percentile
// meta counter uses it for direct evaluation instead of aggregating
// periodic samples.
type Quantiler interface {
	// Quantile returns the value at quantile q (0 < q <= 1) of the
	// counter's underlying distribution; ok is false when the
	// distribution is empty.
	Quantile(q float64) (v int64, ok bool)
}

// ---------------------------------------------------------------------------
// HistogramCounter: a Counter over a Histogram.

// HistogramCounter exposes a Histogram through the Counter interface:
// Value reports the mean in the ratio convention (sum in Raw,
// observation count in Scaling and Count, like RatioCounter), and
// Quantile serves the percentile meta counters. Producers call Record per event.
type HistogramCounter struct {
	name    Name
	nameStr string
	info    Info
	h       Histogram
}

// NewHistogramCounter creates an empty histogram counter.
func NewHistogramCounter(name Name, info Info) *HistogramCounter {
	return &HistogramCounter{name: name, nameStr: name.String(), info: info}
}

// Record folds one observation into the distribution.
func (c *HistogramCounter) Record(v int64) { c.h.Record(v) }

// Name implements Counter.
func (c *HistogramCounter) Name() Name { return c.name }

// Info implements Counter.
func (c *HistogramCounter) Info() Info { return c.info }

// Value implements Counter: the mean of the recorded values, with the
// observation count in Scaling and Count. Reads totals without copying
// the bucket table, so evaluation is allocation-free.
func (c *HistogramCounter) Value(reset bool) Value {
	n, sum := c.h.Totals()
	if reset {
		c.h.Reset()
	}
	return ratioValue(c.nameStr, sum, n)
}

// Reset implements Counter.
func (c *HistogramCounter) Reset() { c.h.Reset() }

// Quantile implements Quantiler.
func (c *HistogramCounter) Quantile(q float64) (int64, bool) {
	return c.h.Snapshot().Quantile(q)
}

// HistogramSnapshot implements DistributionSnapshotter: a mergeable
// copy of the full distribution, used by the aggregation tree to carry
// histograms upward instead of collapsing them to means.
func (c *HistogramCounter) HistogramSnapshot() HistogramSnapshot { return c.h.Snapshot() }

var (
	_ Counter                 = (*HistogramCounter)(nil)
	_ Quantiler               = (*HistogramCounter)(nil)
	_ DistributionSnapshotter = (*HistogramCounter)(nil)
)
