// Package stats provides the measurement machinery of MPDP: an HDR-style
// log-bucketed latency histogram with exact count/sum/min/max, a streaming
// P² quantile estimator for per-path telemetry, Welford summaries, and
// windowed time series for timeline experiments.
//
// All values are int64 (virtual-time nanoseconds in practice, but the
// package is unit-agnostic).
package stats

import (
	"fmt"
	"math"
	"math/bits"
	"sort"
)

// Histogram bucket layout: values below 64 get exact unit buckets; above,
// each power-of-two range is split into 64 geometric sub-buckets, bounding
// relative quantile error by 2^-6 ≈ 1.6%. This mirrors HdrHistogram's
// design while staying dependency-free.
//
// This is the only bucket layout in the tree: the simulator records into a
// Hist directly, and the live/wire recorder (live.Histogram) keeps atomic
// counters indexed by BucketOf and hands them over through AddBuckets, so
// every engine's snapshots merge and compare bucket for bucket.
const (
	histMantissaBits = 6
	histLinearLimit  = 1 << histMantissaBits // 64
	histSubBuckets   = 1 << histMantissaBits
	// NumBuckets is the number of buckets in the layout: the length of the
	// counter array a recorder indexing by BucketOf must keep.
	NumBuckets = histLinearLimit + (63-histMantissaBits)*histSubBuckets + histSubBuckets
)

// Hist is a fixed-memory latency histogram. The zero value is ready to use.
type Hist struct {
	counts [NumBuckets]uint64
	count  uint64
	sum    int64
	min    int64
	max    int64
}

// NewHist returns an empty histogram.
func NewHist() *Hist { return &Hist{min: math.MaxInt64} }

// BucketOf returns the index of the bucket holding v (v must be >= 0).
func BucketOf(v int64) int {
	if v < histLinearLimit {
		return int(v)
	}
	exp := bits.Len64(uint64(v)) - 1 // >= histMantissaBits
	shift := exp - histMantissaBits
	mantissa := int(v>>uint(shift)) & (histSubBuckets - 1)
	return histLinearLimit + (exp-histMantissaBits)*histSubBuckets + mantissa
}

// bucketLower returns the smallest value mapping to bucket i.
func bucketLower(i int) int64 {
	if i < histLinearLimit {
		return int64(i)
	}
	i -= histLinearLimit
	exp := i/histSubBuckets + histMantissaBits
	off := int64(i % histSubBuckets)
	return (int64(1) << uint(exp)) + off<<uint(exp-histMantissaBits)
}

// bucketUpper returns the largest value mapping to bucket i.
func bucketUpper(i int) int64 {
	if i < histLinearLimit {
		return int64(i)
	}
	next := bucketLowerSafe(i + 1)
	return next - 1
}

func bucketLowerSafe(i int) int64 {
	if i >= NumBuckets {
		return math.MaxInt64
	}
	return bucketLower(i)
}

// Record adds one observation. Negative values are clamped to zero (they can
// only arise from misuse; clamping keeps the histogram total consistent).
func (h *Hist) Record(v int64) {
	if h.count == 0 && h.min == 0 {
		// Zero-value initialization path.
		h.min = math.MaxInt64
	}
	if v < 0 {
		v = 0
	}
	h.counts[BucketOf(v)]++
	h.count++
	h.sum += v
	if v < h.min {
		h.min = v
	}
	if v > h.max {
		h.max = v
	}
}

// Count returns the number of recorded observations.
func (h *Hist) Count() uint64 { return h.count }

// Sum returns the exact sum of observations.
func (h *Hist) Sum() int64 { return h.sum }

// Mean returns the exact mean, or 0 when empty.
func (h *Hist) Mean() float64 {
	if h.count == 0 {
		return 0
	}
	return float64(h.sum) / float64(h.count)
}

// Min returns the exact minimum, or 0 when empty.
func (h *Hist) Min() int64 {
	if h.count == 0 {
		return 0
	}
	return h.min
}

// Max returns the exact maximum, or 0 when empty.
func (h *Hist) Max() int64 { return h.max }

// Percentile returns the value at quantile q in [0,1], with ≤1.6% relative
// error above 64 and exact below: the midpoint of the bucket holding the
// rank-q observation, clamped to the observed extremes so p0/p100 stay
// inside them. Empty histograms return 0.
func (h *Hist) Percentile(q float64) int64 {
	if h.count == 0 {
		return 0
	}
	lo, hi := h.QuantileBounds(q)
	mid := lo + (hi-lo)/2
	if mid < h.min {
		mid = h.min
	}
	if mid > h.max {
		mid = h.max
	}
	return mid
}

// QuantileBounds returns the exact bucket bounds [lo, hi] bracketing the
// rank-q observation: the true quantile is guaranteed to lie inside, so a
// reading is never silently wrong by more than its stated bracket. Empty
// histograms return (0, 0).
func (h *Hist) QuantileBounds(q float64) (lo, hi int64) {
	if h.count == 0 {
		return 0, 0
	}
	if q < 0 {
		q = 0
	}
	if q > 1 {
		q = 1
	}
	// Rank of the target observation (1-based), ceil(q*count).
	rank := uint64(math.Ceil(q * float64(h.count)))
	if rank == 0 {
		rank = 1
	}
	var cum uint64
	for i := range h.counts {
		cum += h.counts[i]
		if cum >= rank {
			return bucketLower(i), bucketUpper(i)
		}
	}
	return h.max, h.max
}

// Merge adds all of o's observations into h.
func (h *Hist) Merge(o *Hist) {
	h.AddBuckets(&o.counts, o.sum, o.min, o.max)
}

// AddBuckets folds pre-bucketed observations into h: counts[i] of them in
// bucket i (as indexed by BucketOf), with their exact sum and extremes
// [lo, hi]. This is how a recorder that keeps its own counters hands them
// to the one read side. An all-zero counts is a no-op (sum, lo and hi are
// ignored).
func (h *Hist) AddBuckets(counts *[NumBuckets]uint64, sum, lo, hi int64) {
	var n uint64
	for i, c := range counts {
		h.counts[i] += c
		n += c
	}
	if n == 0 {
		return
	}
	if h.count == 0 || lo < h.min {
		h.min = lo
	}
	if hi > h.max {
		h.max = hi
	}
	h.count += n
	h.sum += sum
}

// Delta returns the observations recorded since prev, an earlier snapshot
// of the same recorder — the windowed view the tail sentinel quantiles
// each tick. Counts subtract with a clamp at zero (a recorder racing the
// two snapshots can make a bucket appear to run backwards by an in-flight
// observation; clamping keeps the window well-formed). Min/Max are not
// recoverable from cumulative extremes, so the delta's are the bounds of
// its first and last occupied buckets — exact enough for quantiles, which
// is all a window is for.
func (h *Hist) Delta(prev *Hist) *Hist {
	var counts [NumBuckets]uint64
	first, last := -1, -1
	for i := range counts {
		if h.counts[i] <= prev.counts[i] {
			continue
		}
		counts[i] = h.counts[i] - prev.counts[i]
		if first < 0 {
			first = i
		}
		last = i
	}
	d := &Hist{}
	if first >= 0 {
		d.AddBuckets(&counts, max(h.sum-prev.sum, 0), bucketLower(first), bucketUpper(last))
	}
	return d
}

// Reset clears the histogram.
func (h *Hist) Reset() {
	*h = Hist{min: math.MaxInt64}
}

// CDFPoint is one point of an empirical CDF.
type CDFPoint struct {
	Value int64   // latency value (bucket upper bound)
	Frac  float64 // cumulative fraction <= Value
}

// CDF returns the empirical CDF as a compact list of non-empty buckets.
func (h *Hist) CDF() []CDFPoint {
	if h.count == 0 {
		return nil
	}
	var out []CDFPoint
	var cum uint64
	for i, c := range h.counts {
		if c == 0 {
			continue
		}
		cum += c
		out = append(out, CDFPoint{Value: bucketUpper(i), Frac: float64(cum) / float64(h.count)})
	}
	return out
}

// Bucket is one cumulative Prometheus-style bucket: Count observations
// with value <= Le.
type Bucket struct {
	Le    int64 // upper bound, inclusive
	Count uint64
}

// CumBuckets returns the histogram as cumulative buckets coalesced to
// power-of-two upper bounds — at most one bucket per occupied octave, so a
// Prometheus exposition stays a few dozen lines however fine the internal
// resolution. The final bucket's count equals Count (the +Inf bucket is
// the caller's to add).
func (h *Hist) CumBuckets() []Bucket {
	if h.count == 0 {
		return nil
	}
	var out []Bucket
	var cum uint64
	// The linear region coalesces into one bucket, le=63.
	for i := 0; i < histLinearLimit; i++ {
		cum += h.counts[i]
	}
	if cum > 0 {
		out = append(out, Bucket{Le: histLinearLimit - 1, Count: cum})
	}
	for base := histLinearLimit; base < NumBuckets; base += histSubBuckets {
		var octave uint64
		for _, c := range h.counts[base : base+histSubBuckets] {
			octave += c
		}
		if octave == 0 {
			continue
		}
		cum += octave
		out = append(out, Bucket{Le: bucketUpper(base + histSubBuckets - 1), Count: cum})
	}
	return out
}

// Summary bundles the headline percentiles for table output.
type Summary struct {
	Count              uint64
	Mean               float64
	Min, P50, P90, P95 int64
	P99, P999, Max     int64
}

// Summarize extracts the standard tail-latency summary.
func (h *Hist) Summarize() Summary {
	return Summary{
		Count: h.count,
		Mean:  h.Mean(),
		Min:   h.Min(),
		P50:   h.Percentile(0.50),
		P90:   h.Percentile(0.90),
		P95:   h.Percentile(0.95),
		P99:   h.Percentile(0.99),
		P999:  h.Percentile(0.999),
		Max:   h.Max(),
	}
}

func (s Summary) String() string {
	return fmt.Sprintf("n=%d mean=%.0f p50=%d p90=%d p99=%d p99.9=%d max=%d",
		s.Count, s.Mean, s.P50, s.P90, s.P99, s.P999, s.Max)
}

// Quantiles computes exact quantiles of a small sample in one pass (sorting
// a copy); used by tests to validate the histogram and by small-N summaries.
func Quantiles(sample []int64, qs ...float64) []int64 {
	if len(sample) == 0 {
		out := make([]int64, len(qs))
		return out
	}
	s := make([]int64, len(sample))
	copy(s, sample)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	out := make([]int64, len(qs))
	for i, q := range qs {
		if q < 0 {
			q = 0
		}
		if q > 1 {
			q = 1
		}
		idx := int(math.Ceil(q*float64(len(s)))) - 1
		if idx < 0 {
			idx = 0
		}
		out[i] = s[idx]
	}
	return out
}
