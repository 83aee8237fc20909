package live

import (
	"math"
	"math/rand/v2"
	"runtime"
	"sync/atomic"

	"mpdp/internal/stats"
)

// Histogram is the live plane's lock-free latency recorder: the write side
// of a stats.Hist, striped across shards so concurrent recorders do not
// serialize on one cache line. It owns no bucket math — shards are atomic
// counters indexed by stats.BucketOf — and no read side: Snapshot folds the
// shards into a *stats.Hist, so live, wire and mesh latencies quantile,
// merge and summarize exactly like the simulator's.
//
// Sharding: Record picks a shard with the runtime's per-M fast random
// source (math/rand/v2's thread-local generator — no lock, no allocation),
// which approximates per-P striping without runtime internals: two
// recorders on different Ps almost always hit different cache lines, and a
// collision costs one contended atomic add, never a lock. Writers only
// ever atomically add; Snapshot merges shard counts with atomic loads, so
// readers never stop writers.
//
// The zero Histogram is not usable; construct with NewHistogram.
type Histogram struct {
	shards []histShard
	mask   uint32
}

// histShard is one stripe. Padding keeps the hot counters of adjacent
// shards on separate cache lines (the counts array is large enough that
// only the scalar fields can false-share).
type histShard struct {
	counts [stats.NumBuckets]atomic.Uint64
	count  atomic.Uint64
	sum    atomic.Int64
	min    atomic.Int64 // valid only when count > 0
	max    atomic.Int64
	_      [64]byte
}

// NewHistogram returns a histogram striped over roughly one shard per
// available CPU (rounded up to a power of two, capped at 64).
func NewHistogram() *Histogram {
	n := runtime.GOMAXPROCS(0)
	if n < 1 {
		n = 1
	}
	if n > 64 {
		n = 64
	}
	// Round up to a power of two so Record masks instead of dividing.
	shards := 1
	for shards < n {
		shards <<= 1
	}
	return newHistogram(shards)
}

// newHistogram builds a histogram with exactly shards stripes (a power of
// two).
func newHistogram(shards int) *Histogram {
	h := &Histogram{shards: make([]histShard, shards), mask: uint32(shards - 1)}
	for i := range h.shards {
		h.shards[i].min.Store(math.MaxInt64)
	}
	return h
}

// Record adds one observation. Negative values clamp to zero. The hot path
// is allocation-free: a thread-local random shard pick, one bucket
// computation, and three uncontended atomic adds (min/max updates CAS only
// while the observation extends the range — never in steady state).
//
//mpdp:hotpath bench=BenchmarkHistogramRecord
func (h *Histogram) Record(v int64) {
	if v < 0 {
		v = 0
	}
	s := &h.shards[rand.Uint32()&h.mask]
	s.counts[stats.BucketOf(v)].Add(1)
	s.count.Add(1)
	s.sum.Add(v)
	for {
		cur := s.min.Load()
		if v >= cur || s.min.CompareAndSwap(cur, v) {
			break
		}
	}
	for {
		cur := s.max.Load()
		if v <= cur || s.max.CompareAndSwap(cur, v) {
			break
		}
	}
}

// Count returns the total number of observations across shards.
func (h *Histogram) Count() uint64 {
	var n uint64
	for i := range h.shards {
		n += h.shards[i].count.Load()
	}
	return n
}

// Snapshot folds every shard into one readable stats.Hist, safe to read at
// leisure while recording continues. Snapshots taken mid-traffic are
// consistent per bucket but not across buckets (a recorder may land
// between two loads); quantiles remain correct to within the in-flight
// handful of observations.
func (h *Histogram) Snapshot() *stats.Hist {
	var counts [stats.NumBuckets]uint64
	var sum int64
	lo, hi := int64(math.MaxInt64), int64(0)
	for i := range h.shards {
		sh := &h.shards[i]
		if sh.count.Load() == 0 {
			continue
		}
		sum += sh.sum.Load()
		if m := sh.min.Load(); m < lo {
			lo = m
		}
		if m := sh.max.Load(); m > hi {
			hi = m
		}
		for b := range sh.counts {
			counts[b] += sh.counts[b].Load()
		}
	}
	out := stats.NewHist()
	out.AddBuckets(&counts, sum, lo, hi)
	return out
}
