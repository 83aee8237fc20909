package stats

import (
	"math"
	"testing"
	"testing/quick"

	"mpdp/internal/xrand"
)

func TestHistEmpty(t *testing.T) {
	h := NewHist()
	if h.Count() != 0 || h.Mean() != 0 || h.Min() != 0 || h.Max() != 0 {
		t.Fatal("empty histogram not zeroed")
	}
	if h.Percentile(0.99) != 0 {
		t.Fatal("empty percentile != 0")
	}
	if h.CDF() != nil {
		t.Fatal("empty CDF not nil")
	}
}

func TestHistZeroValueUsable(t *testing.T) {
	var h Hist
	h.Record(5)
	h.Record(10)
	if h.Min() != 5 || h.Max() != 10 || h.Count() != 2 {
		t.Fatalf("zero-value hist: min=%d max=%d n=%d", h.Min(), h.Max(), h.Count())
	}
}

func TestHistExactSmallValues(t *testing.T) {
	h := NewHist()
	for v := int64(0); v < 64; v++ {
		h.Record(v)
	}
	if h.Count() != 64 || h.Min() != 0 || h.Max() != 63 {
		t.Fatalf("small-value bookkeeping: %+v", h.Summarize())
	}
	// Median of 0..63 at rank 32 -> value 31.
	if p := h.Percentile(0.5); p != 31 {
		t.Fatalf("p50 = %d, want 31", p)
	}
}

func TestHistPercentileAccuracy(t *testing.T) {
	h := NewHist()
	r := xrand.New(1)
	sample := make([]int64, 0, 100000)
	for i := 0; i < 100000; i++ {
		v := int64(r.ExpFloat64(1.0/50000) + 1)
		h.Record(v)
		sample = append(sample, v)
	}
	exact := Quantiles(sample, 0.5, 0.9, 0.99, 0.999)
	got := []int64{h.Percentile(0.5), h.Percentile(0.9), h.Percentile(0.99), h.Percentile(0.999)}
	for i := range exact {
		rel := math.Abs(float64(got[i]-exact[i])) / float64(exact[i])
		if rel > 0.02 {
			t.Errorf("quantile %d: hist=%d exact=%d rel err %.3f", i, got[i], exact[i], rel)
		}
	}
}

func TestHistMeanExact(t *testing.T) {
	h := NewHist()
	var sum int64
	for i := int64(1); i <= 1000; i++ {
		v := i * 1000
		h.Record(v)
		sum += v
	}
	if got, want := h.Mean(), float64(sum)/1000; got != want {
		t.Fatalf("mean = %v, want %v", got, want)
	}
}

func TestHistNegativeClamped(t *testing.T) {
	h := NewHist()
	h.Record(-5)
	if h.Count() != 1 || h.Min() != 0 {
		t.Fatalf("negative clamp: %+v", h.Summarize())
	}
}

func TestHistLargeValues(t *testing.T) {
	h := NewHist()
	large := int64(1) << 55
	h.Record(large)
	p := h.Percentile(1)
	rel := math.Abs(float64(p-large)) / float64(large)
	if rel > 0.02 {
		t.Fatalf("large value percentile %d vs %d (rel %.3f)", p, large, rel)
	}
}

func TestHistPercentileBoundsClamp(t *testing.T) {
	h := NewHist()
	h.Record(100)
	if h.Percentile(-1) != 100 || h.Percentile(2) != 100 {
		t.Fatal("out-of-range quantiles not clamped")
	}
	// Single value: all quantiles equal it exactly (min/max clamping).
	if h.Percentile(0.5) != 100 {
		t.Fatalf("p50 of single value = %d", h.Percentile(0.5))
	}
}

func TestHistMerge(t *testing.T) {
	a, b := NewHist(), NewHist()
	for i := int64(0); i < 1000; i++ {
		a.Record(i)
		b.Record(i + 5000)
	}
	a.Merge(b)
	if a.Count() != 2000 {
		t.Fatalf("merged count = %d", a.Count())
	}
	if a.Min() != 0 || a.Max() != 5999 {
		t.Fatalf("merged extremes: %d..%d", a.Min(), a.Max())
	}
	// Merge into empty must equal source.
	c := NewHist()
	c.Merge(a)
	if c.Count() != 2000 || c.Min() != 0 || c.Max() != 5999 {
		t.Fatal("merge into empty lost data")
	}
}

func TestHistReset(t *testing.T) {
	h := NewHist()
	h.Record(42)
	h.Reset()
	if h.Count() != 0 || h.Max() != 0 {
		t.Fatal("reset incomplete")
	}
	h.Record(7)
	if h.Min() != 7 {
		t.Fatalf("min after reset = %d", h.Min())
	}
}

func TestHistCDFMonotone(t *testing.T) {
	h := NewHist()
	r := xrand.New(2)
	for i := 0; i < 10000; i++ {
		h.Record(int64(r.Pareto(1.3, 100)))
	}
	cdf := h.CDF()
	if len(cdf) == 0 {
		t.Fatal("empty CDF")
	}
	for i := 1; i < len(cdf); i++ {
		if cdf[i].Value <= cdf[i-1].Value || cdf[i].Frac < cdf[i-1].Frac {
			t.Fatalf("CDF not monotone at %d: %+v %+v", i, cdf[i-1], cdf[i])
		}
	}
	if last := cdf[len(cdf)-1].Frac; math.Abs(last-1) > 1e-12 {
		t.Fatalf("CDF does not end at 1: %v", last)
	}
}

func TestHistSummarizeOrdering(t *testing.T) {
	h := NewHist()
	r := xrand.New(3)
	for i := 0; i < 50000; i++ {
		h.Record(int64(r.LogNormal(10, 1)))
	}
	s := h.Summarize()
	if !(s.Min <= s.P50 && s.P50 <= s.P90 && s.P90 <= s.P95 && s.P95 <= s.P99 && s.P99 <= s.P999 && s.P999 <= s.Max) {
		t.Fatalf("summary not ordered: %+v", s)
	}
	if s.String() == "" {
		t.Fatal("empty summary string")
	}
}

func TestBucketBoundsConsistent(t *testing.T) {
	// Every value maps into a bucket whose [lower, upper] contains it, and
	// neighbouring buckets do not overlap.
	values := []int64{0, 1, 63, 64, 65, 127, 128, 1000, 123456, 1 << 30, 1<<40 + 12345, 1<<62 - 1, math.MaxInt64}
	for _, v := range values {
		b := BucketOf(v)
		lo, hi := bucketLower(b), bucketUpper(b)
		if v < lo || v > hi {
			t.Errorf("value %d in bucket %d bounds [%d,%d]", v, b, lo, hi)
		}
		if b > 0 {
			if prevHi := bucketUpper(b - 1); prevHi >= lo {
				t.Errorf("bucket %d lower %d overlaps bucket %d upper %d", b, lo, b-1, prevHi)
			}
		}
	}
}

func TestQuickBucketContainment(t *testing.T) {
	f := func(v uint64) bool {
		x := int64(v & ((1 << 62) - 1))
		b := BucketOf(x)
		return x >= bucketLower(b) && x <= bucketUpper(b)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestQuickBucketMonotone(t *testing.T) {
	f := func(a, b uint32) bool {
		x, y := int64(a), int64(b)
		if x > y {
			x, y = y, x
		}
		return BucketOf(x) <= BucketOf(y)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestQuantilesExact(t *testing.T) {
	s := []int64{5, 1, 9, 3, 7}
	qs := Quantiles(s, 0, 0.5, 1)
	if qs[0] != 1 || qs[1] != 5 || qs[2] != 9 {
		t.Fatalf("Quantiles = %v", qs)
	}
	// Input must not be mutated.
	if s[0] != 5 {
		t.Fatal("Quantiles mutated input")
	}
	empty := Quantiles(nil, 0.5)
	if empty[0] != 0 {
		t.Fatal("Quantiles of empty sample")
	}
}

func TestP2AgainstExact(t *testing.T) {
	for _, q := range []float64{0.5, 0.9, 0.99} {
		p := NewP2(q)
		r := xrand.New(42)
		sample := make([]int64, 0, 50000)
		for i := 0; i < 50000; i++ {
			v := r.ExpFloat64(0.001)
			p.Add(v)
			sample = append(sample, int64(v))
		}
		exact := float64(Quantiles(sample, q)[0])
		got := p.Value()
		rel := math.Abs(got-exact) / exact
		if rel > 0.08 {
			t.Errorf("P2(%v) = %.0f, exact %.0f (rel err %.3f)", q, got, exact, rel)
		}
	}
}

func TestP2SmallN(t *testing.T) {
	p := NewP2(0.5)
	if p.Value() != 0 {
		t.Fatal("empty P2 value != 0")
	}
	p.Add(10)
	if p.Value() != 10 {
		t.Fatalf("single-sample P2 = %v", p.Value())
	}
	p.Add(20)
	p.Add(30)
	v := p.Value()
	if v < 10 || v > 30 {
		t.Fatalf("3-sample median %v out of range", v)
	}
	if p.Count() != 3 {
		t.Fatalf("Count = %d", p.Count())
	}
}

func TestP2Reset(t *testing.T) {
	p := NewP2(0.9)
	for i := 0; i < 100; i++ {
		p.Add(float64(i))
	}
	p.Reset()
	if p.Count() != 0 || p.Value() != 0 {
		t.Fatal("P2 reset incomplete")
	}
}

func TestP2InvalidQuantilePanics(t *testing.T) {
	for _, q := range []float64{0, 1, -0.5, 1.5} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("NewP2(%v) did not panic", q)
				}
			}()
			NewP2(q)
		}()
	}
}

func TestP2MonotoneShift(t *testing.T) {
	// When the distribution shifts up, the estimate should follow.
	p := NewP2(0.9)
	for i := 0; i < 5000; i++ {
		p.Add(100)
	}
	low := p.Value()
	for i := 0; i < 20000; i++ {
		p.Add(1000)
	}
	if p.Value() <= low {
		t.Fatalf("P2 did not track upward shift: %v -> %v", low, p.Value())
	}
}

func TestEWMABasics(t *testing.T) {
	e := NewEWMA(0.5)
	if e.Set() {
		t.Fatal("fresh EWMA claims to be set")
	}
	e.Add(10)
	if e.Value() != 10 {
		t.Fatalf("first value = %v", e.Value())
	}
	e.Add(20)
	if e.Value() != 15 {
		t.Fatalf("after 20: %v, want 15", e.Value())
	}
	e.Reset()
	if e.Set() || e.Value() != 0 {
		t.Fatal("reset incomplete")
	}
}

func TestEWMAConverges(t *testing.T) {
	e := NewEWMA(0.1)
	for i := 0; i < 500; i++ {
		e.Add(42)
	}
	if math.Abs(e.Value()-42) > 1e-9 {
		t.Fatalf("EWMA did not converge: %v", e.Value())
	}
}

func TestEWMAInvalidAlphaPanics(t *testing.T) {
	for _, a := range []float64{0, -1, 1.01} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("NewEWMA(%v) did not panic", a)
				}
			}()
			NewEWMA(a)
		}()
	}
}

func TestWelfordMoments(t *testing.T) {
	var w Welford
	data := []float64{2, 4, 4, 4, 5, 5, 7, 9}
	for _, x := range data {
		w.Add(x)
	}
	if w.Count() != 8 || w.Mean() != 5 {
		t.Fatalf("mean = %v n = %d", w.Mean(), w.Count())
	}
	if math.Abs(w.Variance()-4) > 1e-9 {
		t.Fatalf("variance = %v, want 4", w.Variance())
	}
	if w.Stddev() != 2 || w.Min() != 2 || w.Max() != 9 {
		t.Fatalf("sd=%v min=%v max=%v", w.Stddev(), w.Min(), w.Max())
	}
}

func TestWelfordEmpty(t *testing.T) {
	var w Welford
	if w.Mean() != 0 || w.Variance() != 0 || w.Min() != 0 || w.Max() != 0 {
		t.Fatal("empty Welford not zero")
	}
}

func TestWelfordMerge(t *testing.T) {
	var a, b, all Welford
	r := xrand.New(5)
	for i := 0; i < 1000; i++ {
		x := r.Normal(10, 3)
		all.Add(x)
		if i%2 == 0 {
			a.Add(x)
		} else {
			b.Add(x)
		}
	}
	a.Merge(&b)
	if a.Count() != all.Count() {
		t.Fatalf("merged count %d != %d", a.Count(), all.Count())
	}
	if math.Abs(a.Mean()-all.Mean()) > 1e-9 || math.Abs(a.Variance()-all.Variance()) > 1e-6 {
		t.Fatalf("merge mismatch: mean %v vs %v, var %v vs %v", a.Mean(), all.Mean(), a.Variance(), all.Variance())
	}
	var empty Welford
	empty.Merge(&a)
	if empty.Count() != a.Count() {
		t.Fatal("merge into empty lost data")
	}
}

func TestQuickWelfordMeanInRange(t *testing.T) {
	f := func(xs []float64) bool {
		var w Welford
		lo, hi := math.Inf(1), math.Inf(-1)
		for _, x := range xs {
			if math.IsNaN(x) || math.IsInf(x, 0) {
				continue
			}
			// Constrain to the magnitudes the accumulator is used for
			// (virtual-time nanoseconds); 1e300-scale inputs overflow
			// delta*delta by design.
			x = math.Mod(x, 1e12)
			w.Add(x)
			if x < lo {
				lo = x
			}
			if x > hi {
				hi = x
			}
		}
		if w.Count() == 0 {
			return true
		}
		return w.Mean() >= lo-1e-9 && w.Mean() <= hi+1e-9 && w.Variance() >= 0
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestWindowSeries(t *testing.T) {
	s := NewWindowSeries(100)
	s.Add(10, 5)
	s.Add(50, 15)
	s.Add(150, 25)
	s.Add(250, 35)
	pts := s.Points()
	if len(pts) != 3 {
		t.Fatalf("got %d bins, want 3", len(pts))
	}
	if pts[0].Start != 0 || pts[1].Start != 100 || pts[2].Start != 200 {
		t.Fatalf("bin starts: %v %v %v", pts[0].Start, pts[1].Start, pts[2].Start)
	}
	if pts[0].Hist.Count() != 2 || pts[1].Hist.Count() != 1 {
		t.Fatal("bin contents wrong")
	}
}

func TestWindowSeriesInvalidWindowPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("zero window did not panic")
		}
	}()
	NewWindowSeries(0)
}

func BenchmarkHistRecord(b *testing.B) {
	h := NewHist()
	for i := 0; i < b.N; i++ {
		h.Record(int64(i%100000 + 1000))
	}
}

func BenchmarkHistPercentile(b *testing.B) {
	h := NewHist()
	r := xrand.New(1)
	for i := 0; i < 100000; i++ {
		h.Record(int64(r.ExpFloat64(0.0001)))
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = h.Percentile(0.99)
	}
}

func BenchmarkP2Add(b *testing.B) {
	p := NewP2(0.99)
	for i := 0; i < b.N; i++ {
		p.Add(float64(i % 10000))
	}
}

func TestRollingP2ServesPreviousWindow(t *testing.T) {
	r := NewRollingP2(0.9)
	for i := 0; i < 1000; i++ {
		r.Add(100)
	}
	r.Rotate()
	// New window full of much larger values: served value is still the
	// previous window's until the next rotation.
	for i := 0; i < 1000; i++ {
		r.Add(10000)
	}
	if v := r.Value(); v > 200 {
		t.Fatalf("rolling value %v leaked the open window", v)
	}
	r.Rotate()
	if v := r.Value(); v < 5000 {
		t.Fatalf("rotation did not adopt the new window: %v", v)
	}
}

func TestRollingP2ForgetsOldEpisode(t *testing.T) {
	// The motivating property: a straggler episode must age out after two
	// rotations instead of stigmatizing the estimate forever (as a
	// cumulative P2 would).
	r := NewRollingP2(0.99)
	for i := 0; i < 500; i++ {
		if i%20 == 10 {
			r.Add(100000) // bad episode
		} else {
			r.Add(1000)
		}
	}
	r.Rotate()
	if r.Value() < 10000 {
		t.Fatalf("episode window should read high, got %v", r.Value())
	}
	for i := 0; i < 500; i++ {
		r.Add(1000) // clean window
	}
	r.Rotate()
	if v := r.Value(); v > 2000 {
		t.Fatalf("old episode did not age out: %v", v)
	}
}

func TestRollingP2DiscardsThinWindows(t *testing.T) {
	r := NewRollingP2(0.5)
	for i := 0; i < 100; i++ {
		r.Add(500)
	}
	r.Rotate()
	r.Add(999999) // 1 sample, then rotate: too thin to serve
	r.Rotate()
	if v := r.Value(); v != 500 {
		t.Fatalf("thin window served: %v", v)
	}
}

func TestRollingP2BeforeFirstRotation(t *testing.T) {
	r := NewRollingP2(0.5)
	if r.Value() != 0 {
		t.Fatal("empty rolling value != 0")
	}
	r.Add(42)
	if r.Value() != 42 {
		t.Fatalf("live fallback = %v", r.Value())
	}
}

func TestHistQuantileBounds(t *testing.T) {
	h := NewHist()
	if lo, hi := h.QuantileBounds(0.99); lo != 0 || hi != 0 {
		t.Fatalf("empty bounds [%d,%d]", lo, hi)
	}
	r := xrand.New(7)
	sample := make([]int64, 0, 20000)
	for i := 0; i < 20000; i++ {
		v := int64(r.ExpFloat64(1.0/80000) + 1)
		h.Record(v)
		sample = append(sample, v)
	}
	qs := []float64{0.5, 0.9, 0.99, 0.999}
	exact := Quantiles(sample, qs...)
	for i, q := range qs {
		lo, hi := h.QuantileBounds(q)
		if exact[i] < lo || exact[i] > hi {
			t.Fatalf("q%.3f: exact %d outside reported bounds [%d, %d]", q, exact[i], lo, hi)
		}
		if p := h.Percentile(q); p < lo || p > hi {
			t.Fatalf("q%.3f: percentile %d outside its own bounds [%d, %d]", q, p, lo, hi)
		}
	}
}

func TestHistCumBuckets(t *testing.T) {
	h := NewHist()
	if h.CumBuckets() != nil {
		t.Fatal("empty CumBuckets not nil")
	}
	for _, v := range []int64{5, 63, 100, 100, 5000, 1 << 20, math.MaxInt64} {
		h.Record(v)
	}
	want := []Bucket{
		{Le: 63, Count: 2}, // the whole linear region is one bucket
		{Le: 127, Count: 4},
		{Le: 8191, Count: 5},
		{Le: 1<<21 - 1, Count: 6},
		{Le: math.MaxInt64, Count: 7},
	}
	got := h.CumBuckets()
	if len(got) != len(want) {
		t.Fatalf("CumBuckets %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("bucket %d = %+v, want %+v (all: %v)", i, got[i], want[i], got)
		}
	}
}

// Delta is the sentinel's windowed view: cumulative snapshot minus the
// previous tick's snapshot, quantiled per window.
func TestHistDelta(t *testing.T) {
	h := NewHist()
	for i := 1; i <= 100; i++ {
		h.Record(int64(i) * 1000)
	}
	prev := *h
	for i := 0; i < 50; i++ {
		h.Record(5_000_000) // a burst lands: 5ms observations
	}
	d := h.Delta(&prev)
	if d.Count() != 50 {
		t.Fatalf("delta count = %d, want 50", d.Count())
	}
	if got := d.Percentile(0.99); got < 4_000_000 || got > 6_000_000 {
		t.Fatalf("delta p99 = %d, want ~5ms — window must see only the burst", got)
	}
	if cum := h.Percentile(0.50); cum >= 4_000_000 {
		t.Fatalf("cumulative p50 = %d — the cumulative view should dilute the burst (test setup broken)", cum)
	}
	// Min/Max are the bounds of the first and last occupied buckets.
	b := BucketOf(5_000_000)
	if d.Min() != bucketLower(b) || d.Max() != bucketUpper(b) {
		t.Fatalf("delta bounds [%d,%d], want the burst bucket [%d,%d]", d.Min(), d.Max(), bucketLower(b), bucketUpper(b))
	}
	// Empty delta: same snapshot twice.
	if e := h.Delta(h); e.Count() != 0 || e.Sum() != 0 || e.Min() != 0 || e.Max() != 0 {
		t.Fatalf("self-delta not empty: %v", e.Summarize())
	}
	// Delta against an empty histogram equals the cumulative view.
	if full := h.Delta(NewHist()); full.Count() != h.Count() || full.Sum() != h.Sum() {
		t.Fatalf("delta vs empty = %v, want %v", full.Summarize(), h.Summarize())
	}
	// A bucket that appears to run backwards (a recorder racing the two
	// snapshots) clamps to zero instead of underflowing.
	ahead := *h
	ahead.Record(1000)
	if back := h.Delta(&ahead); back.Count() != 0 || back.Sum() != 0 {
		t.Fatalf("backwards delta not clamped: %v", back.Summarize())
	}
}

func TestHistAddBuckets(t *testing.T) {
	var counts [NumBuckets]uint64
	h := NewHist()
	h.Record(10)
	h.AddBuckets(&counts, 999, -5, 1<<40) // all-zero counts: nothing to add
	if h.Count() != 1 || h.Sum() != 10 || h.Min() != 10 || h.Max() != 10 {
		t.Fatalf("empty AddBuckets changed the histogram: %v", h.Summarize())
	}
	counts[BucketOf(3)] = 2
	counts[BucketOf(7000)] = 1
	h.AddBuckets(&counts, 3+3+7000, 3, 7000)
	want := NewHist()
	for _, v := range []int64{10, 3, 3, 7000} {
		want.Record(v)
	}
	if h.Summarize() != want.Summarize() {
		t.Fatalf("AddBuckets %v, want %v", h.Summarize(), want.Summarize())
	}
}
