package live

import (
	"fmt"
	"math"
	"math/rand/v2"
	"reflect"
	"strings"
	"sync"
	"testing"

	"mpdp/internal/stats"
)

func TestHistogramQuantilesVsExact(t *testing.T) {
	h := NewHistogram()
	rng := rand.New(rand.NewPCG(1, 2))
	sample := make([]int64, 0, 50000)
	for i := 0; i < 50000; i++ {
		// Log-uniform latencies spanning ns to tens of ms.
		v := int64(math.Exp(rng.Float64() * math.Log(5e7)))
		sample = append(sample, v)
		h.Record(v)
	}
	s := h.Snapshot()
	if s.Count() != 50000 {
		t.Fatalf("count %d", s.Count())
	}
	exact := stats.Quantiles(sample, 0.5, 0.9, 0.99, 0.999)
	for i, q := range []float64{0.5, 0.9, 0.99, 0.999} {
		got := s.Percentile(q)
		lo, hi := s.QuantileBounds(q)
		if exact[i] < lo || exact[i] > hi {
			t.Fatalf("q%.3f: exact %d outside reported bounds [%d, %d]", q, exact[i], lo, hi)
		}
		// Midpoint within the bucket's ~1.6% relative error of the truth.
		if rel := math.Abs(float64(got)-float64(exact[i])) / float64(exact[i]); rel > 0.02 {
			t.Fatalf("q%.3f: histogram %d vs exact %d (rel err %.3f)", q, got, exact[i], rel)
		}
	}
	var sum int64
	for _, v := range sample {
		sum += v
	}
	if s.Sum() != sum {
		t.Fatalf("sum %d != exact %d", s.Sum(), sum)
	}
}

func TestHistogramMinMaxAndEmpty(t *testing.T) {
	h := NewHistogram()
	s := h.Snapshot()
	if s.Count() != 0 || s.Min() != 0 || s.Max() != 0 || s.Percentile(0.99) != 0 {
		t.Fatalf("empty snapshot %v", s.Summarize())
	}
	h.Record(500)
	h.Record(7)
	h.Record(-3) // clamps to 0
	s = h.Snapshot()
	if s.Min() != 0 || s.Max() != 500 || s.Count() != 3 {
		t.Fatalf("snapshot %v", s.Summarize())
	}
	if q := s.Percentile(0); q != 0 {
		t.Fatalf("p0 = %d", q)
	}
	if q := s.Percentile(1); q != 500 {
		t.Fatalf("p100 = %d (clamping to observed max expected)", q)
	}
}

func TestHistogramSnapshotMerge(t *testing.T) {
	a, b := NewHistogram(), NewHistogram()
	for i := int64(0); i < 1000; i++ {
		a.Record(i)
		b.Record(i + 100000)
	}
	s := a.Snapshot()
	s.Merge(b.Snapshot())
	if s.Count() != 2000 {
		t.Fatalf("merged count %d", s.Count())
	}
	if s.Min() != 0 || s.Max() != 100999 {
		t.Fatalf("merged min/max %d/%d", s.Min(), s.Max())
	}
	if p50 := s.Percentile(0.5); p50 > 1100 {
		t.Fatalf("merged p50 %d should sit at the top of a's range", p50)
	}
}

func TestHistogramConcurrentRecord(t *testing.T) {
	h := NewHistogram()
	const goroutines, per = 8, 20000
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < per; i++ {
				h.Record(int64(g*1000 + i%997))
			}
		}(g)
	}
	wg.Wait()
	s := h.Snapshot()
	if s.Count() != goroutines*per {
		t.Fatalf("lost observations: %d of %d", s.Count(), goroutines*per)
	}
	if bks := s.CumBuckets(); bks[len(bks)-1].Count != s.Count() {
		t.Fatalf("bucket sum %d != count %d", bks[len(bks)-1].Count, s.Count())
	}
}

// TestHistogramRecordNoAllocs is the deterministic version of the CI
// benchmark gate: the record path must never allocate, or the
// instrumentation would cause the GC tails it exists to measure.
func TestHistogramRecordNoAllocs(t *testing.T) {
	h := NewHistogram()
	if n := testing.AllocsPerRun(1000, func() { h.Record(12345) }); n != 0 {
		t.Fatalf("Record allocates %.1f objects/op, want 0", n)
	}
	if n := testing.AllocsPerRun(100, func() { h.Count() }); n != 0 {
		t.Fatalf("Count allocates %.1f objects/op, want 0", n)
	}
}

func TestRegistryHistogramExposition(t *testing.T) {
	r := NewRegistry()
	h := NewHistogram()
	for i := int64(1); i <= 1000; i++ {
		h.Record(i * 1000)
	}
	r.RegisterHistogram(`stage_latency_ns{stage="nf_nat"}`, h)

	snap := r.Snapshot()
	for _, key := range []string{
		`stage_latency_ns_count{stage="nf_nat"}`,
		`stage_latency_ns_sum{stage="nf_nat"}`,
		`stage_latency_ns_p50{stage="nf_nat"}`,
		`stage_latency_ns_p999{stage="nf_nat"}`,
	} {
		if _, ok := snap[key]; !ok {
			t.Fatalf("snapshot missing %q: %v", key, snap)
		}
	}
	if snap[`stage_latency_ns_count{stage="nf_nat"}`] != 1000 {
		t.Fatalf("count = %v", snap[`stage_latency_ns_count{stage="nf_nat"}`])
	}
	p50 := snap[`stage_latency_ns_p50{stage="nf_nat"}`]
	if p50 < 450e3 || p50 > 550e3 {
		t.Fatalf("p50 = %v, want ≈ 500500", p50)
	}

	var b strings.Builder
	if err := r.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	for _, want := range []string{
		"# TYPE stage_latency_ns histogram",
		`stage_latency_ns_bucket{stage="nf_nat",le="+Inf"} 1000`,
		`stage_latency_ns_count{stage="nf_nat"} 1000`,
		"# TYPE stage_latency_ns_p99 gauge",
		`stage_latency_ns_p99{stage="nf_nat"}`,
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("prometheus output missing %q:\n%s", want, out)
		}
	}
	// Cumulative le series must be monotone in the rendered order.
	var prev float64 = -1
	for _, line := range strings.Split(out, "\n") {
		if strings.HasPrefix(line, "stage_latency_ns_bucket") && !strings.Contains(line, "+Inf") {
			var le, c float64
			if _, err := fmt.Sscanf(strings.NewReplacer("{stage=\"nf_nat\",le=\"", " ", "\"}", " ").Replace(line), "stage_latency_ns_bucket %f %f", &le, &c); err != nil {
				t.Fatalf("unparseable bucket line %q: %v", line, err)
			}
			if c < prev {
				t.Fatalf("bucket counts not cumulative:\n%s", out)
			}
			prev = c
		}
	}
}

func BenchmarkHistogramRecord(b *testing.B) {
	h := NewHistogram()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		h.Record(int64(i&0xffff) + 100)
	}
}

func BenchmarkHistogramRecordParallel(b *testing.B) {
	h := NewHistogram()
	b.ReportAllocs()
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		v := int64(100)
		for pb.Next() {
			v = (v*2862933555777941757 + 3037000493) & 0xfffff
			h.Record(v)
		}
	})
}

func BenchmarkHistogramSnapshot(b *testing.B) {
	h := NewHistogram()
	for i := 0; i < 100000; i++ {
		h.Record(int64(i % 100000))
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s := h.Snapshot()
		if s.Count() == 0 {
			b.Fatal("empty")
		}
	}
}

// sampleStream is a seeded latency stream spanning the layout: exact unit
// buckets, log-uniform ns..tens of ms, and the extremes.
func sampleStream(seed uint64, n int) []int64 {
	rng := rand.New(rand.NewPCG(seed, seed^0x9e3779b97f4a7c15))
	out := []int64{0, 1, 63, 64, 65, 1<<61 + 12345}
	for len(out) < n {
		switch rng.IntN(4) {
		case 0:
			out = append(out, rng.Int64N(128))
		default:
			out = append(out, int64(math.Exp(rng.Float64()*math.Log(5e7))))
		}
	}
	return out
}

// assertSameHist holds two histograms to the same reading through every
// read-side view the engines report.
func assertSameHist(t *testing.T, label string, got, want *stats.Hist) {
	t.Helper()
	if g, w := got.Summarize(), want.Summarize(); g != w {
		t.Fatalf("%s: Summarize %v, want %v", label, g, w)
	}
	if g, w := got.CDF(), want.CDF(); !reflect.DeepEqual(g, w) {
		t.Fatalf("%s: CDF differs (%d vs %d points)", label, len(g), len(w))
	}
	if g, w := got.CumBuckets(), want.CumBuckets(); !reflect.DeepEqual(g, w) {
		t.Fatalf("%s: CumBuckets %v, want %v", label, g, w)
	}
}

// TestHistogramMatchesSimHist is the cross-engine property: the sharded
// recorder and the simulator's stats.Hist are the same histogram, so one
// sample stream reads identically through either, whatever the shard count.
func TestHistogramMatchesSimHist(t *testing.T) {
	for seed := uint64(1); seed <= 5; seed++ {
		sample := sampleStream(seed, 20000)
		want := stats.NewHist()
		for _, v := range sample {
			want.Record(v)
		}
		for _, shards := range []int{1, 4} {
			h := newHistogram(shards)
			for _, v := range sample {
				h.Record(v)
			}
			assertSameHist(t, fmt.Sprintf("seed %d, %d shards", seed, shards), h.Snapshot(), want)
		}
	}
}

// TestSimHistMergesIntoWireSnapshot: a sim Hist merged into a live/wire
// snapshot equals recording both streams into one histogram.
func TestSimHistMergesIntoWireSnapshot(t *testing.T) {
	simStream, wireStream := sampleStream(11, 5000), sampleStream(12, 7000)
	simHist, both := stats.NewHist(), stats.NewHist()
	wire := newHistogram(4)
	for _, v := range simStream {
		simHist.Record(v)
		both.Record(v)
	}
	for _, v := range wireStream {
		wire.Record(v)
		both.Record(v)
	}
	merged := wire.Snapshot()
	merged.Merge(simHist)
	assertSameHist(t, "sim merged into wire", merged, both)
}
