package main

import (
	"math"
	"runtime/metrics"
	"testing"
)

func TestHistDeltaQuantile(t *testing.T) {
	buckets := []float64{0, 1, 2, 4, math.Inf(1)}
	before := &metrics.Float64Histogram{Counts: []uint64{5, 5, 0, 0}, Buckets: buckets}
	after := &metrics.Float64Histogram{Counts: []uint64{5, 104, 1, 0}, Buckets: buckets}
	// 100 new observations: 99 in [1,2), 1 in [2,4).
	if got := histDeltaQuantile(before, after, 0.99); got != 2 {
		t.Errorf("p99 = %v, want the upper edge 2 of the bucket holding the 99th", got)
	}
	if got := histDeltaQuantile(before, after, 1); got != 4 {
		t.Errorf("p100 = %v, want 4", got)
	}
	if got := histDeltaQuantile(after, after, 0.99); got != 0 {
		t.Errorf("no new observations: got %v, want 0", got)
	}
	after.Counts[3] = 50 // the open-ended bucket reports its lower edge
	if got := histDeltaQuantile(before, after, 0.99); got != 4 {
		t.Errorf("overflow bucket: got %v, want 4", got)
	}
}

func TestRuntimeMetricNamesExist(t *testing.T) {
	known := map[string]bool{}
	for _, d := range metrics.All() {
		known[d.Name] = true
	}
	for _, n := range runtimeMetricNames {
		if !known[n] {
			t.Errorf("runtime/metrics has no %q in this toolchain", n)
		}
	}
}

func TestRecorderClampsToInt32(t *testing.T) {
	r := &recorder{}
	r.add(5)
	r.add(1 << 40)
	if r.samples[0] != 5 || r.samples[1] != math.MaxInt32 {
		t.Errorf("samples = %v", r.samples)
	}
}
