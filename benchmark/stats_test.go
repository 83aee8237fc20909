package main

import (
	"math"
	"testing"
)

func TestPercentileNearestRank(t *testing.T) {
	s := []int32{10, 20, 30, 40, 50, 60, 70, 80, 90, 100}
	for _, c := range []struct {
		q    float64
		want int32
	}{
		{0.5, 50}, {0.99, 100}, {0.9, 90}, {0.91, 100}, {0.1, 10}, {0.0001, 10}, {1, 100},
	} {
		if got := percentile(s, c.q); got != c.want {
			t.Errorf("percentile(%v) = %v, want %v", c.q, got, c.want)
		}
	}
	if got := percentile([]int32{7}, 0.99); got != 7 {
		t.Errorf("single sample: got %d", got)
	}
}

func TestNanosToMicrosSortsAndScales(t *testing.T) {
	got := nanosToMicros([]int32{3000, 1000, 2000, 4000}, 0.5, 1)
	if got[0] != 2 || got[1] != 4 {
		t.Errorf("got %v, want [2 4]", got)
	}
	if got := nanosToMicros(nil, 0.5); got[0] != 0 {
		t.Errorf("no samples: got %v", got)
	}
}

func TestMedian(t *testing.T) {
	if got := median([]float64{3, 1, 2}); got != 2 {
		t.Errorf("odd: got %v", got)
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("even: got %v", got)
	}
	if got := median(nil); got != 0 {
		t.Errorf("empty: got %v", got)
	}
}

// Expected values are what Python's statistics.quantiles(v, n=4) returns,
// the method the PR driver computes spreads with.
func TestQuartilesMatchPythonExclusive(t *testing.T) {
	for _, c := range []struct {
		vals   []float64
		q1, q3 float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 2.75, 8.25},
		{[]float64{10, 1, 9, 2, 8, 3, 7, 4, 6, 5}, 2.75, 8.25}, // order does not matter
		{[]float64{1, 2, 3}, 1, 3},
		{[]float64{1, 2}, 0.75, 2.25}, // extrapolates, as Python does
		{[]float64{5}, 5, 5},
		{[]float64{2, 4, 4, 5, 7, 9, 11}, 4, 9},
	} {
		q1, q3 := quartiles(c.vals)
		if math.Abs(q1-c.q1) > 1e-12 || math.Abs(q3-c.q3) > 1e-12 {
			t.Errorf("quartiles(%v) = %v, %v; want %v, %v", c.vals, q1, q3, c.q1, c.q3)
		}
	}
}
