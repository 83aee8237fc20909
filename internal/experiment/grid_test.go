package experiment

import (
	"reflect"
	"testing"

	"mpdp/internal/stats"
)

// TestMergeSummaryIntoKeepsEveryBucket replays a CDF whose cumulative
// fractions do not survive frac*total exactly: 1/49*49 is a hair below 1 in
// binary floating point. Every sample must land back in its own bucket.
func TestMergeSummaryIntoKeepsEveryBucket(t *testing.T) {
	h := stats.NewHist()
	h.Record(1_000)
	for i := 0; i < 48; i++ {
		h.Record(50_000)
	}
	merged := stats.NewHist()
	mergeSummaryInto(merged, RunResult{Latency: h.Summarize(), CDF: h.CDF()})
	if got, want := merged.CDF(), h.CDF(); !reflect.DeepEqual(got, want) {
		t.Fatalf("replayed CDF %v, want %v", got, want)
	}
}
