package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"testing"
)

// Every checked-in baseline must carry a filled latency block: a snapshot
// that records p99 alone (as BENCH_E25_mesh.json once did) gives the diff
// gate nothing but one number to compare.
func TestCheckedInSnapshotsHaveLatency(t *testing.T) {
	paths, err := filepath.Glob("../../bench/BENCH_*.json")
	if err != nil || len(paths) == 0 {
		t.Fatalf("no baselines found (err %v)", err)
	}
	for _, path := range paths {
		raw, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		var doc benchDoc
		if err := json.Unmarshal(raw, &doc); err != nil {
			t.Fatalf("%s: %v", path, err)
		}
		if err := doc.checkLatency(); err != nil {
			t.Errorf("%s: %v", filepath.Base(path), err)
		}
	}
}

func TestCheckLatency(t *testing.T) {
	var doc benchDoc
	doc.Scenario = "x"
	if err := doc.checkLatency(); err != nil {
		t.Fatalf("a run that delivered nothing has no latency to report: %v", err)
	}
	doc.Delivered = 10
	doc.LatencyNS.P99 = 5000 // p99 alone is the E25 defect
	if doc.checkLatency() == nil {
		t.Fatal("accepted delivered>0 with zero mean and p50")
	}
	doc.LatencyNS.Mean, doc.LatencyNS.P50 = 1200, 1000
	if err := doc.checkLatency(); err != nil {
		t.Fatal(err)
	}
}
