package experiment

import "testing"

func TestRegistryComplete(t *testing.T) {
	ids := IDs()
	if len(ids) != 21 {
		t.Fatalf("registry has %d experiments, want 21", len(ids))
	}
	if ids[0] != "E1" || ids[len(ids)-1] != "E22" {
		t.Fatalf("suite order wrong: %v", ids)
	}
}

// TestHeadlineShapes verifies the qualitative claims the suite documents in
// EXPERIMENTS.md, at quick scale: who wins, in which direction. It runs the
// same battery as `mpdp-bench -check`.
func TestHeadlineShapes(t *testing.T) {
	if testing.Short() {
		t.Skip("shape test skipped in -short mode")
	}
	bad, err := CheckShapes(SuiteOpts{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	for _, b := range bad {
		t.Error(b)
	}
}
