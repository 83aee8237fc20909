package experiment

import (
	"runtime"
	"testing"

	"mpdp/internal/sim"
)

// mallocsPerPacket runs cfg once and returns heap allocations per offered
// packet, whole run included (set-up, calibration, result assembly).
func mallocsPerPacket(t *testing.T, cfg RunConfig) float64 {
	t.Helper()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	r, err := Run(cfg)
	runtime.ReadMemStats(&after)
	if err != nil {
		t.Fatal(err)
	}
	return float64(after.Mallocs-before.Mallocs) / float64(r.Offered)
}

// TestAllocBudget holds the end-to-end allocation cost of the benchmark's
// two simulator workloads inside go test ./...: the 15-odd functions gated
// at 0 allocs/op say nothing about what happens between them, and the
// benchmark only runs on demand. The budget of 0.25 is loose against
// today's figures (0.03 and 0.05 at a 20 ms horizon, set-up included; 9.7
// and 8.0 before events, closures, frames, packets and dup groups left the
// allocator) and tight against what one reintroduced per-event or
// per-packet allocation costs (+0.5 to +2).
func TestAllocBudget(t *testing.T) {
	for _, tc := range []struct {
		name   string
		cfg    RunConfig
		budget float64
	}{
		{"sim_mpdp_interfered", RunConfig{
			Seed: 1, Policy: "mpdp", Interference: "moderate", Util: 0.7, NumPaths: 4, ChainLen: 3,
			Arrival: "poisson", SizeDist: "imix", Duration: 20 * sim.Millisecond,
		}, 0.25},
		{"sim_single_burst", RunConfig{
			Seed: 1, Policy: "single", NumPaths: 1, Interference: "none", Util: 0.7, ChainLen: 3,
			Arrival: "onoff", SizeDist: "imix", QueueCap: 128, Duration: 20 * sim.Millisecond,
		}, 0.25},
	} {
		got := mallocsPerPacket(t, tc.cfg)
		t.Logf("%s: %.3f mallocs/packet (budget %.2f)", tc.name, got, tc.budget)
		if got > tc.budget {
			t.Errorf("%s: %.3f mallocs per offered packet, budget %.2f", tc.name, got, tc.budget)
		}
	}
}
