package core

import (
	"testing"

	"mpdp/internal/nf"
	"mpdp/internal/packet"
	"mpdp/internal/sim"
)

// TestMetricsTotalLostClamps documents the clamp in TotalLost: when the raw
// counters say more packets finished than were offered (an over-delivery
// bug), TotalLost reports 0 rather than wrapping. The invariant checker is
// responsible for flagging that state as a violation.
func TestMetricsTotalLostClamps(t *testing.T) {
	m := newMetrics(0)
	m.offered = 10
	m.delivered = 7
	m.consumed = 1
	if got := m.TotalLost(); got != 2 {
		t.Fatalf("TotalLost = %d, want 2", got)
	}
	m.delivered = 12 // over-delivery: 12+1 > 10
	if got := m.TotalLost(); got != 0 {
		t.Fatalf("TotalLost = %d, want clamp to 0 on over-delivery", got)
	}
}

func TestMetricsRatioGuards(t *testing.T) {
	m := newMetrics(0)
	if m.DeliveryRate() != 0 || m.DupOverhead() != 0 {
		t.Fatal("zero-offered ratios must be 0, not NaN")
	}
	if m.GoodputBps(0) != 0 || m.GoodputBps(-sim.Second) != 0 {
		t.Fatal("non-positive elapsed must yield 0 goodput")
	}
	m.offered = 4
	m.delivered = 3
	m.dupCopies = 2
	m.deliveredBytes = 1000
	if got := m.DeliveryRate(); got != 0.75 {
		t.Fatalf("DeliveryRate = %v", got)
	}
	if got := m.DupOverhead(); got != 0.5 {
		t.Fatalf("DupOverhead = %v", got)
	}
	if got := m.GoodputBps(sim.Second); got != 8000 {
		t.Fatalf("GoodputBps = %v, want 8000", got)
	}
}

// TestMetricsDuplicationAccounting runs the engine with duplication and
// checks the copy-level counters against the packet-level ones:
// CopiesSent = Offered + DupCopies, and every cancelled copy is also a
// DropCancelled in the per-reason table.
func TestMetricsDuplicationAccounting(t *testing.T) {
	s := sim.New()
	cfg := Config{
		NumPaths: 2,
		ChainFactory: func(i int) *nf.Chain {
			if i == 0 {
				return passChain(2 * sim.Microsecond)
			}
			return passChain(20 * sim.Microsecond)
		},
		Policy:   &Redundant{K: 2},
		QueueCap: 512,
		Seed:     3,
	}
	dp := New(s, cfg, nil)
	inject(dp, 150, 4, 1*sim.Microsecond)
	m := dp.Metrics()
	if m.Delivered() != 150 {
		t.Fatalf("delivered %d/150", m.Delivered())
	}
	if m.DupCopies() != 150 {
		t.Fatalf("dup copies %d, want one extra per packet", m.DupCopies())
	}
	if got, want := m.CopiesSent(), m.Offered()+m.DupCopies(); got != want {
		t.Fatalf("copies sent %d != offered %d + dup %d", got, m.Offered(), m.DupCopies())
	}
	if m.DupCancelled() == 0 {
		t.Fatal("asymmetric lanes should cancel some queued losers")
	}
	// Copy conservation: with no congestion or policy drops, every copy that
	// did not deliver its packet lost the race — either cancelled while still
	// queued (DupCancelled, service cost saved) or after completing service
	// (DropCancelled). The two categories are disjoint and together account
	// for every losing copy.
	losers := m.CopiesSent() - m.Delivered()
	if got := m.DupCancelled() + m.Drops(packet.DropCancelled); got != losers {
		t.Fatalf("queued-cancels %d + served-losers %d != losing copies %d",
			m.DupCancelled(), m.Drops(packet.DropCancelled), losers)
	}
	if m.DupCancelled() > m.DupCopies() {
		t.Fatalf("cancelled %d copies but only %d duplicates exist",
			m.DupCancelled(), m.DupCopies())
	}
}

// TestMetricsStageTiming runs the engine with per-element stage timing on
// and checks that every chain stage reports a cost distribution consistent
// with the chain's construction, and that the hook is absent (no stage
// histograms) by default.
func TestMetricsStageTiming(t *testing.T) {
	run := func(stageTiming bool) *Metrics {
		s := sim.New()
		cfg := engineConfig(2, &JSQ{})
		cfg.StageTiming = stageTiming
		cfg.ChainFactory = func(i int) *nf.Chain { return nf.PresetChain(3) }
		dp := New(s, cfg, nil)
		inject(dp, 200, 4, 1*sim.Microsecond)
		return dp.Metrics()
	}

	if got := run(false).StageService(); len(got) != 0 {
		t.Fatalf("stage timing off but %d stage hists recorded", len(got))
	}

	m := run(true)
	stages := m.StageService()
	if len(stages) != nf.PresetChain(3).Len() {
		t.Fatalf("stage count %d, want %d", len(stages), nf.PresetChain(3).Len())
	}
	var stageSum float64
	for i, st := range stages {
		if st.Name == "" {
			t.Fatalf("stage %d has no name", i)
		}
		if st.Latency.Count == 0 {
			t.Fatalf("stage %q recorded nothing", st.Name)
		}
		stageSum += st.Latency.Mean * float64(st.Latency.Count)
	}
	// Per-stage costs must sum to (roughly — histogram buckets are exact
	// for sums) the total service cost the lanes charged, before jitter and
	// interference scaling. Jitter is on in engineConfig, so compare
	// against the raw chain cost via a jitter-free reference instead:
	// every stage fired once per serviced packet, and each element's cost
	// is deterministic per packet, so the sum must be positive and the
	// stage count must equal the serviced-packet count per stage.
	if stageSum <= 0 {
		t.Fatal("stage costs sum to zero")
	}
	first := stages[0].Latency.Count
	for _, st := range stages {
		if st.Latency.Count != first {
			t.Fatalf("pass-all preset chain should process every packet at every stage: %+v", stages)
		}
	}
}

// TestMetricsDropAccountingVsTotalLost overloads a tiny queue with
// duplication on: the per-reason drop counters count copies (and so may
// exceed packet loss), while TotalLost counts distinct packets. Both views
// must stay consistent with conservation.
func TestMetricsDropAccountingVsTotalLost(t *testing.T) {
	s := sim.New()
	cfg := engineConfig(2, &Redundant{K: 2})
	cfg.QueueCap = 4
	dp := New(s, cfg, nil)
	inject(dp, 400, 8, 100*sim.Nanosecond) // heavy overload: queues overflow
	m := dp.Metrics()
	if m.TotalLost() == 0 {
		t.Fatal("overload should lose packets")
	}
	if m.Delivered()+m.Consumed()+m.TotalLost() != m.Offered() {
		t.Fatalf("conservation: %d + %d + %d != %d",
			m.Delivered(), m.Consumed(), m.TotalLost(), m.Offered())
	}
	var copyDrops uint64
	for _, r := range []packet.DropReason{
		packet.DropPolicy, packet.DropQueueFull, packet.DropReorder,
		packet.DropCancelled, packet.DropPathFailed,
	} {
		copyDrops += m.Drops(r)
	}
	// Every lost packet had at least one dropped copy; with duplication the
	// copy count can only over-count, never under-count.
	if copyDrops < m.TotalLost() {
		t.Fatalf("per-reason drops %d under-count lost packets %d", copyDrops, m.TotalLost())
	}
	if m.Drops(packet.DropQueueFull) == 0 {
		t.Fatal("queue overflow produced no DropQueueFull")
	}
}
