package transport

import (
	"testing"
	"time"

	"mpdp/internal/core"
)

// deadlineTestPaths fabricates n healthy sender paths with the given smoothed
// RTTs (nanoseconds) for scheduler unit tests — no sockets involved.
func deadlineTestPaths(rtts ...int64) []*senderPath {
	paths := make([]*senderPath, len(rtts))
	for i, rtt := range rtts {
		paths[i] = &senderPath{
			id:       uint16(i),
			health:   core.NewHealthTracker(core.HealthConfig{}),
			rttNanos: rtt,
		}
	}
	return paths
}

func deadlineSched(deadlineNanos int64, budget *core.DupBudget) *scheduler {
	return &scheduler{
		name: SchedDeadline, canaryEvery: 16,
		deadlineNanos: deadlineNanos, margin: 3, budget: budget,
	}
}

func TestWireDeadlineSafeStaysSingle(t *testing.T) {
	paths := deadlineTestPaths(100_000, 200_000, 300_000)
	s := deadlineSched(2_000_000, core.NewDupBudget(1<<20, 64<<10)) // 2ms » 0.1ms
	for i := 0; i < 20; i++ {
		picks, _ := s.pick(paths, int64(i)*1000, 256)
		if len(picks) != 1 || picks[0] != 0 {
			t.Fatalf("safe pick %v, want single best path 0", picks)
		}
	}
	if s.dstats.Safe != 20 || s.dstats.Duplicated != 0 {
		t.Fatalf("stats %+v", s.dstats)
	}
	if s.budget.SpentBytes() != 0 {
		t.Fatal("safe picks spent budget")
	}
}

func TestWireDeadlineEscalatesAndBillsBudget(t *testing.T) {
	paths := deadlineTestPaths(500_000, 800_000)
	s := deadlineSched(50_000, core.NewDupBudget(1<<20, 64<<10)) // 50µs « 500µs RTT
	picks, _ := s.pick(paths, 0, 256)
	if len(picks) != 2 || picks[0] != 0 || picks[1] != 1 {
		t.Fatalf("at-risk pick %v, want [0 1]", picks)
	}
	if s.dstats.AtRisk != 1 || s.dstats.Duplicated != 1 {
		t.Fatalf("stats %+v", s.dstats)
	}
	if s.budget.SpentBytes() != 256 {
		t.Fatalf("budget spent %d, want the frame payload 256", s.budget.SpentBytes())
	}
}

func TestWireDeadlineDeniesWithoutBudget(t *testing.T) {
	paths := deadlineTestPaths(500_000, 800_000)
	for _, budget := range []*core.DupBudget{nil, core.NewDupBudget(0, 0)} {
		s := deadlineSched(50_000, budget)
		picks, _ := s.pick(paths, 0, 256)
		if len(picks) != 1 {
			t.Fatalf("budget-less scheduler duplicated: %v", picks)
		}
		if s.dstats.Denied != 1 {
			t.Fatalf("stats %+v, want 1 denied", s.dstats)
		}
	}
}

func TestWireDeadlineUnsampledPathIsOptimistic(t *testing.T) {
	// No RTT samples yet: estimate 0 means every deadline looks safe, so a
	// cold sender never burns budget before acks teach it anything.
	paths := deadlineTestPaths(0, 0)
	s := deadlineSched(1, core.NewDupBudget(1<<20, 64<<10))
	picks, _ := s.pick(paths, 0, 256)
	if len(picks) != 1 {
		t.Fatalf("cold paths escalated: %v", picks)
	}
	if s.dstats.Safe != 1 {
		t.Fatalf("stats %+v", s.dstats)
	}
}

// TestLoopbackDeadlineCleanWire: on an unimpaired loopback wire RTTs sit far
// under a generous deadline, so the deadline scheduler must behave exactly
// like a single-copy scheduler — full delivery, zero duplicated bytes —
// while still scoring every delivery against the deadline. The deadline is
// explicit and race-detector-proof: under -race, loopback RTTs can blow
// through the 2 ms flag default and real escalations would be correct.
func TestLoopbackDeadlineCleanWire(t *testing.T) {
	rep, err := RunLoopback(LoopbackConfig{
		Paths:                2,
		Scheduler:            SchedDeadline,
		Deadline:             250 * time.Millisecond,
		DupBudgetBytesPerSec: 1 << 20,
		Flows:                4,
		Payload:              128,
		Packets:              3000,
		Health:               wireHealth(),
	})
	if err != nil {
		t.Fatalf("RunLoopback: %v", err)
	}
	if err := rep.Verify(); err != nil {
		t.Fatalf("invariants: %v", err)
	}
	if rep.Delivered != rep.Packets {
		t.Fatalf("delivered %d of %d on a clean wire", rep.Delivered, rep.Packets)
	}
	if rep.Sender.DupBytes != 0 {
		t.Fatalf("clean wire spent %d dup bytes under a generous deadline", rep.Sender.DupBytes)
	}
	if got := rep.DeadlineHits + rep.DeadlineMisses; got != rep.Delivered {
		t.Fatalf("deadline scored %d of %d deliveries", got, rep.Delivered)
	}
	if rep.DeadlineMisses != 0 {
		t.Fatalf("%d deadline misses on an unimpaired loopback", rep.DeadlineMisses)
	}
	ds := rep.Sender.Deadline
	if ds == nil {
		t.Fatal("sender stats carry no deadline block under SchedDeadline")
	}
	if ds.Safe+ds.AtRisk != rep.Packets {
		t.Fatalf("scheduler decided %d times for %d packets (%+v)",
			ds.Safe+ds.AtRisk, rep.Packets, ds)
	}
}

// TestLoopbackHedgeBillsDupBytes: the accounting fix — hedged copies must
// show up in SenderStats.DupBytes, one payload per extra frame.
func TestLoopbackHedgeBillsDupBytes(t *testing.T) {
	rep, err := RunLoopback(LoopbackConfig{
		Paths:     2,
		Scheduler: SchedHedge,
		Payload:   128,
		Packets:   2000,
		Health:    wireHealth(),
	})
	if err != nil {
		t.Fatalf("RunLoopback: %v", err)
	}
	if err := rep.Verify(); err != nil {
		t.Fatalf("invariants: %v", err)
	}
	extraFrames := rep.Frames - rep.Packets
	if extraFrames == 0 {
		t.Fatal("hedge sent no extra frames")
	}
	if want := extraFrames * 128; rep.Sender.DupBytes != want {
		t.Fatalf("dup bytes %d, want %d (one 128B payload per extra frame)",
			rep.Sender.DupBytes, want)
	}
}

// TestLoopbackDeadlineUnderDelayFaults: injected delay inflates RTT estimates
// past a tight deadline, so the scheduler must escalate — and stay within its
// byte budget while the dedup layer absorbs the copies.
func TestLoopbackDeadlineUnderDelayFaults(t *testing.T) {
	start := time.Now()
	rep, err := RunLoopback(LoopbackConfig{
		Paths:                2,
		Scheduler:            SchedDeadline,
		Deadline:             500 * time.Microsecond,
		DupBudgetBytesPerSec: 1 << 20,
		DupBudgetBurst:       64 << 10,
		Payload:              256,
		Packets:              4000,
		Health:               wireHealth(),
		Impairer: NewRandomImpairer(ImpairConfig{
			Path: -1, DelayFrac: 0.2, Delay: 2 * time.Millisecond, Seed: 11,
		}),
	})
	if err != nil {
		t.Fatalf("RunLoopback: %v", err)
	}
	if err := rep.Verify(); err != nil {
		t.Fatalf("invariants: %v", err)
	}
	elapsed := time.Since(start)
	ds := rep.Sender.Deadline
	if ds == nil || ds.AtRisk == 0 || ds.Duplicated == 0 {
		t.Fatalf("delay faults never drove escalation: %+v", ds)
	}
	if ds.BudgetSpent != rep.Sender.DupBytes {
		t.Fatalf("budget billed %d but sender duplicated %d bytes",
			ds.BudgetSpent, rep.Sender.DupBytes)
	}
	// Hard budget bound: burst + rate * wall-elapsed (generous wall window).
	allow := float64(64<<10) + float64(1<<20)*elapsed.Seconds()
	if float64(ds.BudgetSpent) > allow {
		t.Fatalf("spent %d bytes past the %f-byte allowance", ds.BudgetSpent, allow)
	}
}
