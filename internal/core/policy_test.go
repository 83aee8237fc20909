package core

import (
	"testing"

	"mpdp/internal/nf"
	"mpdp/internal/packet"
	"mpdp/internal/sim"
	"mpdp/internal/vnet"
	"mpdp/internal/xrand"
)

// passChain returns a fresh fixed-cost pass-through chain.
func passChain(cost sim.Duration) *nf.Chain {
	return nf.NewChain("pass", nf.Func{
		ElemName: "pass",
		Fn: func(now sim.Time, p *packet.Packet) nf.Result {
			return nf.Result{Verdict: packet.Pass, Cost: cost}
		},
	})
}

// testPaths builds n idle deterministic paths on a fresh simulator.
func testPaths(t testing.TB, n int, cost sim.Duration) (*sim.Simulator, []*PathState) {
	t.Helper()
	s := sim.New()
	paths := make([]*PathState, n)
	for i := 0; i < n; i++ {
		cfg := vnet.LaneConfig{QueueCap: 64, Chain: passChain(cost)}
		paths[i] = newPathState(vnet.NewLane(i, s, cfg, xrand.New(uint64(i+1)), nil), 0.2, -1)
	}
	return s, paths
}

func flowPkt(flow uint64) *packet.Packet {
	key := packet.FlowKey{
		SrcIP: packet.IP4(10, 0, byte(flow>>8), byte(flow)), DstIP: packet.IP4(10, 1, 0, 1),
		SrcPort: uint16(1000 + flow%60000), DstPort: 80, Proto: packet.ProtoUDP,
	}
	return &packet.Packet{
		Data: packet.BuildUDP(key, make([]byte, 64), packet.BuildOpts{}),
		Flow: key, FlowID: key.Hash64(),
	}
}

func TestSinglePathAlwaysZero(t *testing.T) {
	_, paths := testPaths(t, 4, 100)
	p := &SinglePath{}
	for i := uint64(0); i < 20; i++ {
		if got := p.Pick(0, flowPkt(i), paths); len(got) != 1 || got[0] != 0 {
			t.Fatalf("SinglePath picked %v", got)
		}
	}
}

func TestRSSHashStableAndSpread(t *testing.T) {
	_, paths := testPaths(t, 8, 100)
	p := &RSSHash{}
	seen := make(map[int]bool)
	for i := uint64(0); i < 200; i++ {
		pkt := flowPkt(i)
		a := p.Pick(0, pkt, paths)
		b := p.Pick(0, pkt, paths)
		if a[0] != b[0] {
			t.Fatal("RSS not flow-stable")
		}
		seen[a[0]] = true
	}
	if len(seen) < 6 {
		t.Fatalf("RSS used only %d/8 paths", len(seen))
	}
}

func TestRoundRobinCycles(t *testing.T) {
	_, paths := testPaths(t, 3, 100)
	rr := &RoundRobin{}
	want := []int{0, 1, 2, 0, 1, 2}
	for i, w := range want {
		if got := rr.Pick(0, flowPkt(uint64(i)), paths); got[0] != w {
			t.Fatalf("RR pick %d = %d, want %d", i, got[0], w)
		}
	}
}

func TestRandomPickInRange(t *testing.T) {
	_, paths := testPaths(t, 5, 100)
	rp := &RandomPick{Rng: xrand.New(1)}
	seen := make(map[int]bool)
	for i := 0; i < 200; i++ {
		got := rp.Pick(0, flowPkt(uint64(i)), paths)
		if got[0] < 0 || got[0] >= 5 {
			t.Fatalf("random pick out of range: %d", got[0])
		}
		seen[got[0]] = true
	}
	if len(seen) != 5 {
		t.Fatalf("random pick covered %d/5", len(seen))
	}
}

func TestJSQPicksShallowest(t *testing.T) {
	_, paths := testPaths(t, 3, 10000)
	// Load path 0 with 3 packets, path 1 with 1, leave 2 idle.
	for i := 0; i < 3; i++ {
		paths[0].Lane.Enqueue(flowPkt(uint64(i)))
	}
	paths[1].Lane.Enqueue(flowPkt(100))
	if got := (&JSQ{}).Pick(0, flowPkt(999), paths); got[0] != 2 {
		t.Fatalf("JSQ picked %d, want idle path 2", got[0])
	}
}

func TestPowerOfTwoPrefersShallower(t *testing.T) {
	_, paths := testPaths(t, 2, 10000)
	for i := 0; i < 5; i++ {
		paths[0].Lane.Enqueue(flowPkt(uint64(i)))
	}
	p2 := &PowerOfTwo{Rng: xrand.New(3)}
	// With 2 paths, po2 always compares both; must always pick path 1.
	for i := 0; i < 20; i++ {
		if got := p2.Pick(0, flowPkt(uint64(100+i)), paths); got[0] != 1 {
			t.Fatalf("po2 picked loaded path")
		}
	}
}

func TestPowerOfTwoSinglePath(t *testing.T) {
	_, paths := testPaths(t, 1, 100)
	p2 := &PowerOfTwo{Rng: xrand.New(3)}
	if got := p2.Pick(0, flowPkt(1), paths); got[0] != 0 {
		t.Fatal("po2 single-path broken")
	}
}

func TestFlowletSticksWithinGap(t *testing.T) {
	_, paths := testPaths(t, 4, 100)
	f := NewFlowlet(500 * sim.Microsecond)
	pkt := flowPkt(1)
	first := f.Pick(0, pkt, paths)[0]
	// Packets inside the gap stay put even if another path looks better.
	for i := 1; i <= 5; i++ {
		now := sim.Time(i) * 100 * sim.Microsecond
		if got := f.Pick(now, flowPkt(1), paths)[0]; got != first {
			t.Fatalf("flowlet moved mid-burst at %v", now)
		}
	}
}

func TestFlowletResteersAfterGap(t *testing.T) {
	s, paths := testPaths(t, 2, 10000)
	f := NewFlowlet(100 * sim.Microsecond)
	first := f.Pick(0, flowPkt(1), paths)[0]
	// Pile load onto the chosen path so the other becomes better.
	for i := 0; i < 10; i++ {
		paths[first].Lane.Enqueue(flowPkt(uint64(50 + i)))
	}
	_ = s
	// After an idle gap the flow must move.
	got := f.Pick(sim.Time(1)*sim.Millisecond, flowPkt(1), paths)[0]
	if got == first {
		t.Fatal("flowlet did not re-steer after idle gap")
	}
}

func TestFlowletDifferentFlowsIndependent(t *testing.T) {
	_, paths := testPaths(t, 4, 10000)
	f := NewFlowlet(sim.Second)
	a := f.Pick(0, flowPkt(1), paths)[0]
	// Load path a heavily; a *new* flow should go elsewhere.
	for i := 0; i < 10; i++ {
		paths[a].Lane.Enqueue(flowPkt(uint64(50 + i)))
	}
	b := f.Pick(0, flowPkt(2), paths)[0]
	if b == a {
		t.Fatal("new flow steered to the congested path")
	}
}

func TestRedundantPicksDistinct(t *testing.T) {
	_, paths := testPaths(t, 4, 100)
	r := &Redundant{K: 3}
	got := r.Pick(0, flowPkt(1), paths)
	if len(got) != 3 {
		t.Fatalf("dup count %d", len(got))
	}
	seen := make(map[int]bool)
	for _, i := range got {
		if seen[i] {
			t.Fatalf("duplicate path index %v", got)
		}
		seen[i] = true
	}
}

func TestRedundantClampsToPathCount(t *testing.T) {
	_, paths := testPaths(t, 2, 100)
	r := &Redundant{K: 5}
	if got := r.Pick(0, flowPkt(1), paths); len(got) != 2 {
		t.Fatalf("K not clamped: %v", got)
	}
	// K < 2 behaves as 2.
	r = &Redundant{K: 0}
	if got := r.Pick(0, flowPkt(1), paths); len(got) != 2 {
		t.Fatalf("K floor not applied: %v", got)
	}
}

func TestMPDPNoDuplicationWhenIdle(t *testing.T) {
	_, paths := testPaths(t, 4, 100)
	m := NewMPDP(DefaultMPDPConfig())
	for i := uint64(0); i < 50; i++ {
		if got := m.Pick(sim.Time(i)*sim.Millisecond, flowPkt(i), paths); len(got) != 1 {
			t.Fatalf("idle paths triggered duplication: %v", got)
		}
	}
	if m.DupFraction() != 0 {
		t.Fatalf("dup fraction %v on idle paths", m.DupFraction())
	}
}

// trainStraggler teaches a path's telemetry a 1µs mean service with
// occasional huge stragglers, making its p99 estimate far exceed its mean.
func trainStraggler(ps *PathState) {
	for i := 0; i < 200; i++ {
		if i%50 == 25 {
			ps.observe(0, 1000, 80_000) // straggler
		} else {
			ps.observe(0, 1000, 1200)
		}
	}
}

func TestMPDPDuplicatesOnUnpredictablePath(t *testing.T) {
	_, paths := testPaths(t, 2, 1000)
	cfg := DefaultMPDPConfig()
	cfg.RerouteThreshold = 0 // isolate the duplication mechanism
	m := NewMPDP(cfg)
	// Both paths show straggler history; both are idle (so the spare-
	// capacity gate passes and flowlet steering is indifferent).
	trainStraggler(paths[0])
	trainStraggler(paths[1])
	got := m.Pick(0, flowPkt(1), paths)
	if len(got) != 2 {
		t.Fatalf("straggler-prone path did not trigger duplication: %v", got)
	}
	if got[0] == got[1] {
		t.Fatal("duplicated to the same path")
	}
}

func TestMPDPNoDuplicationOntoBusyTwin(t *testing.T) {
	_, paths := testPaths(t, 2, 10_000)
	cfg := DefaultMPDPConfig()
	cfg.RerouteThreshold = 0
	m := NewMPDP(cfg)
	trainStraggler(paths[0])
	trainStraggler(paths[1])
	// Busy twin: duplication must not add load to a contested path.
	for i := 0; i < 5; i++ {
		paths[1].Lane.Enqueue(flowPkt(uint64(900 + i)))
	}
	// Steer the flow to path 0 first (idle), then ask again.
	m.flowlet.Steer(flowPkt(1).FlowID, 0, 0)
	if got := m.Pick(0, flowPkt(1), paths); len(got) != 1 {
		t.Fatalf("duplicated onto a busy twin: %v", got)
	}
}

func TestMPDPBudgetCapsDuplication(t *testing.T) {
	_, paths := testPaths(t, 2, 1000)
	cfg := DefaultMPDPConfig()
	cfg.RerouteThreshold = 0
	cfg.DupBudget = 0.10
	cfg.FlowletTimeout = 1 // force fresh steering each packet
	m := NewMPDP(cfg)
	trainStraggler(paths[0])
	trainStraggler(paths[1])
	for i := uint64(0); i < 1000; i++ {
		m.Pick(sim.Time(i)*sim.Microsecond, flowPkt(i), paths)
	}
	if f := m.DupFraction(); f > 0.11 {
		t.Fatalf("dup fraction %v exceeds 10%% budget", f)
	}
	if m.DupFraction() == 0 {
		t.Fatal("budget suppressed all duplication")
	}
}

func TestMPDPZeroBudgetNeverDuplicates(t *testing.T) {
	_, paths := testPaths(t, 2, 1000)
	cfg := DefaultMPDPConfig()
	cfg.DupBudget = 0
	cfg.RerouteThreshold = 0
	m := NewMPDP(cfg)
	trainStraggler(paths[0])
	trainStraggler(paths[1])
	for i := uint64(0); i < 100; i++ {
		if got := m.Pick(0, flowPkt(i), paths); len(got) != 1 {
			t.Fatal("zero budget duplicated")
		}
	}
}

func TestMPDPClassAwareOnlyDupsLatencySensitive(t *testing.T) {
	_, paths := testPaths(t, 2, 1000)
	cfg := DefaultMPDPConfig()
	cfg.RerouteThreshold = 0
	cfg.DupBudget = 1
	cfg.ClassAware = true
	cfg.FlowletTimeout = 1
	m := NewMPDP(cfg)
	trainStraggler(paths[0])
	trainStraggler(paths[1])
	// Unstamped packet (class default): no duplication.
	if got := m.Pick(0, flowPkt(1), paths); len(got) != 1 {
		t.Fatal("class-aware duplicated default-class packet")
	}
	// Stamp a packet latency-sensitive via the real classifier.
	cls := nf.PresetClassifier()
	pkt := flowPkt(2) // dst port 80 -> latency-sensitive
	cls.Process(0, pkt)
	if got := m.Pick(0, pkt, paths); len(got) != 2 {
		t.Fatal("class-aware did not duplicate latency-sensitive packet")
	}
}

func TestMPDPReroutesAwayFromDegradedPath(t *testing.T) {
	_, paths := testPaths(t, 2, 10_000)
	cfg := DefaultMPDPConfig()
	cfg.DupBudget = 0
	m := NewMPDP(cfg)
	for i := range paths {
		for j := 0; j < 50; j++ {
			paths[i].observe(0, 1000, 1200)
		}
	}
	// Establish a flowlet on path 0, then degrade path 0.
	m.flowlet.Steer(flowPkt(1).FlowID, 0, 0)
	for i := 0; i < 10; i++ {
		paths[0].Lane.Enqueue(flowPkt(uint64(700 + i)))
	}
	got := m.Pick(10, flowPkt(1), paths) // inside the flowlet gap
	if got[0] != 1 {
		t.Fatalf("did not reroute away from degraded path: %v", got)
	}
	if m.Rerouted() != 1 {
		t.Fatalf("reroute counter %d", m.Rerouted())
	}
}

func TestPathStateTelemetry(t *testing.T) {
	_, paths := testPaths(t, 1, 100)
	ps := paths[0]
	if ps.MeanService() != sim.Microsecond {
		t.Fatalf("default service estimate %v", ps.MeanService())
	}
	ps.observe(0, 200, 500)
	ps.observe(0, 400, 700)
	if ps.MeanService() <= 0 || ps.MeanLatency() <= 0 {
		t.Fatal("telemetry not updating")
	}
	if ps.Completed() != 2 {
		t.Fatalf("completed %d", ps.Completed())
	}
	for i := 0; i < 100; i++ {
		ps.observe(0, 200, 500)
	}
	if p99 := ps.P99Latency(); p99 < 400 || p99 > 800 {
		t.Fatalf("p99 estimate %v far from 500", p99)
	}
}

func TestBestScoreTiesDeterministic(t *testing.T) {
	_, paths := testPaths(t, 4, 100)
	if bestScore(paths) != 0 {
		t.Fatal("tie not broken to lowest index")
	}
	if secondBest(paths, 0) != 1 {
		t.Fatal("secondBest tie not deterministic")
	}
	if secondBest(paths[:1], 0) != 0 {
		t.Fatal("secondBest with one path should return first")
	}
}

func TestLetFlowStickyThenRandom(t *testing.T) {
	_, paths := testPaths(t, 4, 100)
	lf := NewLetFlow(100*sim.Microsecond, xrand.New(5))
	first := lf.Pick(0, flowPkt(1), paths)[0]
	for i := 1; i <= 3; i++ {
		if got := lf.Pick(sim.Time(i)*10*sim.Microsecond, flowPkt(1), paths)[0]; got != first {
			t.Fatal("letflow moved mid-flowlet")
		}
	}
	// After many idle gaps, the random re-steer must eventually move.
	moved := false
	now := sim.Time(0)
	for i := 0; i < 50; i++ {
		now += sim.Millisecond
		if lf.Pick(now, flowPkt(1), paths)[0] != first {
			moved = true
			break
		}
	}
	if !moved {
		t.Fatal("letflow never re-steered across 50 idle gaps")
	}
}

func TestLetFlowValidatesArgs(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("nil rng accepted")
		}
	}()
	NewLetFlow(1, nil)
}

func TestLeastLatencyPicksFastPath(t *testing.T) {
	_, paths := testPaths(t, 3, 100)
	for i := range paths {
		for j := 0; j < 20; j++ {
			paths[i].observe(0, 1000, sim.Duration(1000*(i+1))) // path 0 fastest
		}
	}
	if got := (&LeastLatency{}).Pick(0, flowPkt(1), paths); got[0] != 0 {
		t.Fatalf("least-lat picked %d", got[0])
	}
}

func TestWeightedRRProportionalToRate(t *testing.T) {
	_, paths := testPaths(t, 2, 100)
	// Path 0 twice as fast as path 1.
	for j := 0; j < 50; j++ {
		paths[0].observe(0, 1000, 1000)
		paths[1].observe(0, 2000, 2000)
	}
	w := &WeightedRR{}
	counts := [2]int{}
	for i := uint64(0); i < 3000; i++ {
		counts[w.Pick(0, flowPkt(i), paths)[0]]++
	}
	ratio := float64(counts[0]) / float64(counts[1])
	if ratio < 1.6 || ratio > 2.4 {
		t.Fatalf("weighted split ratio %.2f (counts %v), want ~2", ratio, counts)
	}
}

func BenchmarkFlowletPick(b *testing.B) {
	_, paths := testPaths(b, 4, 100)
	f := NewFlowlet(500 * sim.Microsecond)
	pkt := flowPkt(1)
	f.Pick(0, pkt, paths) // warm-up: flow entry + scratch allocate once here
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = f.Pick(sim.Time(i), pkt, paths)
	}
}

func BenchmarkMPDPPick(b *testing.B) {
	_, paths := testPaths(b, 4, 100)
	m := NewMPDP(DefaultMPDPConfig())
	pkt := flowPkt(1)
	m.Pick(0, pkt, paths) // warm-up: flow entry + scratch allocate once here
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = m.Pick(sim.Time(i), pkt, paths)
	}
}
