package core

import (
	"testing"

	"mpdp/internal/nf"
	"mpdp/internal/packet"
	"mpdp/internal/sim"
	"mpdp/internal/vnet"
)

// fastHealth returns health parameters scaled down to µs test horizons.
func fastHealth() HealthConfig {
	return HealthConfig{
		SuspectTimeout:    20 * sim.Microsecond,
		QuarantineBackoff: 50 * sim.Microsecond,
		CanaryEvery:       4,
		ProbeSuccesses:    3,
		MaintainEvery:     8,
	}
}

// healthInject offers pkts packets from nFlows flows at fixed spacing and
// runs the simulator dry, flushing at the end.
func healthInject(dp *DataPlane, pkts, nFlows int, spacing sim.Duration) {
	s := dp.Sim()
	for i := 0; i < pkts; i++ {
		p := flowPkt(uint64(i % nFlows))
		s.At(sim.Time(i)*spacing, func() { dp.Ingress(p) })
	}
	s.Run()
	dp.Flush()
	s.Run()
}

// conservationOK asserts offered = delivered + consumed + lost.
func conservationOK(t *testing.T, dp *DataPlane, delivered int) {
	t.Helper()
	m := dp.Metrics()
	if uint64(delivered) != m.Delivered() {
		t.Fatalf("sink saw %d, metrics say %d", delivered, m.Delivered())
	}
	if m.Offered() != m.Delivered()+m.Consumed()+m.TotalLost() {
		t.Fatalf("conservation: offered=%d delivered=%d consumed=%d lost=%d",
			m.Offered(), m.Delivered(), m.Consumed(), m.TotalLost())
	}
}

func TestFailStopQuarantinesAndRecovers(t *testing.T) {
	s := sim.New()
	cfg := engineConfig(4, &JSQ{})
	cfg.Health = fastHealth()
	delivered := 0
	dp := New(s, cfg, func(p *packet.Packet) { delivered++ })

	s.At(100*sim.Microsecond, func() { dp.FailPath(0, vnet.LaneFailStop) })
	s.At(300*sim.Microsecond, func() { dp.RestorePath(0) })
	healthInject(dp, 2000, 8, 500*sim.Nanosecond)

	m := dp.Metrics()
	if got := dp.Paths()[0].Health(); got != HealthUp {
		t.Fatalf("path 0 health %v after repair + probing, want up", got)
	}
	if m.Quarantines() == 0 {
		t.Fatal("fail-stop never quarantined the path")
	}
	if m.Canaries() == 0 {
		t.Fatal("probing sent no canaries")
	}
	// Only packets caught inside lane 0 at failure time may be lost; the
	// fail-stop is announced, so everything after it must be re-steered.
	if lost := m.TotalLost(); lost > 5 {
		t.Fatalf("lost %d packets across an announced fail-stop", lost)
	}
	conservationOK(t, dp, delivered)
	// The repaired path must actually carry traffic again.
	if served := dp.Paths()[0].Lane.Stats().Served; served == 0 {
		t.Fatal("repaired path never served again")
	}
}

func TestBlackholeWatchdogDetects(t *testing.T) {
	s := sim.New()
	cfg := engineConfig(4, &RoundRobin{})
	cfg.Health = fastHealth()
	delivered := 0
	dp := New(s, cfg, func(p *packet.Packet) { delivered++ })

	s.At(100*sim.Microsecond, func() { dp.FailPath(0, vnet.LaneBlackhole) })
	healthInject(dp, 2000, 8, 500*sim.Nanosecond)

	m := dp.Metrics()
	if m.Quarantines() == 0 {
		t.Fatal("watchdog never quarantined the blackholed path")
	}
	if got := dp.Paths()[0].Health(); got == HealthUp || got == HealthDegraded {
		t.Fatalf("path 0 health %v with a permanent blackhole, want quarantined/probing", got)
	}
	// Packets swallowed before detection (and mirrored canaries) are lost;
	// it must be a small, bounded prefix — not a quarter of the traffic.
	lost := m.TotalLost()
	if lost == 0 {
		t.Fatal("a blackhole cannot be loss-free: in-flight packets were swallowed")
	}
	if lost > 100 {
		t.Fatalf("lost %d packets: watchdog detection too slow", lost)
	}
	conservationOK(t, dp, delivered)
}

func TestBlackholeRepairRecoversViaCanaries(t *testing.T) {
	s := sim.New()
	cfg := engineConfig(4, &JSQ{})
	cfg.Health = fastHealth()
	delivered := 0
	dp := New(s, cfg, func(p *packet.Packet) { delivered++ })

	s.At(100*sim.Microsecond, func() { dp.FailPath(0, vnet.LaneBlackhole) })
	s.At(250*sim.Microsecond, func() { dp.RestorePath(0) })
	healthInject(dp, 3000, 8, 500*sim.Nanosecond)

	if got := dp.Paths()[0].Health(); got != HealthUp {
		t.Fatalf("path 0 health %v after repair, want up (canaries should have proven it)", got)
	}
	// Canaries are mirrored copies: probing itself must not lose packets.
	// Only the pre-detection swallow window may.
	if lost := dp.Metrics().TotalLost(); lost > 100 {
		t.Fatalf("lost %d packets", lost)
	}
	conservationOK(t, dp, delivered)
}

// dropChain drops every packet (verdict Drop, like a deny-all ACL).
func dropChain(cost sim.Duration) *nf.Chain {
	return nf.NewChain("drop", nf.Func{
		ElemName: "drop",
		Fn: func(now sim.Time, p *packet.Packet) nf.Result {
			p.Dropped = packet.DropPolicy
			return nf.Result{Verdict: packet.Drop, Cost: cost}
		},
	})
}

func TestAnomalousDropFractionQuarantines(t *testing.T) {
	s := sim.New()
	cfg := engineConfig(4, &RoundRobin{})
	cfg.Health = fastHealth()
	// Path 0's NF replica went insane: it drops everything. Its peers are
	// clean, so its drop fraction is anomalous and it must be isolated.
	cfg.ChainFactory = func(i int) *nf.Chain {
		if i == 0 {
			return dropChain(1 * sim.Microsecond)
		}
		return passChain(1 * sim.Microsecond)
	}
	delivered := 0
	dp := New(s, cfg, func(p *packet.Packet) { delivered++ })
	healthInject(dp, 2000, 8, 500*sim.Nanosecond)

	if got := dp.Paths()[0].Health(); got == HealthUp || got == HealthDegraded {
		t.Fatalf("path 0 health %v with a 100%% dropping chain, want quarantined/probing", got)
	}
	for i := 1; i < 4; i++ {
		if got := dp.Paths()[i].Health(); got != HealthUp {
			t.Fatalf("clean path %d health %v, want up", i, got)
		}
	}
	conservationOK(t, dp, delivered)
}

func TestUniformDropsDoNotQuarantine(t *testing.T) {
	s := sim.New()
	cfg := engineConfig(4, &RoundRobin{})
	cfg.Health = fastHealth()
	// Every replica drops every third packet — a uniform ACL, not a sick
	// path. Nobody should be punished for it.
	cfg.ChainFactory = func(i int) *nf.Chain {
		n := 0
		return nf.NewChain("acl", nf.Func{
			ElemName: "acl",
			Fn: func(now sim.Time, p *packet.Packet) nf.Result {
				n++
				if n%3 == 0 {
					p.Dropped = packet.DropPolicy
					return nf.Result{Verdict: packet.Drop, Cost: 1 * sim.Microsecond}
				}
				return nf.Result{Verdict: packet.Pass, Cost: 1 * sim.Microsecond}
			},
		})
	}
	delivered := 0
	dp := New(s, cfg, func(p *packet.Packet) { delivered++ })
	healthInject(dp, 2000, 8, 500*sim.Nanosecond)

	for i := 0; i < 4; i++ {
		if got := dp.Paths()[i].Health(); got != HealthUp {
			t.Fatalf("path %d health %v under uniform drops, want up", i, got)
		}
	}
	if dp.Metrics().Quarantines() != 0 {
		t.Fatalf("%d quarantines under a uniform drop rate", dp.Metrics().Quarantines())
	}
	conservationOK(t, dp, delivered)
}

func TestHealthDisabledIgnoresFailures(t *testing.T) {
	s := sim.New()
	cfg := engineConfig(4, &RoundRobin{})
	cfg.Health = HealthConfig{Disable: true}
	delivered := 0
	dp := New(s, cfg, func(p *packet.Packet) { delivered++ })

	s.At(100*sim.Microsecond, func() { dp.FailPath(0, vnet.LaneFailStop) })
	healthInject(dp, 2000, 8, 500*sim.Nanosecond)

	m := dp.Metrics()
	// Without health, the scheduler keeps feeding the dead path and about a
	// quarter of post-failure traffic dies there — the ablation baseline.
	if m.Drops(packet.DropPathFailed) < 200 {
		t.Fatalf("only %d path-failed drops; disabled health should keep sending", m.Drops(packet.DropPathFailed))
	}
	if got := dp.Paths()[0].Health(); got != HealthUp {
		t.Fatalf("disabled health machinery changed state to %v", got)
	}
	if m.Quarantines() != 0 || m.Canaries() != 0 {
		t.Fatal("disabled health machinery still acted")
	}
	conservationOK(t, dp, delivered)
}

func TestHealthWithDuplicationConserves(t *testing.T) {
	// Redundant + a mid-run fail-stop: dup groups must resolve exactly once
	// per packet even when one copy dies on a failing lane.
	s := sim.New()
	cfg := engineConfig(4, &Redundant{K: 2})
	cfg.Health = fastHealth()
	delivered := 0
	dp := New(s, cfg, func(p *packet.Packet) { delivered++ })

	s.At(100*sim.Microsecond, func() { dp.FailPath(1, vnet.LaneFailStop) })
	s.At(400*sim.Microsecond, func() { dp.RestorePath(1) })
	healthInject(dp, 2000, 8, 600*sim.Nanosecond)

	m := dp.Metrics()
	// Duplication makes single-copy losses nearly impossible: the sibling
	// of every drained copy survives on a healthy lane.
	if lost := m.TotalLost(); lost > 2 {
		t.Fatalf("lost %d duplicated packets across a fail-stop", lost)
	}
	conservationOK(t, dp, delivered)
}
