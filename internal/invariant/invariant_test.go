package invariant

import (
	"strings"
	"testing"

	"mpdp/internal/core"
	"mpdp/internal/nf"
	"mpdp/internal/packet"
	"mpdp/internal/sim"
	"mpdp/internal/vnet"
)

// mk builds a packet with consistent, monotone stage timestamps starting at t0.
func mk(id, flow, seq uint64, t0 sim.Time) *packet.Packet {
	return &packet.Packet{
		ID: id, OrigID: id, FlowID: flow, Seq: seq,
		Ingress: t0, Enqueued: t0 + 1, ServiceAt: t0 + 2, Done: t0 + 3, Delivered: t0 + 4,
	}
}

// idleChecker attaches a checker to a data plane that never runs, so the
// per-event checks can be driven by hand.
func idleChecker(t *testing.T, opts Options) *Checker {
	t.Helper()
	s := sim.New()
	dp := core.New(s, core.Config{
		NumPaths:     2,
		ChainFactory: func(i int) *nf.Chain { return passChain() },
		Policy:       &core.JSQ{},
		Seed:         1,
	}, func(p *packet.Packet) {})
	return Attach(dp, opts)
}

func passChain() *nf.Chain {
	return nf.NewChain("pass", nf.Func{
		ElemName: "pass",
		Fn: func(now sim.Time, p *packet.Packet) nf.Result {
			return nf.Result{Verdict: packet.Pass, Cost: 1 * sim.Microsecond}
		},
	})
}

func wantViolation(t *testing.T, c *Checker, substr string) {
	t.Helper()
	msgs, n := c.Violations()
	if n == 0 {
		t.Fatalf("no violation recorded, want one containing %q", substr)
	}
	for _, m := range msgs {
		if strings.Contains(m, substr) {
			return
		}
	}
	t.Fatalf("no violation contains %q; got %v", substr, msgs)
}

func TestCatchesDoubleDelivery(t *testing.T) {
	c := idleChecker(t, Options{})
	p := mk(1, 7, 0, 100)
	c.PacketIngress(p)
	c.PacketDelivered(p)
	if _, n := c.Violations(); n != 0 {
		t.Fatalf("clean deliver flagged: %v", n)
	}
	c.PacketDelivered(p)
	wantViolation(t, c, "after already being delivered")
}

func TestCatchesDeliveryWithoutIngress(t *testing.T) {
	c := idleChecker(t, Options{})
	c.PacketDelivered(mk(99, 7, 0, 100))
	wantViolation(t, c, "without ingress")
}

func TestCatchesOutOfOrderDelivery(t *testing.T) {
	c := idleChecker(t, Options{CheckOrder: true})
	a := mk(1, 7, 0, 100)
	b := mk(2, 7, 1, 105)
	c.PacketIngress(a)
	c.PacketIngress(b)
	c.PacketDelivered(b)
	c.PacketDelivered(a) // seq 0 after seq 1
	wantViolation(t, c, "delivered seq")

	// Without CheckOrder the same sequence is legal (DisableReorder mode).
	c2 := idleChecker(t, Options{})
	a2, b2 := mk(1, 7, 0, 100), mk(2, 7, 1, 105)
	c2.PacketIngress(a2)
	c2.PacketIngress(b2)
	c2.PacketDelivered(b2)
	a2.Delivered = 110 // keep global delivery time monotone
	c2.PacketDelivered(a2)
	if _, n := c2.Violations(); n != 0 {
		t.Fatalf("order flagged with CheckOrder off: %d violations", n)
	}
}

func TestCatchesNonMonotoneTimestamps(t *testing.T) {
	c := idleChecker(t, Options{})
	p := mk(1, 7, 0, 100)
	p.Done = p.Delivered + 50 // finished service after delivery?
	c.PacketIngress(p)
	c.PacketDelivered(p)
	wantViolation(t, c, "timestamps not monotone")
}

func TestCatchesLostWithoutReason(t *testing.T) {
	c := idleChecker(t, Options{})
	p := mk(1, 7, 0, 100)
	c.PacketIngress(p)
	c.PacketLost(p, packet.NotDropped)
	wantViolation(t, c, "no drop reason")
}

func TestCatchesLostAfterDelivered(t *testing.T) {
	c := idleChecker(t, Options{})
	p := mk(1, 7, 0, 100)
	c.PacketIngress(p)
	c.PacketDelivered(p)
	c.PacketLost(p, packet.DropQueueFull)
	wantViolation(t, c, "lost after already being delivered")
}

func TestOutstandingCounts(t *testing.T) {
	c := idleChecker(t, Options{})
	for i := uint64(1); i <= 3; i++ {
		c.PacketIngress(mk(i, 7, i-1, sim.Time(100*i)))
	}
	if got := c.Outstanding(); got != 3 {
		t.Fatalf("Outstanding() = %d, want 3", got)
	}
	c.PacketDelivered(mk(1, 7, 0, 100))
	if got := c.Outstanding(); got != 2 {
		t.Fatalf("Outstanding() = %d, want 2", got)
	}
}

// engineRun drives real traffic through an engine with the checker attached.
func engineRun(t *testing.T, policy core.Policy, pkts int, fail bool) (*core.DataPlane, *Checker) {
	t.Helper()
	s := sim.New()
	dp := core.New(s, core.Config{
		NumPaths:     4,
		ChainFactory: func(i int) *nf.Chain { return passChain() },
		Policy:       policy,
		QueueCap:     128,
		Seed:         21,
	}, func(p *packet.Packet) {})
	chk := Attach(dp, Options{CheckOrder: true})
	if fail {
		s.At(sim.Time(200*sim.Microsecond), func() { dp.FailPath(0, vnet.LaneBlackhole) })
	}
	for i := 0; i < pkts; i++ {
		key := packet.FlowKey{
			SrcIP: packet.IP4(10, 0, 0, byte(i%5)), DstIP: packet.IP4(10, 1, 0, 1),
			SrcPort: uint16(1000 + i%5), DstPort: 80, Proto: packet.ProtoUDP,
		}
		p := &packet.Packet{
			Data: packet.BuildUDP(key, make([]byte, 64), packet.BuildOpts{}),
			Flow: key, FlowID: key.Hash64(),
		}
		s.At(sim.Time(i)*sim.Time(700*sim.Nanosecond), func() { dp.Ingress(p) })
	}
	s.Run()
	dp.Flush()
	s.Run()
	return dp, chk
}

func TestCleanEngineRunPasses(t *testing.T) {
	for _, pol := range []core.Policy{&core.JSQ{}, &core.RoundRobin{}, &core.Redundant{K: 2}} {
		_, chk := engineRun(t, pol, 1500, false)
		if err := chk.Finish(true); err != nil {
			t.Fatalf("%T: %v", pol, err)
		}
	}
}

func TestFaultedEngineRunPasses(t *testing.T) {
	// A blackhole mid-run: packets are lost, but every loss must still be
	// accounted, and conservation must hold at drain.
	_, chk := engineRun(t, &core.JSQ{}, 1500, true)
	if err := chk.Finish(true); err != nil {
		t.Fatal(err)
	}
}

func TestFinishCatchesPhantomIngress(t *testing.T) {
	_, chk := engineRun(t, &core.JSQ{}, 200, false)
	// An ingress the engine never saw: offered-vs-observed must mismatch,
	// and the packet stays outstanding at drain.
	chk.PacketIngress(mk(1<<40, 9, 0, 1<<40))
	err := chk.Finish(true)
	if err == nil {
		t.Fatal("phantom ingress not caught")
	}
	if !strings.Contains(err.Error(), "outstanding at drain") {
		t.Fatalf("error misses conservation: %v", err)
	}
}
