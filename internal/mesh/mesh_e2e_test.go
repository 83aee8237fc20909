package mesh

import (
	"testing"
	"time"

	"mpdp/internal/sentinel"
	"mpdp/internal/transport"
)

// TestMeshSteadyState: a short clean 3-node run — every send resolves,
// the stream invariant holds, and no handoff machinery fires.
func TestMeshSteadyState(t *testing.T) {
	rep, err := RunMesh(MeshConfig{
		Nodes:          3,
		Flows:          16,
		Packets:        4000,
		GossipInterval: 10 * time.Millisecond,
		DrainNode:      -1,
	})
	if err != nil {
		t.Fatalf("RunMesh: %v", err)
	}
	if err := rep.Verify(); err != nil {
		t.Fatal(err)
	}
	if rep.Delivered == 0 {
		t.Fatal("nothing delivered")
	}
	if rep.Delivered+rep.Gaps < rep.Packets*99/100 {
		t.Fatalf("resolved %d of %d sends on a clean loopback", rep.Delivered+rep.Gaps, rep.Packets)
	}
	if rep.Resteers != 0 || rep.HandoffFlows != 0 {
		t.Fatalf("steady state migrated flows: resteers=%d handoffs=%d", rep.Resteers, rep.HandoffFlows)
	}
	if rep.EpochEnd != 1 {
		t.Fatalf("epoch %d after a membership-stable run, want 1", rep.EpochEnd)
	}
	t.Logf("steady: packets=%d delivered=%d gaps=%d p99=%v",
		rep.Packets, rep.Delivered, rep.Gaps, time.Duration(rep.Latency.P99))
}

// TestMeshDrainHandoffE25 is experiment E25 in-process: 4 nodes, one
// drained mid-run while a burst impairment batters one path — the
// draining node's flows must migrate to their new HRW owners with zero
// stream-invariant violations, no handoff-record timeouts, and a bounded
// tail penalty.
func TestMeshDrainHandoffE25(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-second wire run")
	}
	const duration = 2 * time.Second
	imp := transport.NewBurstImpairer(transport.BurstImpairConfig{
		Path: 1, Period: 512, Length: 96, Delay: 3 * time.Millisecond,
	})
	rep, err := RunMesh(MeshConfig{
		Nodes:          4,
		Flows:          32,
		Duration:       duration,
		GossipInterval: 10 * time.Millisecond,
		DrainNode:      1,
		DrainAfter:     0.4,
		// This is a graceful drain: promotion is the dead-owner escape
		// hatch and must not fire here. On a starved host the victim's
		// record transfer can lawfully take longer than the production
		// default (500ms), so give the records a timeout no graceful
		// drain can trip — TestPromotionThenLateRecord covers the
		// promotion machinery itself.
		HandoffTimeout: 10 * time.Second,
		Impairer:       imp,
		SLO:            "p99<20ms,avail>99",
		Sentinel: &sentinel.Config{
			P99ThresholdNanos: (8 * time.Millisecond).Nanoseconds(),
			SuspectTicks:      1,
		},
	})
	if err != nil {
		t.Fatalf("RunMesh: %v", err)
	}
	if err := rep.Verify(); err != nil {
		t.Fatal(err) // THE acceptance bar: at-most-once + in-order across the handoff
	}
	if rep.Resteers == 0 {
		t.Fatal("no flows re-steered: the drain never reached the client")
	}
	if rep.HandoffFlows == 0 {
		t.Fatal("no flow records transferred: the drain handed nothing off")
	}
	// Timeouts before moved-seqs: a spurious promotion would deliver
	// through fresh (non-migrated) entries and zero MovedSeqs as a side
	// effect, and the timeout is the actual diagnosis.
	if rep.HandoffTimeouts != 0 {
		t.Fatalf("%d pending flows promoted without their handoff record", rep.HandoffTimeouts)
	}
	if rep.MovedSeqs == 0 {
		t.Fatal("no deliveries on migrated flows: handoff state never went live")
	}
	if rep.HandoffUnacked != 0 {
		t.Fatalf("%d handoff records never acked", rep.HandoffUnacked)
	}
	if rep.EpochEnd < 2 {
		t.Fatalf("epoch %d after a departure, want >= 2", rep.EpochEnd)
	}
	drained := rep.PerNode[1]
	if drained.HandoffFlowsOut == 0 {
		t.Fatalf("drained node exported no flows: %+v", drained)
	}
	// Bounded tail inflation: a drain stalls the victim's flows by design
	// (arrivals park behind the announce and surface when the export
	// lands), so the post-drain p99 may grow — but only by the drain's
	// own length, never to run-length time: a wedged handoff would show
	// up as a tail rivaling Elapsed. The envelope only means something
	// when the run executed at roughly its configured pace: under
	// whole-tree `go test ./...` on a loaded host this binary competes
	// with every other package for CPU and multi-second scheduler stalls
	// are host noise, not a handoff defect. The correctness assertions
	// above stay unconditional.
	if rep.Elapsed > 4*duration {
		t.Logf("host overloaded (%v elapsed for a %v run); skipping the tail-envelope check", rep.Elapsed, duration)
	} else if rep.P99PreDrainNanos > 0 {
		bound := 25 * rep.P99PreDrainNanos
		if floor := (150 * time.Millisecond).Nanoseconds(); bound < floor {
			bound = floor
		}
		bound += rep.DrainNanos
		if rep.Latency.P99 > bound {
			t.Fatalf("p99 inflated %v → %v, past the %v bound (drain %v, run elapsed %v)",
				time.Duration(rep.P99PreDrainNanos), time.Duration(rep.Latency.P99), time.Duration(bound),
				time.Duration(rep.DrainNanos), rep.Elapsed)
		}
	}
	t.Logf("E25: packets=%d delivered=%d resteers=%d handoff_flows=%d moved_seqs=%d stale_steers=%d forwarded=%d episodes=%d p99 %v→%v",
		rep.Packets, rep.Delivered, rep.Resteers, rep.HandoffFlows, rep.MovedSeqs,
		rep.StaleSteers, rep.Forwarded, len(rep.Episodes),
		time.Duration(rep.P99PreDrainNanos), time.Duration(rep.Latency.P99))
}

// TestMeshDrainToSingleSurvivor: drain one of two nodes — every flow
// migrates to the lone survivor and the invariants still hold.
func TestMeshDrainToSingleSurvivor(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-second wire run")
	}
	rep, err := RunMesh(MeshConfig{
		Nodes:          2,
		Flows:          8,
		Duration:       1200 * time.Millisecond,
		GossipInterval: 10 * time.Millisecond,
		HandoffTimeout: 10 * time.Second, // graceful drain; see E25
		DrainNode:      0,
		DrainAfter:     0.5,
	})
	if err != nil {
		t.Fatalf("RunMesh: %v", err)
	}
	if err := rep.Verify(); err != nil {
		t.Fatal(err)
	}
	if rep.Resteers == 0 || rep.MovedSeqs == 0 {
		t.Fatalf("no migration to the survivor: resteers=%d moved=%d", rep.Resteers, rep.MovedSeqs)
	}
	surv := rep.PerNode[1]
	if surv.HandoffFlowsIn == 0 {
		t.Fatalf("survivor installed no flow records: %+v", surv)
	}
}
