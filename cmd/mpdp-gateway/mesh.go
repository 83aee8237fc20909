package main

import (
	"fmt"
	"strings"
	"time"

	"mpdp/internal/live"
	"mpdp/internal/mesh"
	"mpdp/internal/sentinel"
	"mpdp/internal/shutdown"
	"mpdp/internal/transport"
)

// meshCfg is the -mesh flag family, resolved against the shared transport
// flags (paths, scheduler, payload, flows, impairer, ...).
type meshCfg struct {
	nodes        int
	pathsPerNode int
	sched        transport.SchedulerName
	hedgeK       int
	deadline     time.Duration
	deadlineMarg float64
	dupBudgetBps float64
	packets      uint64
	duration     time.Duration
	payload      int
	flows        int
	reorderT     time.Duration
	gossip       time.Duration
	handoffT     time.Duration
	drainSettle  time.Duration
	drainNode    int
	drainAfter   float64
	sloSpec      string
	impairer     transport.Impairer
	reg          *live.Registry
	jsonOut      bool

	sentinelOn  bool
	sentinelP99 time.Duration
	sentinelCfg sentinelCfg
}

// runMesh drives the hermetic in-process multi-gateway mesh: N nodes plus
// one steering client over loopback UDP, an optional mid-run graceful
// drain, and one shared stream invariant across the ownership change. The
// first SIGINT stops the send loop through the shutdown coordinator's
// ordered drain callbacks; the run then settles and prints its report —
// an interrupted mesh run is still a measurement.
func runMesh(c meshCfg) {
	stopSend := make(chan struct{})
	shutdown.OnStop("stop-mesh-send", func() { close(stopSend) })

	var sentCfg *sentinel.Config
	if c.sentinelOn {
		sentCfg = &sentinel.Config{
			P99ThresholdNanos: c.sentinelP99.Nanoseconds(),
			SuspectTicks:      c.sentinelCfg.suspect,
			ClearTicks:        c.sentinelCfg.clear,
			CooldownTicks:     c.sentinelCfg.cooldown,
		}
	}

	rep, err := mesh.RunMesh(mesh.MeshConfig{
		Nodes:                c.nodes,
		PathsPerNode:         c.pathsPerNode,
		Scheduler:            c.sched,
		HedgeK:               c.hedgeK,
		Deadline:             c.deadline,
		DeadlineMargin:       c.deadlineMarg,
		DupBudgetBytesPerSec: c.dupBudgetBps,
		Flows:                c.flows,
		Payload:              c.payload,
		Packets:              c.packets,
		Duration:             c.duration,
		Health:               wireHealth(),
		NodeHealth:           wireHealth(),
		Impairer:             c.impairer,
		ReorderTimeout:       c.reorderT,
		GossipInterval:       c.gossip,
		HandoffTimeout:       c.handoffT,
		DrainSettle:          c.drainSettle,
		DrainNode:            c.drainNode,
		DrainAfter:           c.drainAfter,
		SLO:                  c.sloSpec,
		Metrics:              c.reg,
		Sentinel:             sentCfg,
		SentinelEvery:        c.sentinelCfg.tick,
		Stop:                 stopSend,
	})
	if err != nil {
		fatalf("mesh: %v", err)
	}
	if c.jsonOut {
		printJSON(rep)
	} else {
		printMeshReport(rep)
	}
	if err := rep.Verify(); err != nil {
		fatalf("%v", err)
	}
}

// printMeshReport renders the mesh run in the gateway's usual text form:
// throughput, steering and handoff accounting, tail inflation across the
// drain, per-node rows, and the invariant verdict last.
func printMeshReport(rep *mesh.MeshReport) {
	fmt.Printf("mesh: %d nodes, %d packets in %v (%.0f pps), %d send errors\n",
		rep.Nodes, rep.Packets, rep.Elapsed.Round(time.Millisecond),
		float64(rep.Packets)/rep.Elapsed.Seconds(), rep.SendErrs)
	fmt.Printf("delivered %d in order; %d gaps, %d duplicate drops, epoch %d at exit\n",
		rep.Delivered, rep.Gaps, rep.DupDrops, rep.EpochEnd)
	fmt.Printf("steering: %d flows re-steered, %d stale steers, %d frames forwarded\n",
		rep.Resteers, rep.StaleSteers, rep.Forwarded)
	if rep.HandoffRecords > 0 || rep.HandoffFlows > 0 {
		fmt.Printf("handoff: %d flow records in %d transfers, %d timeouts, %d unacked, %d overflow drops; %d deliveries on migrated flows\n",
			rep.HandoffFlows, rep.HandoffRecords, rep.HandoffTimeouts,
			rep.HandoffUnacked, rep.OverflowDrops, rep.MovedSeqs)
	}
	if total := rep.DeadlineHits + rep.DeadlineMisses; total > 0 {
		fmt.Printf("deadline: hit=%d miss=%d hit_rate=%.2f%%\n",
			rep.DeadlineHits, rep.DeadlineMisses,
			100*float64(rep.DeadlineHits)/float64(total))
	}
	if rep.P99PreDrainNanos > 0 {
		fmt.Printf("e2e p99: %.1fus pre-drain -> %.1fus overall\n",
			float64(rep.P99PreDrainNanos)/1000, float64(rep.Latency.P99)/1000)
	} else {
		fmt.Printf("e2e p99: %.1fus\n", float64(rep.Latency.P99)/1000)
	}
	for _, ep := range rep.Episodes {
		fmt.Printf("sentinel episode: %d ticks, peak p99 %.1fus (%s)\n",
			ep.Ticks, float64(ep.PeakP99)/1000,
			strings.Join(sentinel.ReasonNames(ep.Reason), "+"))
	}
	for _, n := range rep.PerNode {
		fmt.Printf("  node %d: delivered %d, gaps %d, dups %d, handed off %d flows (out) / %d (in), %d forwards\n",
			n.ID, n.Delivered, n.Gaps, n.DupSuppressed,
			n.HandoffFlowsOut, n.HandoffFlowsIn, n.ForwardedOut)
	}
	if rep.NViolations != 0 {
		fmt.Printf("INVARIANT VIOLATIONS: %d\n", rep.NViolations)
		for _, v := range rep.Violations {
			fmt.Printf("  - %s\n", v)
		}
	} else {
		fmt.Println("invariants: ok (at-most-once, in-order across the ownership change)")
	}
}
