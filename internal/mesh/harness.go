package mesh

import (
	"fmt"
	"sync"
	"time"

	"mpdp/internal/core"
	"mpdp/internal/invariant"
	"mpdp/internal/live"
	"mpdp/internal/sentinel"
	"mpdp/internal/stats"
	"mpdp/internal/transport"
)

// MeshConfig parameterizes a hermetic in-process mesh run: N gateway
// nodes plus one steering client, all over loopback UDP — the mesh
// sibling of transport.RunLoopback.
type MeshConfig struct {
	// Nodes is the gateway count (default 4).
	Nodes int
	// PathsPerNode is the data-path count per gateway (default 2).
	PathsPerNode int
	// Scheduler, HedgeK, Deadline, DeadlineMargin, DupBudgetBytesPerSec,
	// DupBudgetBurst tune the client's per-node transport senders
	// (defaults mirror RunLoopback).
	Scheduler            transport.SchedulerName
	HedgeK               int
	Deadline             time.Duration
	DeadlineMargin       float64
	DupBudgetBytesPerSec float64
	DupBudgetBurst       float64
	// Flows spreads traffic across this many flow IDs (default 32).
	Flows int
	// Payload is the application payload size in bytes (default 256).
	Payload int
	// Packets stops after this many sends (0 = until Duration elapses).
	Packets uint64
	// Duration bounds the send loop (default 3 s when Packets is 0).
	Duration time.Duration
	// Window bounds unresolved packets in flight (default 256), the same
	// self-supplied backpressure RunLoopback uses: resolved here means
	// delivered, duplicate-suppressed, or cursor-skipped at any node.
	Window uint64
	// Health tunes the client's sender-side path health machines;
	// NodeHealth the nodes' receive-driven ones.
	Health     core.HealthConfig
	NodeHealth core.HealthConfig
	// Impairer, when non-nil, injects faults into every sender's frames.
	Impairer transport.Impairer
	// ReorderTimeout is each node's receiver gap timeout (default 5 ms).
	ReorderTimeout time.Duration
	// GossipInterval paces the control plane (default 25 ms).
	GossipInterval time.Duration
	// HandoffTimeout / DrainSettle pass through to every node.
	HandoffTimeout time.Duration
	DrainSettle    time.Duration
	// DrainNode, when >= 0, gracefully drains the node at that index
	// (into the seeded order) mid-run; DrainAfter is the run fraction at
	// which the drain starts (default 0.5).
	DrainNode  int
	DrainAfter float64
	// SLO, when non-empty, attaches a burn tracker to every node.
	SLO string
	// Metrics, when non-nil, receives the mesh metric families.
	Metrics *live.Registry
	// Sentinel, when non-nil, attaches a tail-episode detector fed from
	// the mesh-aggregate latency window each SentinelEvery (default
	// 50 ms).
	Sentinel      *sentinel.Config
	SentinelEvery time.Duration
	// Stop, when non-nil, ends the send loop early when closed.
	Stop <-chan struct{}
}

func (c *MeshConfig) fillDefaults() {
	if c.Nodes == 0 {
		c.Nodes = 4
	}
	if c.PathsPerNode == 0 {
		c.PathsPerNode = 2
	}
	if c.Scheduler == "" {
		c.Scheduler = transport.SchedHedge
	}
	if c.Flows == 0 {
		c.Flows = 32
	}
	if c.Payload == 0 {
		c.Payload = 256
	}
	if c.Packets == 0 && c.Duration == 0 {
		c.Duration = 3 * time.Second
	}
	if c.Window == 0 {
		c.Window = 256
	}
	if c.ReorderTimeout == 0 {
		c.ReorderTimeout = 5 * time.Millisecond
	}
	if c.GossipInterval == 0 {
		c.GossipInterval = 25 * time.Millisecond
	}
	if c.DrainAfter == 0 {
		c.DrainAfter = 0.5
	}
	if c.SentinelEvery == 0 {
		c.SentinelEvery = 50 * time.Millisecond
	}
	if c.Scheduler == transport.SchedDeadline && c.Deadline == 0 {
		c.Deadline = 2 * time.Millisecond
	}
}

// MeshReport is the run's outcome: mesh-wide counters, the drain's
// migration accounting, tail latency before and after the ownership
// change, and the stream-invariant verdict.
type MeshReport struct {
	Elapsed   time.Duration `json:"elapsed_ns"`
	Nodes     int           `json:"nodes"`
	Packets   uint64        `json:"packets"`    // application packets sent
	SendErrs  uint64        `json:"send_errs"`  // sends refused or failed at the socket
	Delivered uint64        `json:"delivered"`  // in-order mesh deliveries, all nodes
	Gaps      uint64        `json:"gaps"`       // cursor-resolved wire losses
	DupDrops  uint64        `json:"dup_drops"`  // duplicates absorbed by flow cursors
	EpochEnd  uint64        `json:"epoch_end"`  // highest epoch at run end
	Resteers  uint64        `json:"resteers"`   // client-side ownership moves (flows migrated)
	MovedSeqs uint64        `json:"moved_seqs"` // deliveries on migrated flows after handoff

	StaleSteers     uint64 `json:"stale_steers"`
	Forwarded       uint64 `json:"forwarded"`
	HandoffFlows    uint64 `json:"handoff_flows"`
	HandoffRecords  uint64 `json:"handoff_records"`
	HandoffTimeouts uint64 `json:"handoff_timeouts"`
	HandoffUnacked  uint64 `json:"handoff_unacked"`
	OverflowDrops   uint64 `json:"overflow_drops"` // frames dropped at a full pending/parked buffer

	DeadlineHits   uint64 `json:"deadline_hits,omitempty"`
	DeadlineMisses uint64 `json:"deadline_misses,omitempty"`

	// Latency summarizes mesh-wide e2e latency over the measured window
	// (every node's histogram merged); P99PreDrainNanos is the same p99
	// snapshotted just before the drain began.
	Latency          stats.Summary `json:"latency_ns"`
	P99PreDrainNanos int64         `json:"p99_pre_drain_nanos,omitempty"`
	// DrainNanos is how long the victim's graceful Drain took, announce
	// to final gossip. Frames parked behind the announce (and buffered at
	// the new owner) surface when the export lands, so the worst-case
	// tail a drain adds is bounded by this, never by run length.
	DrainNanos int64 `json:"drain_nanos,omitempty"`

	Episodes []sentinel.Episode `json:"episodes,omitempty"`

	Violations  []string    `json:"violations,omitempty"`
	NViolations uint64      `json:"n_violations"`
	PerNode     []NodeStats `json:"per_node"`
}

// Verify returns the stream-invariant verdict: nil when every delivery
// surfaced exactly once, in order, with nothing invented — across the
// ownership change included.
func (r *MeshReport) Verify() error {
	if r.NViolations == 0 {
		return nil
	}
	return fmt.Errorf("mesh stream invariant: %d violation(s), first: %s",
		r.NViolations, r.Violations[0])
}

// RunMesh drives a complete hermetic mesh run: N nodes and one client in
// this process, optional mid-run graceful drain of one node, every send
// and delivery shadowed by one shared invariant.Stream.
func RunMesh(cfg MeshConfig) (*MeshReport, error) {
	cfg.fillDefaults()
	checker := invariant.NewStream()

	nodes := make([]*Node, 0, cfg.Nodes)
	for i := 0; i < cfg.Nodes; i++ {
		n, err := NewNode(NodeConfig{
			ID:             NodeID(i + 1),
			DataPaths:      cfg.PathsPerNode,
			GossipInterval: cfg.GossipInterval,
			ReorderTimeout: cfg.ReorderTimeout,
			HandoffTimeout: cfg.HandoffTimeout,
			DrainSettle:    cfg.DrainSettle,
			Deadline:       cfg.Deadline,
			Health:         cfg.NodeHealth,
			SLO:            cfg.SLO,
			Checker:        checker,
		})
		if err != nil {
			for _, m := range nodes {
				m.Close() //lint:allow erroreat teardown on the error path
			}
			return nil, err
		}
		nodes = append(nodes, n)
	}
	closeAll := func() {
		for _, n := range nodes {
			n.Close() //lint:allow erroreat best-effort harness teardown
		}
	}

	client, err := NewClient(ClientConfig{
		ID:                   NodeID(1000),
		Scheduler:            cfg.Scheduler,
		HedgeK:               cfg.HedgeK,
		Deadline:             cfg.Deadline,
		DeadlineMargin:       cfg.DeadlineMargin,
		DupBudgetBytesPerSec: cfg.DupBudgetBytesPerSec,
		DupBudgetBurst:       cfg.DupBudgetBurst,
		Health:               cfg.Health,
		Impairer:             cfg.Impairer,
		Checker:              checker,
	})
	if err != nil {
		closeAll()
		return nil, err
	}

	seed := make([]Member, 0, cfg.Nodes+1)
	for _, n := range nodes {
		seed = append(seed, n.Member())
	}
	seed = append(seed, client.Member())
	for _, n := range nodes {
		n.Start(seed)
	}
	if err := client.Start(seed); err != nil {
		closeAll()
		return nil, err
	}
	if cfg.Metrics != nil {
		RegisterMetrics(cfg.Metrics, nodes, client)
	}

	mergedSnap := func() *stats.Hist {
		merged := nodes[0].E2ESnapshot()
		for _, n := range nodes[1:] {
			merged.Merge(n.E2ESnapshot())
		}
		return merged
	}
	resolved := func() uint64 {
		var t uint64
		for _, n := range nodes {
			t += n.delivered.Load() + n.gaps.Load() + n.dupSuppressed.Load()
		}
		return t
	}

	stopAux := make(chan struct{})
	var aux sync.WaitGroup

	// Optional tail sentinel: mesh-aggregate p99 per tick window, plus the
	// gossiped SLO-critical and unhealthy-path counts.
	var episodes []sentinel.Episode
	if cfg.Sentinel != nil {
		det := sentinel.NewDetector(*cfg.Sentinel)
		aux.Add(1)
		go func() {
			defer aux.Done()
			prev := mergedSnap()
			ticker := time.NewTicker(cfg.SentinelEvery) //lint:allow determinism wall-clock sentinel sampling over a real wire
			defer ticker.Stop()
			for {
				select {
				case <-stopAux:
					return
				case <-ticker.C:
				}
				cur := mergedSnap()
				delta := cur.Delta(prev)
				prev = cur
				p99 := int64(-1)
				if delta.Count() > 0 {
					p99 = delta.Percentile(0.99)
				}
				var critical bool
				var unhealthy int
				for _, n := range nodes {
					if n.sloCritical() {
						critical = true
					}
					pc := n.pathCounts()
					unhealthy += int(pc.PathsDegraded) + int(pc.PathsQuarantined) + int(pc.PathsProbing)
				}
				trans, ep := det.Observe(sentinel.Sample{
					Nanos: transport.NowNanos(), P99: p99,
					SLOCritical: critical, UnhealthyPaths: unhealthy,
				})
				if trans == sentinel.TransEnd {
					episodes = append(episodes, ep)
				}
			}
		}()
	}

	// Optional mid-run drain: snapshot the pre-drain tail, then run the
	// graceful departure while the send loop keeps going — the whole point
	// is that traffic continues across the ownership change.
	var preSnap *stats.Hist
	var drainWG sync.WaitGroup
	var drainErr error
	var drainNanos int64
	if cfg.DrainNode >= 0 && cfg.DrainNode < len(nodes) {
		drainAt := time.Duration(float64(cfg.Duration) * cfg.DrainAfter)
		if cfg.Duration == 0 {
			drainAt = 500 * time.Millisecond
		}
		victim := nodes[cfg.DrainNode]
		drainWG.Add(1)
		go func() {
			defer drainWG.Done()
			select {
			case <-time.After(drainAt): //lint:allow determinism wall-clock drain trigger for a real-wire run
			case <-stopAux:
				return
			}
			preSnap = mergedSnap()
			ds := transport.NowNanos()
			drainErr = victim.Drain()
			drainNanos = transport.NowNanos() - ds
		}()
	}

	// Send loop, windowed like RunLoopback's.
	start := transport.NowNanos()
	deadlineNanos := int64(0)
	if cfg.Duration > 0 {
		deadlineNanos = start + cfg.Duration.Nanoseconds()
	}
	payload := make([]byte, cfg.Payload)
	for i := range payload {
		payload[i] = byte(i)
	}
	var sent, sendErrs uint64
	var lastProgress = transport.NowNanos()
	var lastResolved uint64
send:
	for {
		if cfg.Packets > 0 && sent >= cfg.Packets {
			break
		}
		if deadlineNanos > 0 && transport.NowNanos() >= deadlineNanos {
			break
		}
		if cfg.Stop != nil {
			select {
			case <-cfg.Stop:
				break send
			default:
			}
		}
		// Backpressure: stall while the unresolved window is full, with a
		// grace release so genuine losses (which never resolve) cannot
		// deadlock the loop.
		for sent-resolved() >= cfg.Window {
			if r := resolved(); r != lastResolved {
				lastResolved = r
				lastProgress = transport.NowNanos()
			} else if transport.NowNanos()-lastProgress > (100 * time.Millisecond).Nanoseconds() {
				break
			}
			if deadlineNanos > 0 && transport.NowNanos() >= deadlineNanos {
				break send
			}
			time.Sleep(200 * time.Microsecond) //lint:allow determinism real-wire backpressure pacing
		}
		flow := uint64(sent % uint64(cfg.Flows))
		if _, _, err := client.Send(flow, payload); err != nil {
			sendErrs++
		}
		sent++
	}

	// Settle: wait for in-flight frames, reorder flushes, and the drain's
	// handoff to finish resolving, then for counters to hold still.
	drainWG.Wait()
	settleDeadline := transport.NowNanos() + (2*time.Second + 8*cfg.ReorderTimeout).Nanoseconds()
	var stable int
	last := resolved()
	for stable < 5 && transport.NowNanos() < settleDeadline {
		time.Sleep(20 * time.Millisecond) //lint:allow determinism real-wire settle polling
		if cur := resolved(); cur == last {
			stable++
		} else {
			stable = 0
			last = cur
		}
	}
	close(stopAux)
	aux.Wait()

	elapsed := time.Duration(transport.NowNanos() - start)
	// Snapshot the latency plane before teardown: closing the nodes
	// flushes whatever a starved run still holds in its reorder buffers,
	// and those teardown deliveries — still invariant-checked below —
	// would smear the report's measured window.
	overall := mergedSnap()
	client.Close() //lint:allow erroreat harness teardown; the report already has every counter
	closeAll()

	rep := &MeshReport{
		Elapsed: elapsed,
		Nodes:   cfg.Nodes,
		Packets: sent, SendErrs: sendErrs,
		Resteers: client.Resteers(),
		Episodes: episodes,
	}
	rep.Latency = overall.Summarize()
	if preSnap != nil {
		rep.P99PreDrainNanos = preSnap.Percentile(0.99)
	}
	rep.DrainNanos = drainNanos
	for _, n := range nodes {
		st := n.Stats()
		rep.PerNode = append(rep.PerNode, st)
		rep.Delivered += st.Delivered
		rep.Gaps += st.Gaps
		rep.DupDrops += st.DupSuppressed
		rep.StaleSteers += st.StaleSteers
		rep.Forwarded += st.ForwardedOut
		rep.HandoffFlows += st.HandoffFlowsOut
		rep.HandoffRecords += st.HandoffRecords
		rep.HandoffTimeouts += st.HandoffTimeouts
		rep.HandoffUnacked += st.HandoffUnacked
		rep.OverflowDrops += st.OverflowDropped
		rep.MovedSeqs += st.MigratedDelivered
		rep.DeadlineHits += st.DeadlineHits
		rep.DeadlineMisses += st.DeadlineMisses
		if st.Epoch > rep.EpochEnd {
			rep.EpochEnd = st.Epoch
		}
	}
	checker.Finish() //lint:allow erroreat the verdict is carried in Violations below
	rep.Violations, rep.NViolations = checker.Violations()
	if drainErr != nil {
		return rep, fmt.Errorf("mesh: drain: %w", drainErr)
	}
	return rep, nil
}
