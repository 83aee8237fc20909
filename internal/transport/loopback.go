package transport

import (
	"fmt"
	"sync/atomic"
	"time"

	"mpdp/internal/core"
	"mpdp/internal/live"
	"mpdp/internal/obs"
	"mpdp/internal/packet"
)

// LoopbackConfig parameterizes the hermetic self-benchmark: a sender and a
// receiver in one process, joined by real UDP sockets over 127.0.0.1 — the
// full wire path (encode → sendto → recvfrom → dedup → reorder → deliver)
// with no external endpoint, so CI can exercise the transport end to end.
type LoopbackConfig struct {
	// Paths is the number of UDP paths (default 2).
	Paths int
	// Scheduler and HedgeK select the path scheduler (default hedge, K=2).
	Scheduler SchedulerName
	HedgeK    int
	// Deadline is the per-packet latency budget: SchedDeadline schedules
	// against it, and — for every scheduler — deliveries are scored
	// hit/miss against it when it is > 0 (default 2 ms with SchedDeadline).
	Deadline time.Duration
	// DeadlineMargin is SchedDeadline's jitter multiplier (default 3).
	DeadlineMargin float64
	// DupBudgetBytesPerSec and DupBudgetBurst configure SchedDeadline's
	// duplication-bytes token bucket (both zero = duplication off).
	DupBudgetBytesPerSec float64
	DupBudgetBurst       float64
	// Metrics, when non-nil, receives the sender's mpdp_dup_bytes_total /
	// mpdp_deadline_* / mpdp_dup_budget_* counters plus the run's
	// deadline-hit counters.
	Metrics *live.Registry
	// Flows spreads traffic across this many flow IDs (default 8).
	Flows int
	// Payload is the data-frame payload size in bytes (default 256).
	Payload int
	// Packets stops after this many application packets (0 = until
	// Duration elapses).
	Packets uint64
	// Duration stops the send loop after this long (default 3 s when
	// Packets is 0).
	Duration time.Duration
	// Rate paces sends at this many packets/sec (0 = as fast as the wire
	// accepts).
	Rate float64
	// Window bounds unresolved packets in flight (sent minus delivered,
	// default 256): UDP has no flow control, so the harness supplies its
	// own backpressure — both ends live in one process — instead of
	// blasting the loopback socket buffers into overflow (SO_RCVBUF is
	// silently capped by net.core.rmem_max, so the kernel's headroom is
	// smaller than the 4 MB the receiver asks for). A window stalled by
	// genuine loss releases after a grace period rather than deadlocking.
	Window uint64
	// Health tunes the sender's per-path health machines.
	Health core.HealthConfig
	// Impairer, when non-nil, injects faults into outgoing frames.
	Impairer Impairer
	// ReorderTimeout is the receiver's gap timeout (default 5 ms).
	ReorderTimeout time.Duration
	// EchoBack asks the receiver to reflect frames for per-frame RTT.
	EchoBack bool
	// Spans, when non-nil, records per-stage wire latency.
	Spans *Spans
	// SLO, when non-nil, is fed every delivery (e2e latency) and loss.
	SLO *live.SLOTracker
	// Stop, when non-nil, ends the send loop early when closed (the
	// gateway wires SIGINT here).
	Stop <-chan struct{}
	// OnDeliver, when non-nil, observes each in-order delivery (driver
	// goroutine; packet owned by the transport after return).
	OnDeliver func(p *packet.Packet)
	// SenderTrace and ReceiverTrace, when non-nil, attach wire flight
	// recorders to the two endpoints. Both should be built with the same
	// sample rate so the merged trace joins end to end.
	SenderTrace   *obs.WireRecorder
	ReceiverTrace *obs.WireRecorder
	// OnStart, when non-nil, runs once after both endpoints are up and
	// before the first packet is sent — the hook the tail sentinel uses
	// to attach its tick loop to the live Sender/Receiver pair.
	OnStart func(send *Sender, recv *Receiver)
}

// LoopbackReport is the run's outcome: counters from both ends, reorder
// cost, and the invariant verdict.
type LoopbackReport struct {
	Elapsed   time.Duration `json:"elapsed_ns"`
	Packets   uint64        `json:"packets"`   // application packets sent
	Frames    uint64        `json:"frames"`    // wire frames (hedge copies included)
	Delivered uint64        `json:"delivered"` // in-order, dedup-clean deliveries
	Lost      uint64        `json:"lost"`
	DupDrops  uint64        `json:"dup_drops"` // hedged siblings absorbed pre-reorder
	WireDups  uint64        `json:"wire_dups"` // wire-level duplicates absorbed per path
	// Deadline accounting, populated when Deadline > 0: deliveries whose
	// e2e latency fit (or blew) the budget.
	DeadlineHits   uint64           `json:"deadline_hits,omitempty"`
	DeadlineMisses uint64           `json:"deadline_misses,omitempty"`
	Sender         SenderStats      `json:"sender"`
	Receiver       ReceiverStats    `json:"receiver"`
	Violations     []string         `json:"violations,omitempty"` // capped at 16 messages
	NViolations    uint64           `json:"n_violations"`         // exact count
	Spans          []live.StageSpan `json:"spans,omitempty"`
}

// Verify returns the invariant verdict: nil when the run surfaced every
// delivery exactly once, in order, with nothing invented.
func (r *LoopbackReport) Verify() error {
	if r.NViolations == 0 {
		return nil
	}
	return fmt.Errorf("transport invariant: %d violation(s), first: %s",
		r.NViolations, r.Violations[0])
}

// RunLoopback drives a complete sender→receiver run over loopback UDP and
// returns the verified report. Every delivery is checked for order and
// uniqueness by a Verifier; any violation is a bug in the transport, not
// in the caller.
func RunLoopback(cfg LoopbackConfig) (*LoopbackReport, error) {
	if cfg.Paths == 0 {
		cfg.Paths = 2
	}
	if cfg.Scheduler == "" {
		cfg.Scheduler = SchedHedge
	}
	if cfg.Flows == 0 {
		cfg.Flows = 8
	}
	if cfg.Payload == 0 {
		cfg.Payload = 256
	}
	if cfg.Packets == 0 && cfg.Duration == 0 {
		cfg.Duration = 3 * time.Second
	}
	if cfg.Window == 0 {
		cfg.Window = 256
	}
	if cfg.Scheduler == SchedDeadline && cfg.Deadline == 0 {
		cfg.Deadline = 2 * time.Millisecond
	}

	// Deadline scoring: e2e latency vs the configured budget, counted for
	// every scheduler so runs are comparable on the same axis. Atomics —
	// the receiver's driver goroutine writes, the harness reads at the end.
	var dlHits, dlMisses atomic.Uint64
	pktDeadlineNanos := cfg.Deadline.Nanoseconds()

	verifier := NewVerifier()
	addrs := make([]string, cfg.Paths)
	for i := range addrs {
		addrs[i] = "127.0.0.1:0"
	}
	recv, err := Listen(ReceiverConfig{
		Addrs:          addrs,
		ReorderTimeout: cfg.ReorderTimeout,
		EchoBack:       cfg.EchoBack,
		Spans:          cfg.Spans,
		Verifier:       verifier,
		Trace:          cfg.ReceiverTrace,
		Deliver: func(p *packet.Packet) {
			if cfg.SLO != nil {
				cfg.SLO.ObserveDelivery(int64(p.Delivered - p.Ingress))
			}
			if pktDeadlineNanos > 0 {
				if int64(p.Delivered-p.Ingress) <= pktDeadlineNanos {
					dlHits.Add(1)
				} else {
					dlMisses.Add(1)
				}
			}
			if cfg.OnDeliver != nil {
				cfg.OnDeliver(p)
			}
		},
		OnLost: func(p *packet.Packet) {
			if cfg.SLO != nil {
				cfg.SLO.ObserveLoss()
			}
		},
	})
	if err != nil {
		return nil, err
	}

	paths := make([]PathConfig, cfg.Paths)
	for i, a := range recv.Addrs() {
		paths[i] = PathConfig{RemoteAddr: a}
	}
	send, err := Dial(SenderConfig{
		Paths:                paths,
		Scheduler:            cfg.Scheduler,
		HedgeK:               cfg.HedgeK,
		Deadline:             cfg.Deadline,
		DeadlineMargin:       cfg.DeadlineMargin,
		DupBudgetBytesPerSec: cfg.DupBudgetBytesPerSec,
		DupBudgetBurst:       cfg.DupBudgetBurst,
		Health:               cfg.Health,
		Impairer:             cfg.Impairer,
		Spans:                cfg.Spans,
		Verifier:             verifier,
		Trace:                cfg.SenderTrace,
	})
	if err != nil {
		recv.Close() //lint:allow erroreat teardown on the error path
		return nil, err
	}
	if cfg.Metrics != nil {
		send.RegisterMetrics(cfg.Metrics)
		cfg.Metrics.CounterFunc("mpdp_deadline_hit_total", dlHits.Load)
		cfg.Metrics.CounterFunc("mpdp_deadline_miss_total", dlMisses.Load)
	}

	if cfg.OnStart != nil {
		cfg.OnStart(send, recv)
	}

	payload := make([]byte, cfg.Payload)
	for i := range payload {
		payload[i] = byte(i)
	}
	start := NowNanos()
	deadlineNanos := int64(0)
	if cfg.Duration > 0 {
		deadlineNanos = start + cfg.Duration.Nanoseconds()
	}
	var interval time.Duration
	if cfg.Rate > 0 {
		interval = time.Duration(float64(time.Second) / cfg.Rate)
	}

	var sent uint64
	var sendErr error
sendLoop:
	for {
		if cfg.Packets > 0 && sent >= cfg.Packets {
			break
		}
		if deadlineNanos > 0 && NowNanos() >= deadlineNanos {
			break
		}
		if cfg.Stop != nil {
			select {
			case <-cfg.Stop:
				break sendLoop
			default:
			}
		}
		// Backpressure: stall while a window's worth of packets is
		// unresolved. A packet resolves by in-order delivery or by the
		// receiver's gap timeout abandoning its sequence number — counting
		// abandoned seqs keeps a lossy non-hedged run flowing at the
		// reorder timeout's pace instead of paying the grace period per
		// packet. The grace release remains as a backstop for packets that
		// never resolve either way (a trailing loss with no successor
		// leaves no gap for the timeout to close).
		stallUntil := int64(0)
		for sent-(recv.delivered.Load()+recv.driver.gapSkipped.Load()) >= cfg.Window {
			if stallUntil == 0 {
				stallUntil = NowNanos() + (100 * time.Millisecond).Nanoseconds()
			} else if NowNanos() >= stallUntil {
				break
			}
			time.Sleep(200 * time.Microsecond) //lint:allow determinism wall-clock backpressure on a real wire
		}
		flow := uint64(1 + sent%uint64(cfg.Flows))
		if _, err := send.Send(flow, payload); err != nil {
			// A refused send already fed the health machine; keep going so
			// the run measures recovery rather than aborting on first fault.
			sendErr = err
		}
		sent++
		if interval > 0 {
			time.Sleep(interval) //lint:allow determinism wall-clock send pacing on a real wire
		}
	}

	// Drain: give in-flight frames, acks and gap timers time to settle.
	// Closing early discards datagrams still queued in the kernel, so only
	// stop once delivery has been quiet for several consecutive polls (a
	// single quiet poll is routine on a loaded machine).
	drainDeadline := NowNanos() + (2*time.Second +
		8*maxDuration(cfg.ReorderTimeout, 5*time.Millisecond)).Nanoseconds()
	prev := ^uint64(0)
	stable := 0
	for NowNanos() < drainDeadline && stable < 5 {
		time.Sleep(20 * time.Millisecond) //lint:allow determinism drain polling on a real wire
		st := recv.Stats()
		settled := st.Delivered + st.Lost + st.DupDrops
		if settled == prev {
			stable++
		} else {
			stable, prev = 0, settled
		}
	}

	if err := send.Close(); err != nil {
		return nil, fmt.Errorf("transport: sender close: %w", err)
	}
	if err := recv.Close(); err != nil {
		return nil, fmt.Errorf("transport: receiver close: %w", err)
	}

	elapsed := time.Duration(NowNanos() - start)
	ss := send.Stats()
	rs := recv.Stats()
	var wireDups uint64
	for _, p := range rs.Paths {
		wireDups += p.WireDups
	}
	// Finish appends the end-of-run conservation checks; the verdict is
	// re-derived from the recorded list by (*LoopbackReport).Verify.
	_ = verifier.Finish()
	msgs, n := verifier.Violations()
	report := &LoopbackReport{
		Elapsed:        elapsed,
		Packets:        ss.Packets,
		Frames:         ss.Frames,
		Delivered:      rs.Delivered,
		Lost:           rs.Lost,
		DupDrops:       rs.DupDrops,
		WireDups:       wireDups,
		DeadlineHits:   dlHits.Load(),
		DeadlineMisses: dlMisses.Load(),
		Sender:         ss,
		Receiver:       rs,
		Violations:     msgs,
		NViolations:    n,
		Spans:          cfg.Spans.StageSnapshot(),
	}
	if sendErr != nil && report.Delivered == 0 {
		return report, fmt.Errorf("transport: no deliveries; last send error: %w", sendErr)
	}
	return report, nil
}

func maxDuration(a, b time.Duration) time.Duration {
	if a > b {
		return a
	}
	return b
}
