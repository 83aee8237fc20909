// Package live is the wall-clock execution engine of MPDP: the same NF
// chains and multipath structure as the simulator (internal/core), but run
// on real goroutines with channels as lane queues — one dispatcher
// goroutine steering packets, one worker goroutine per lane running its
// chain replica to completion, and one egress goroutine restoring per-flow
// order.
//
// Where the simulated engine measures virtual-time latency under modelled
// interference, the live engine demonstrates that the library's packet
// processing is a working concurrent data plane: real frames, real NF
// work, real parallel speedup, measured in wall nanoseconds. It is the
// repo's stand-in for the paper's Click/DPDK prototype process model.
//
// Scope notes (deliberate simplifications versus internal/core):
// duplication/cancellation is not offered (hedging across threads needs
// cross-queue revocation that channels cannot express cheaply), and
// steering policies are the live-safe subset.
package live

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"mpdp/internal/nf"
	"mpdp/internal/packet"
	"mpdp/internal/sim"
	"mpdp/internal/stats"
)

// PolicyName selects the dispatcher's steering policy.
type PolicyName string

// Live-safe policies.
const (
	PolicyRSS     PolicyName = "rss"     // static Toeplitz hash
	PolicyRR      PolicyName = "rr"      // per-packet round robin
	PolicyJSQ     PolicyName = "jsq"     // shortest queue (channel depth)
	PolicyFlowlet PolicyName = "flowlet" // flowlet-sticky shortest queue
)

// Config assembles a live data plane.
type Config struct {
	// Paths is the number of worker lanes (default 4).
	Paths int
	// ChainFactory builds lane i's chain replica (required). Each lane's
	// chain is owned by that lane's goroutine exclusively.
	ChainFactory func(i int) *nf.Chain
	// Policy is the steering policy (default PolicyFlowlet).
	Policy PolicyName
	// QueueCap bounds each lane channel (default 1024); full = tail drop.
	QueueCap int
	// FlowletTimeout is the idle gap ending a flowlet (default 500 µs of
	// wall time).
	FlowletTimeout time.Duration
	// ReorderTimeout bounds how long egress waits for a gap (default 2 ms
	// of wall time). 0 disables the reorder stage entirely (unordered
	// delivery).
	ReorderTimeout time.Duration
	// DisableSpans turns off per-stage span timing (dispatch, queue wait,
	// each NF element, service, reorder wait). Spans are on by default:
	// recording is lock-free and allocation-free, so the cost is a few
	// clock reads per packet.
	DisableSpans bool
	// SLO, when non-nil, receives every delivery (with its e2e latency)
	// and every loss — tail drops, chain drops, reorder stragglers — so
	// burn-rate alerting tracks the engine's real error budget. The
	// tracker is also registered on the engine's metrics registry.
	SLO *SLOTracker
}

// Engine is a running live data plane. Create with Start, feed with
// Ingress, stop with Close.
type Engine struct {
	cfg      Config
	start    time.Time
	lanes    []*laneWorker
	egress   chan *packet.Packet
	deliver  func(*packet.Packet)
	wg       sync.WaitGroup
	egressWG sync.WaitGroup
	closed   atomic.Bool

	// Dispatcher state (single goroutine: Ingress must not be called
	// concurrently; the common arrangement is one RX thread).
	rrNext   int
	flowlets map[uint64]*liveFlowlet
	seqGen   map[uint64]uint64

	offered   atomic.Uint64
	tailDrops atomic.Uint64
	delivered atomic.Uint64

	// latency is the end-to-end wall-latency histogram (ingress →
	// delivery). Lock-free: the egress goroutine records, readers
	// snapshot concurrently. When spans are enabled it is the same
	// histogram as spans.e2e.
	latency *Histogram
	// spans holds the per-stage histograms; nil when Config.DisableSpans.
	spans *spanSet

	metricsOnce sync.Once
	metricsReg  *Registry
}

type liveFlowlet struct {
	lane int
	last time.Time
}

type laneWorker struct {
	id     int
	in     chan *packet.Packet
	chain  *nf.Chain
	depth  atomic.Int64
	served atomic.Uint64
	drops  atomic.Uint64 // policy drops by the chain

	// Span state, touched only by this lane's goroutine. The hook is
	// built once at Start so the per-packet chain call allocates nothing.
	spanPrev sim.Time
	spanHook nf.StageHook
}

// Start launches the engine's goroutines. deliver receives packets (in
// per-flow order unless ReorderTimeout is 0) from the egress goroutine.
func Start(cfg Config, deliver func(*packet.Packet)) (*Engine, error) {
	if cfg.ChainFactory == nil {
		return nil, fmt.Errorf("live: ChainFactory is required")
	}
	if cfg.Paths <= 0 {
		cfg.Paths = 4
	}
	if cfg.QueueCap <= 0 {
		cfg.QueueCap = 1024
	}
	if cfg.Policy == "" {
		cfg.Policy = PolicyFlowlet
	}
	switch cfg.Policy {
	case PolicyRSS, PolicyRR, PolicyJSQ, PolicyFlowlet:
	default:
		return nil, fmt.Errorf("live: unknown policy %q", cfg.Policy)
	}
	if cfg.FlowletTimeout <= 0 {
		cfg.FlowletTimeout = 500 * time.Microsecond
	}

	e := &Engine{
		cfg:      cfg,
		start:    time.Now(),
		egress:   make(chan *packet.Packet, cfg.QueueCap*cfg.Paths),
		deliver:  deliver,
		flowlets: make(map[uint64]*liveFlowlet),
		seqGen:   make(map[uint64]uint64),
		latency:  NewHistogram(),
	}
	for i := 0; i < cfg.Paths; i++ {
		lw := &laneWorker{
			id:    i,
			in:    make(chan *packet.Packet, cfg.QueueCap),
			chain: cfg.ChainFactory(i),
		}
		e.lanes = append(e.lanes, lw)
	}
	if !cfg.DisableSpans {
		// Every lane runs a replica of the same chain shape; lane 0's
		// element list names the per-NF stages.
		e.spans = newSpanSet(e.lanes[0].chain.Elements(), e.latency)
		for _, lw := range e.lanes {
			lw := lw
			lw.spanHook = func(i int, _ nf.Element, _ nf.Result) {
				now := e.now()
				if i < len(e.spans.nfStages) {
					e.spans.nfStages[i].Record(int64(now - lw.spanPrev))
				}
				lw.spanPrev = now
			}
		}
	}
	for _, lw := range e.lanes {
		e.wg.Add(1)
		go e.runLane(lw)
	}
	e.egressWG.Add(1)
	go e.runEgress()
	return e, nil
}

// now returns wall time since engine start as a sim.Time, so the packet's
// virtual-time fields carry wall nanoseconds in live mode. It is the
// engine's single declared wall->virtual funnel: the determinism pragma
// below blesses this read for the clocktaint analyzer, so any OTHER
// wall-clock value reaching a sim-scope type or field is still flagged.
func (e *Engine) now() sim.Time {
	//lint:allow unusedallow determinism pragma below is a clocktaint funnel declaration, not a suppression
	//lint:allow determinism live mode runs on the wall clock by design; now() is the single wall->virtual funnel
	return sim.Time(time.Since(e.start).Nanoseconds())
}

// Ingress admits one packet. NOT safe for concurrent use — call from a
// single RX goroutine, mirroring a single poll-mode RX thread.
func (e *Engine) Ingress(p *packet.Packet) {
	if e.closed.Load() {
		return
	}
	e.offered.Add(1)
	p.Ingress = e.now()
	if p.FlowID == 0 {
		p.FlowID = p.Flow.Hash64()
	}
	p.Seq = e.seqGen[p.FlowID]
	e.seqGen[p.FlowID]++

	lane := e.pick(p)
	p.PathID = lane
	lw := e.lanes[lane]
	// Stamp before the send: the channel send happens-before the lane
	// worker's receive, so the worker may read Enqueued; stamping after a
	// successful send would race with it.
	p.Enqueued = e.now()
	select {
	case lw.in <- p:
		lw.depth.Add(1)
		if e.spans != nil {
			e.spans.dispatch.Record(int64(p.Enqueued - p.Ingress))
		}
	default:
		e.tailDrops.Add(1)
		p.Dropped = packet.DropQueueFull
		if e.cfg.SLO != nil {
			e.cfg.SLO.ObserveLoss()
		}
	}
}

// pick implements the dispatcher's steering.
func (e *Engine) pick(p *packet.Packet) int {
	switch e.cfg.Policy {
	case PolicyRSS:
		return packet.RSSQueue(packet.DefaultRSSKey, p.Flow, len(e.lanes))
	case PolicyRR:
		i := e.rrNext % len(e.lanes)
		e.rrNext++
		return i
	case PolicyJSQ:
		return e.shortest()
	default: // PolicyFlowlet
		now := time.Now()
		f, ok := e.flowlets[p.FlowID]
		if ok && now.Sub(f.last) <= e.cfg.FlowletTimeout {
			f.last = now
			return f.lane
		}
		lane := e.shortest()
		if !ok {
			f = &liveFlowlet{}
			e.flowlets[p.FlowID] = f
		}
		f.lane, f.last = lane, now
		return lane
	}
}

func (e *Engine) shortest() int {
	best, bestDepth := 0, e.lanes[0].depth.Load()
	for i := 1; i < len(e.lanes); i++ {
		if d := e.lanes[i].depth.Load(); d < bestDepth {
			best, bestDepth = i, d
		}
	}
	return best
}

// runLane is one worker: run-to-completion over the lane's chain replica.
func (e *Engine) runLane(lw *laneWorker) {
	defer e.wg.Done()
	for p := range lw.in {
		lw.depth.Add(-1)
		p.ServiceAt = e.now()
		if e.spans != nil {
			e.spans.queueWait.Record(int64(p.ServiceAt - p.Enqueued))
		}
		lw.spanPrev = p.ServiceAt
		r := lw.chain.ProcessHooked(p.ServiceAt, p, lw.spanHook)
		p.Done = e.now()
		if e.spans != nil {
			e.spans.service.Record(int64(p.Done - p.ServiceAt))
		}
		lw.served.Add(1)
		if r.Verdict != packet.Pass {
			lw.drops.Add(1)
			if e.cfg.SLO != nil {
				e.cfg.SLO.ObserveLoss()
			}
			continue
		}
		e.egress <- p
	}
}

// runEgress restores per-flow order (bounded wait) and delivers.
func (e *Engine) runEgress() {
	defer e.egressWG.Done()
	type flowState struct {
		next    uint64
		pending map[uint64]*packet.Packet
		arrived map[uint64]time.Time
	}
	flows := make(map[uint64]*flowState)

	release := func(p *packet.Packet) {
		p.Delivered = e.now()
		e.delivered.Add(1)
		if e.spans != nil {
			e.spans.reorderWait.Record(int64(p.Delivered - p.Done))
		}
		e.latency.Record(int64(p.Latency()))
		if e.cfg.SLO != nil {
			e.cfg.SLO.ObserveDelivery(int64(p.Latency()))
		}
		if e.deliver != nil {
			e.deliver(p)
		}
	}

	var tick <-chan time.Time
	var ticker *time.Ticker
	if e.cfg.ReorderTimeout > 0 {
		ticker = time.NewTicker(e.cfg.ReorderTimeout / 2)
		tick = ticker.C
		defer ticker.Stop()
	}

	handle := func(p *packet.Packet) {
		if e.cfg.ReorderTimeout <= 0 {
			release(p)
			return
		}
		f, ok := flows[p.FlowID]
		if !ok {
			f = &flowState{pending: map[uint64]*packet.Packet{}, arrived: map[uint64]time.Time{}}
			flows[p.FlowID] = f
		}
		switch {
		case p.Seq < f.next:
			p.Dropped = packet.DropReorder // straggler past a timeout skip
			if e.cfg.SLO != nil {
				e.cfg.SLO.ObserveLoss()
			}
		case p.Seq == f.next:
			f.next++
			release(p)
			for {
				q, ok := f.pending[f.next]
				if !ok {
					break
				}
				delete(f.pending, f.next)
				delete(f.arrived, f.next)
				f.next++
				release(q)
			}
		default:
			f.pending[p.Seq] = p
			f.arrived[p.Seq] = time.Now()
		}
	}

	expire := func() {
		cutoff := time.Now().Add(-e.cfg.ReorderTimeout)
		for _, f := range flows {
			for len(f.pending) > 0 {
				min := ^uint64(0)
				for seq := range f.pending {
					if seq < min {
						min = seq
					}
				}
				if f.arrived[min].After(cutoff) {
					break
				}
				p := f.pending[min]
				delete(f.pending, min)
				delete(f.arrived, min)
				f.next = min + 1
				release(p)
				for {
					q, ok := f.pending[f.next]
					if !ok {
						break
					}
					delete(f.pending, f.next)
					delete(f.arrived, f.next)
					f.next++
					release(q)
				}
			}
		}
	}

	for {
		select {
		case p, ok := <-e.egress:
			if !ok {
				// Drain: flush everything pending in sequence order.
				for _, f := range flows {
					for len(f.pending) > 0 {
						min := ^uint64(0)
						for seq := range f.pending {
							if seq < min {
								min = seq
							}
						}
						p := f.pending[min]
						delete(f.pending, min)
						f.next = min + 1
						release(p)
					}
				}
				return
			}
			handle(p)
		case <-tick:
			expire()
		}
	}
}

// Close stops ingress, drains the lanes and egress, and waits for all
// goroutines. Safe to call once.
func (e *Engine) Close() {
	if !e.closed.CompareAndSwap(false, true) {
		return
	}
	for _, lw := range e.lanes {
		close(lw.in)
	}
	e.wg.Wait()
	close(e.egress)
	e.egressWG.Wait()
}

// Stats is a snapshot of the live engine's counters.
type Stats struct {
	Offered   uint64
	Delivered uint64
	TailDrops uint64
	PerLane   []uint64 // packets served per lane
	Latency   stats.Summary
}

// Snapshot returns current counters. Latency percentiles are wall-clock
// nanoseconds.
func (e *Engine) Snapshot() Stats {
	st := Stats{
		Offered:   e.offered.Load(),
		Delivered: e.delivered.Load(),
		TailDrops: e.tailDrops.Load(),
	}
	for _, lw := range e.lanes {
		st.PerLane = append(st.PerLane, lw.served.Load())
	}
	st.Latency = e.latency.Snapshot().Summarize()
	return st
}

// StageSnapshot returns the per-stage span summaries (dispatch, queue
// wait, each NF element, service, reorder wait, e2e) in pipeline order,
// or nil when spans are disabled.
func (e *Engine) StageSnapshot() []StageSpan {
	if e.spans == nil {
		return nil
	}
	return e.spans.snapshot()
}
