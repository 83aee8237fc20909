// Package vnet is the virtualized-host substrate of MPDP: bounded packet
// queues served by simulated CPU cores running NF chains, plus the
// noisy-neighbor interference process that creates last-mile stragglers.
//
// The central abstraction is the Lane: one (queue, core, chain-replica)
// tuple, i.e. one *path* through the host data plane. The multipath layer
// (internal/core) schedules packets across a set of lanes; a single-lane
// configuration reproduces the conventional single-path data plane.
//
// Service on a lane is run-to-completion, like a DPDK poll-mode worker: the
// core takes the head packet, runs the full chain on it, and only then looks
// at the queue again. Service time is the chain's deterministic CPU cost,
// multiplied by log-normal cache/branch jitter and by the lane's current
// interference factor.
package vnet

import (
	"fmt"
	"math"

	"mpdp/internal/nf"
	"mpdp/internal/packet"
	"mpdp/internal/sim"
	"mpdp/internal/xrand"
)

// LaneConfig parameterizes one lane.
type LaneConfig struct {
	// QueueCap bounds the number of waiting packets (not counting the one
	// in service). Arrivals beyond it are dropped as DropQueueFull.
	QueueCap int
	// Qdisc overrides the queueing discipline (default: FIFO of QueueCap).
	// Capacity is then the discipline's own; QueueCap is ignored.
	Qdisc Qdisc
	// Chain is this lane's NF chain replica. Required.
	Chain *nf.Chain
	// DispatchOverhead is the fixed per-packet cost of the vswitch getting
	// the packet onto and off the core (descriptor handling, prefetch).
	DispatchOverhead sim.Duration
	// JitterSigma is the σ of the log-normal service-time jitter
	// (0 disables jitter; 0.1–0.2 matches measured software-NF variance).
	JitterSigma float64
	// Interference, if non-nil, supplies the lane's slowdown factor —
	// usually a stochastic *Interference, or a ScriptedSlowdown in
	// timeline experiments.
	Interference Slowdown
	// Packets, if non-nil, takes back the copies the lane discards without
	// telling anyone: cancelled duplicates skipped at the head of the queue.
	Packets *packet.Pool
	// StageHook, if non-nil, observes every chain element's result as the
	// lane serves a packet (see nf.StageHook). Virtual-time only: hooks
	// read r.Cost, never a clock, so an attached hook changes no run
	// outcome.
	StageHook nf.StageHook
}

// Slowdown supplies a time-varying service-time multiplier for a lane.
type Slowdown interface {
	// Factor returns the current multiplier (>= 1; 1 = no slowdown).
	Factor(now sim.Time) float64
}

// DefaultLaneConfig returns the configuration used across the experiment
// suite: a 512-packet queue, 150 ns dispatch cost, σ=0.15 jitter.
func DefaultLaneConfig(chain *nf.Chain) LaneConfig {
	return LaneConfig{
		QueueCap:         512,
		Chain:            chain,
		DispatchOverhead: 150 * sim.Nanosecond,
		JitterSigma:      0.15,
	}
}

// DoneFunc receives every packet whose service completed, with the chain's
// verdict. Policy-dropped packets are reported too (verdict Drop) so the
// caller can account for them.
type DoneFunc func(p *packet.Packet, verdict packet.Verdict)

// FailMode is a lane's injected failure state.
type FailMode uint8

const (
	// LaneHealthy is normal operation.
	LaneHealthy FailMode = iota
	// LaneFailStop models a detectable fail-stop: the lane refuses new
	// packets (Enqueue returns false with DropPathFailed) and everything
	// it held at failure time is handed back synchronously.
	LaneFailStop
	// LaneBlackhole models a silent failure (hung core, wedged queue): the
	// lane keeps accepting packets but never serves them. Nothing is
	// reported; only a watchdog noticing the missing completions can tell.
	LaneBlackhole
)

func (m FailMode) String() string {
	switch m {
	case LaneHealthy:
		return "healthy"
	case LaneFailStop:
		return "fail-stop"
	case LaneBlackhole:
		return "blackhole"
	default:
		return fmt.Sprintf("failmode(%d)", uint8(m))
	}
}

// Lane is one path through the host data plane.
type Lane struct {
	id   int
	sim  *sim.Simulator
	cfg  LaneConfig
	rng  *xrand.Rand
	done DoneFunc

	queue Qdisc
	// serving is the packet on the core and verdict what its chain decided;
	// finish reads both, so the completion event needs no closure of its
	// own — finishFn is bound once, here, for the lane's lifetime.
	serving  *packet.Packet
	verdict  packet.Verdict
	finishFn func()

	// Failure injection state. parked holds a packet whose service was cut
	// short by a blackhole (the hung core still "owns" it); finishEv is the
	// pending completion event, cancelled on failure.
	failMode FailMode
	parked   *packet.Packet
	finishEv sim.Event

	// Counters.
	enqueued   uint64
	tailDrops  uint64
	failDrops  uint64
	served     uint64
	cancelSkip uint64
	busyUntil  sim.Time
	busyTotal  sim.Duration
}

// NewLane builds a lane on simulator s. rng seeds the lane's private jitter
// stream; done receives completions. It panics on a nil chain or simulator.
func NewLane(id int, s *sim.Simulator, cfg LaneConfig, rng *xrand.Rand, done DoneFunc) *Lane {
	if s == nil {
		panic("vnet: NewLane with nil simulator")
	}
	if cfg.Chain == nil {
		panic("vnet: NewLane with nil chain")
	}
	if cfg.QueueCap <= 0 {
		cfg.QueueCap = 512
	}
	if cfg.Qdisc == nil {
		cfg.Qdisc = NewFIFO(cfg.QueueCap)
	}
	l := &Lane{id: id, sim: s, cfg: cfg, rng: rng, done: done, queue: cfg.Qdisc}
	l.finishFn = l.finish
	return l
}

// ID returns the lane's identifier.
func (l *Lane) ID() int { return l.id }

// Chain returns the lane's NF chain replica.
func (l *Lane) Chain() *nf.Chain { return l.cfg.Chain }

// QueueDepth returns waiting packets plus the one in service (or parked on
// a blackholed core).
func (l *Lane) QueueDepth() int {
	d := l.queue.Len()
	if l.serving != nil {
		d++
	}
	if l.parked != nil {
		d++
	}
	return d
}

// QueuedBytes returns the byte backlog (waiting packets only).
func (l *Lane) QueuedBytes() int { return l.queue.Bytes() }

// Enqueue admits a packet at the current virtual time. It returns false and
// stamps the drop reason (DropQueueFull, or DropPathFailed on a fail-stop
// lane) if the packet is rejected. A blackholed lane accepts packets
// normally — they just never come back.
func (l *Lane) Enqueue(p *packet.Packet) bool {
	now := l.sim.Now()
	p.Enqueued = now
	p.PathID = l.id
	if l.failMode == LaneFailStop {
		l.failDrops++
		p.Dropped = packet.DropPathFailed
		return false
	}
	if !l.queue.Enqueue(p) {
		l.tailDrops++
		p.Dropped = packet.DropQueueFull
		return false
	}
	l.enqueued++
	if l.serving == nil && l.parked == nil && l.failMode == LaneHealthy {
		l.startNext()
	}
	return true
}

// startNext begins service on the next packet, skipping cancelled ones.
func (l *Lane) startNext() {
	for {
		p := l.queue.Dequeue()
		if p == nil {
			return
		}
		if p.Cancelled {
			l.discardCancelled(p)
			continue
		}
		l.serve(p)
		return
	}
}

// serve puts p on the core: run the chain now, complete after its cost.
func (l *Lane) serve(p *packet.Packet) {
	now := l.sim.Now()
	l.serving = p
	p.ServiceAt = now
	result := l.cfg.Chain.ProcessHooked(now, p, l.cfg.StageHook)
	l.verdict = result.Verdict
	svc := l.serviceTime(result.Cost)
	l.busyUntil = now + svc
	l.busyTotal += svc
	l.finishEv = l.sim.Schedule(svc, l.finishFn)
}

// discardCancelled drops a dequeued duplicate whose twin already won, at no
// service cost. Its accounting happened at cancel time and nobody is told
// again, so this is the copy's terminal point: it goes back to the pool.
func (l *Lane) discardCancelled(p *packet.Packet) {
	l.cancelSkip++
	p.Dropped = packet.DropCancelled
	l.cfg.Packets.Put(p)
}

// Fail puts the lane into the given failure mode.
//
//   - LaneFailStop: the in-service packet (service aborted) and every queued
//     packet are handed to drop synchronously; subsequent Enqueues are
//     refused with DropPathFailed.
//   - LaneBlackhole: the in-service packet's completion is cancelled and the
//     packet parked (the hung core still holds it); queued packets stay put
//     and new arrivals are silently accepted. drop is not called — a silent
//     failure reports nothing.
//
// Failing an already-failed lane only switches the mode (a blackhole
// escalating to fail-stop drains via drop). drop may be nil.
func (l *Lane) Fail(mode FailMode, drop func(p *packet.Packet)) {
	if mode == LaneHealthy {
		l.Recover()
		return
	}
	l.failMode = mode
	l.finishEv.Cancel()
	if l.serving != nil {
		l.parked, l.serving = l.serving, nil
		l.busyUntil = l.sim.Now()
	}
	if mode == LaneFailStop {
		l.DrainFailed(drop)
	}
}

// DrainFailed hands the parked packet and the entire queue to drop (cancelled
// duplicates are skipped — their accounting happened at cancel time). Used at
// fail-stop time and when a watchdog declares a blackholed lane dead, so the
// caller can hole-punch every in-flight packet.
func (l *Lane) DrainFailed(drop func(p *packet.Packet)) {
	emit := func(p *packet.Packet) {
		p.Dropped = packet.DropPathFailed
		l.failDrops++
		if drop != nil && !p.Cancelled {
			drop(p)
		}
	}
	if l.parked != nil {
		emit(l.parked)
		l.parked = nil
	}
	for {
		p := l.queue.Dequeue()
		if p == nil {
			return
		}
		if p.Cancelled {
			l.discardCancelled(p)
			continue
		}
		emit(p)
	}
}

// Recover returns the lane to healthy operation. A parked blackhole packet
// restarts service from scratch (the core rebooted mid-packet); otherwise
// service resumes from the queue.
func (l *Lane) Recover() {
	if l.failMode == LaneHealthy {
		return
	}
	l.failMode = LaneHealthy
	if p := l.parked; p != nil {
		l.parked = nil
		l.serve(p)
		return
	}
	if l.serving == nil {
		l.startNext()
	}
}

// FailState returns the lane's current failure mode.
func (l *Lane) FailState() FailMode { return l.failMode }

// serviceTime applies dispatch overhead, jitter, and interference to the
// chain's deterministic CPU cost.
func (l *Lane) serviceTime(cost sim.Duration) sim.Duration {
	t := float64(cost + l.cfg.DispatchOverhead)
	if l.cfg.JitterSigma > 0 && l.rng != nil {
		// mu = -sigma^2/2 keeps the mean multiplier at 1.
		sigma := l.cfg.JitterSigma
		t *= l.rng.LogNormal(-sigma*sigma/2, sigma)
	}
	if l.cfg.Interference != nil {
		t *= l.cfg.Interference.Factor(l.sim.Now())
	}
	if t < 1 {
		t = 1
	}
	return sim.Duration(math.Round(t))
}

// finish completes service of the packet on the core. The done callback
// takes the packet over (the engine may recycle it before returning), so
// the lane lets go of it first.
func (l *Lane) finish() {
	p := l.serving
	p.Done = l.sim.Now()
	l.serving = nil
	l.served++
	if l.done != nil {
		l.done(p, l.verdict)
	}
	l.startNext()
}

// CancelQueued marks any *waiting* packet with the given ID as cancelled;
// it is skipped (cost-free) when it reaches the head. A packet already in
// service cannot be cancelled — the core finishes what it started, exactly
// like a real run-to-completion worker. Returns whether a waiting packet
// was found.
func (l *Lane) CancelQueued(id uint64) bool {
	for i := 0; ; i++ {
		p := l.queue.Peek(i)
		if p == nil {
			return false
		}
		if p.ID == id && !p.Cancelled {
			p.Cancelled = true
			return true
		}
	}
}

// EstWait estimates the queueing delay a new arrival would see: the
// remaining service of the in-flight packet plus a per-queued-packet cost
// estimate. The multipath JSQ/adaptive policies use this as their signal.
func (l *Lane) EstWait(perPacketEst sim.Duration) sim.Duration {
	var w sim.Duration
	if l.serving != nil {
		if rem := l.busyUntil - l.sim.Now(); rem > 0 {
			w += rem
		}
	}
	w += sim.Duration(l.queue.Len()) * perPacketEst
	return w
}

// LaneStats is a snapshot of a lane's counters.
type LaneStats struct {
	ID         int
	Enqueued   uint64
	Served     uint64
	TailDrops  uint64
	FailDrops  uint64
	CancelSkip uint64
	BusyTotal  sim.Duration
}

// Stats returns a snapshot of the lane's counters.
func (l *Lane) Stats() LaneStats {
	return LaneStats{
		ID:         l.id,
		Enqueued:   l.enqueued,
		Served:     l.served,
		TailDrops:  l.tailDrops,
		FailDrops:  l.failDrops,
		CancelSkip: l.cancelSkip,
		BusyTotal:  l.busyTotal,
	}
}

// Utilization returns the fraction of elapsed virtual time this lane's core
// spent serving packets.
func (l *Lane) Utilization() float64 {
	now := l.sim.Now()
	if now == 0 {
		return 0
	}
	return float64(l.busyTotal) / float64(now)
}

func (l *Lane) String() string {
	return fmt.Sprintf("lane%d(q=%d served=%d drops=%d)", l.id, l.QueueDepth(), l.served, l.tailDrops)
}
