package core

import (
	"mpdp/internal/packet"
	"mpdp/internal/sim"
	"mpdp/internal/stats"
)

// This file is the deadline-aware half of the duplication axis (DA-MPS /
// CEDA-MPS style): instead of duplicating on a path's *unpredictability*
// (MPDP's trigger), DeadlineAware duplicates only when a specific packet's
// deadline is at risk on its best path — and pays for every duplicate out
// of a global byte token bucket, so the total cost of tail protection is
// bounded and observable no matter how pessimistic the risk estimates get.

// maxFiniteDur bounds every derived duration so adversarial telemetry
// (lying tampers, fuzzed feeds) can inflate an estimate but never overflow
// int64 arithmetic or turn it into NaN downstream.
const maxFiniteDur = sim.Duration(1) << 60

// clampDur maps an arbitrary float64 onto a finite non-negative duration.
func clampDur(v float64) sim.Duration {
	if v != v || v < 0 { // NaN or negative
		return 0
	}
	if v > float64(maxFiniteDur) {
		return maxFiniteDur
	}
	return sim.Duration(v)
}

// FluctuationMonitor tracks one path's latency level and dispersion: an
// EWMA of observed latency plus an EWMA of its absolute deviation (jitter).
// The pair yields a cheap upper estimate of what the path will do to the
// *next* packet — mean + k·deviation — which is what deadline risk is
// judged against. A path with a tight distribution keeps its estimate near
// the mean; a fluctuating path inflates it long before the mean moves.
type FluctuationMonitor struct {
	mean *stats.EWMA
	dev  *stats.EWMA
}

// NewFluctuationMonitor returns a monitor with smoothing factor alpha
// (values outside (0,1] take the telemetry default 0.2).
func NewFluctuationMonitor(alpha float64) *FluctuationMonitor {
	if !(alpha > 0 && alpha <= 1) { // rejects NaN too
		alpha = 0.2
	}
	return &FluctuationMonitor{mean: stats.NewEWMA(alpha), dev: stats.NewEWMA(alpha)}
}

// Observe feeds one latency sample. Negative samples (possible only under
// lying telemetry) clamp to zero: the monitor absorbs adversarial feeds
// without poisoning its state.
func (f *FluctuationMonitor) Observe(lat sim.Duration) {
	if lat < 0 {
		lat = 0
	}
	if lat > maxFiniteDur {
		lat = maxFiniteDur
	}
	if !f.mean.Set() {
		f.mean.Add(float64(lat))
		return // first sample anchors the mean; no deviation yet
	}
	d := float64(lat) - f.mean.Value()
	if d < 0 {
		d = -d
	}
	f.mean.Add(float64(lat))
	f.dev.Add(d)
}

// Mean returns the smoothed latency level.
func (f *FluctuationMonitor) Mean() sim.Duration { return clampDur(f.mean.Value()) }

// Deviation returns the smoothed absolute deviation (jitter).
func (f *FluctuationMonitor) Deviation() sim.Duration { return clampDur(f.dev.Value()) }

// Estimate returns the monitor's pessimistic next-packet latency bound:
// mean + margin·deviation, clamped finite.
func (f *FluctuationMonitor) Estimate(margin float64) sim.Duration {
	return clampDur(f.mean.Value() + margin*f.dev.Value())
}

// DupBudget is a global duplication-bytes token bucket in virtual time:
// duplicating a packet spends its size in bytes; tokens refill at Rate
// bytes per virtual second up to Burst. Shared across all paths, so the
// total duplication cost of a run is bounded by Burst + Rate·elapsed —
// a hard, observable cap rather than a per-packet probability.
//
// The bucket is engine-owned state like the policies themselves: callers
// serialize access (the simulator is sequential; the wire sender holds its
// own lock). Tokens never go negative: a spend either fits or is denied.
type DupBudget struct {
	rate  float64 // bytes per virtual second
	burst float64 // bucket capacity in bytes

	tokens  float64
	last    sim.Time
	started bool

	spent  uint64 // bytes granted to duplicates
	grants uint64 // successful TrySpend calls
	denied uint64 // refused TrySpend calls
}

// NewDupBudget returns a bucket refilling at bytesPerSec up to burst.
// Non-finite or negative inputs clamp to zero; a zero burst with a
// positive rate defaults to 10 ms worth of rate (a bucket that can never
// hold a token would silently disable duplication). A bucket with zero
// rate AND zero burst denies everything — the budget=0 degradation case.
func NewDupBudget(bytesPerSec, burst float64) *DupBudget {
	if !(bytesPerSec > 0) {
		bytesPerSec = 0
	}
	if !(burst > 0) {
		burst = 0
	}
	const maxBytes = 1 << 50
	if bytesPerSec > maxBytes {
		bytesPerSec = maxBytes
	}
	if burst > maxBytes {
		burst = maxBytes
	}
	if burst == 0 && bytesPerSec > 0 {
		burst = bytesPerSec / 100
		if burst < 1 {
			burst = 1
		}
	}
	return &DupBudget{rate: bytesPerSec, burst: burst}
}

// refill advances the bucket to now. Time moving backwards (possible only
// in adversarial feeds) refills nothing and leaves the clock anchored.
func (b *DupBudget) refill(now sim.Time) {
	if !b.started {
		b.started = true
		b.last = now
		b.tokens = b.burst // start full: the first at-risk packet is covered
		return
	}
	if now > b.last {
		b.tokens += b.rate * (now - b.last).Seconds()
		b.last = now
	}
	if b.tokens > b.burst {
		b.tokens = b.burst
	}
}

// TrySpend withdraws size bytes if the bucket holds them, reporting
// whether the duplication may proceed. Non-positive sizes cost nothing but
// still require a live budget (zero-capacity buckets deny everything).
func (b *DupBudget) TrySpend(now sim.Time, size int) bool {
	if b.rate == 0 && b.burst == 0 {
		b.denied++
		return false
	}
	b.refill(now)
	if size < 0 {
		size = 0
	}
	if float64(size) > b.tokens {
		b.denied++
		return false
	}
	b.tokens -= float64(size)
	b.spent += uint64(size)
	b.grants++
	return true
}

// Tokens returns the bytes currently available.
func (b *DupBudget) Tokens() float64 { return b.tokens }

// Rate returns the refill rate in bytes per virtual second.
func (b *DupBudget) Rate() float64 { return b.rate }

// Burst returns the bucket capacity in bytes.
func (b *DupBudget) Burst() float64 { return b.burst }

// SpentBytes returns total bytes granted to duplicates.
func (b *DupBudget) SpentBytes() uint64 { return b.spent }

// Grants returns successful spends.
func (b *DupBudget) Grants() uint64 { return b.grants }

// Denied returns refused spends.
func (b *DupBudget) Denied() uint64 { return b.denied }

// Allowance returns the hard upper bound on what the bucket can have
// granted after elapsed virtual time: Burst + Rate·elapsed.
func (b *DupBudget) Allowance(elapsed sim.Duration) float64 {
	if elapsed < 0 {
		elapsed = 0
	}
	return b.burst + b.rate*elapsed.Seconds()
}

// DeadlineAwareConfig tunes the DeadlineAware policy.
type DeadlineAwareConfig struct {
	// Deadline is the per-packet latency budget assumed for packets that
	// carry no deadline of their own (default 2 ms). Packets stamped with
	// an absolute packet.Deadline are judged against that instead.
	Deadline sim.Duration
	// Margin is the jitter multiplier of the risk estimate: a path is
	// "safe" when EstWait + MeanService + Margin·jitter fits the remaining
	// budget (default 3). Clamped to [0, 64].
	Margin float64
	// Budget is the global duplication-bytes token bucket. nil (or a
	// zero-capacity bucket) disables duplication entirely: the policy is
	// then exactly its best-single-path choice.
	Budget *DupBudget
}

// DefaultDeadlineAwareConfig returns the suite defaults (1 MiB/s of
// duplication with a 64 KiB burst).
func DefaultDeadlineAwareConfig() DeadlineAwareConfig {
	return DeadlineAwareConfig{
		Deadline: 2 * sim.Millisecond,
		Margin:   3,
		Budget:   NewDupBudget(1<<20, 64<<10),
	}
}

// DeadlineAware schedules per-packet: the best single path when the
// packet's deadline looks safe there, best-plus-second-best when the
// fluctuation-adjusted estimate says the deadline is at risk — and only
// when the global DupBudget covers the extra copy's bytes. Packets whose
// deadline is already blown get a single path too: a duplicate cannot
// un-miss a deadline, so spending budget on it would be pure waste.
type DeadlineAware struct {
	answer
	cfg DeadlineAwareConfig

	picked     uint64
	safe       uint64 // deadline judged safe on the best path
	atRisk     uint64 // deadline judged at risk
	late       uint64 // deadline already blown at pick time
	duplicated uint64 // duplications performed
	denied     uint64 // duplications suppressed (budget, capacity, topology)
}

// NewDeadlineAware builds the policy, clamping degenerate tunables.
func NewDeadlineAware(cfg DeadlineAwareConfig) *DeadlineAware {
	if cfg.Deadline < 0 {
		cfg.Deadline = 0
	}
	if !(cfg.Margin >= 0) { // rejects NaN
		cfg.Margin = 3
	}
	if cfg.Margin > 64 {
		cfg.Margin = 64
	}
	return &DeadlineAware{cfg: cfg}
}

// Name implements Policy.
func (d *DeadlineAware) Name() string { return "deadline" }

// Pick implements Policy.
func (d *DeadlineAware) Pick(now sim.Time, p *packet.Packet, paths []*PathState) []int {
	d.picked++
	first := bestScore(paths)
	if len(paths) == 1 {
		return d.pick(first)
	}

	deadline := p.Deadline
	if deadline == 0 {
		if d.cfg.Deadline <= 0 {
			d.safe++ // no deadline to protect: pure best-single-path
			return d.pick(first)
		}
		deadline = now + d.cfg.Deadline
	}
	remaining := deadline - now
	if remaining <= 0 {
		d.late++
		return d.pick(first)
	}

	if d.estimate(paths[first]) <= remaining {
		d.safe++
		return d.pick(first)
	}
	d.atRisk++

	second := secondBest(paths, first)
	if second == first {
		d.denied++
		return d.pick(first)
	}
	// The copy is insurance, not a miracle: buy it only when the second
	// path could plausibly beat the deadline on its *optimistic* estimate
	// (queue wait plus one service, no jitter margin). A copy that cannot
	// arrive in time — or one queued behind a deep backlog — is budget
	// spent on nothing, and skipping it also keeps copies off contested
	// paths (the dup-all pathology).
	if paths[second].Score() > remaining {
		d.denied++
		return d.pick(first)
	}
	if d.cfg.Budget == nil || !d.cfg.Budget.TrySpend(now, p.Size()) {
		d.denied++
		return d.pick(first)
	}
	d.duplicated++
	return d.pick(first, second)
}

// estimate is the pessimistic completion bound for a new arrival on ps:
// current queue estimate plus one service, inflated by the fluctuation
// monitor's jitter term. Clamped finite under any telemetry.
func (d *DeadlineAware) estimate(ps *PathState) sim.Duration {
	base := float64(ps.EstWait()) + float64(ps.MeanService())
	return clampDur(base + d.cfg.Margin*float64(ps.Fluct().Deviation()))
}

// Budget returns the policy's token bucket (nil when duplication is off).
func (d *DeadlineAware) Budget() *DupBudget { return d.cfg.Budget }

// Stats returns the policy's decision counters.
func (d *DeadlineAware) Stats() DeadlineAwareStats {
	return DeadlineAwareStats{
		Picked: d.picked, Safe: d.safe, AtRisk: d.atRisk, Late: d.late,
		Duplicated: d.duplicated, Denied: d.denied,
	}
}

// DeadlineAwareStats is a snapshot of the policy's decisions.
type DeadlineAwareStats struct {
	Picked     uint64 `json:"picked"`
	Safe       uint64 `json:"safe"`
	AtRisk     uint64 `json:"at_risk"`
	Late       uint64 `json:"late"`
	Duplicated uint64 `json:"duplicated"`
	Denied     uint64 `json:"denied"`
}
