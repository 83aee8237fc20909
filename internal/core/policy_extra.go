package core

import (
	"mpdp/internal/packet"
	"mpdp/internal/sim"
	"mpdp/internal/xrand"
)

// LetFlow re-steers each flowlet to a *uniformly random* path, relying on
// the flowlet mechanism's implicit load sensitivity (congested paths
// stretch packet gaps, splitting flows into more flowlets that then leave).
// This reproduces the LetFlow design point: no telemetry at all, just
// flowlet boundaries + randomness.
type LetFlow struct {
	answer
	Timeout sim.Duration
	Rng     *xrand.Rand

	table map[uint64]*flowletEntry
	elig  []int // scratch
}

// NewLetFlow builds the policy with the given flowlet idle gap.
func NewLetFlow(timeout sim.Duration, rng *xrand.Rand) *LetFlow {
	if timeout < 0 {
		panic("core: NewLetFlow with negative timeout")
	}
	if rng == nil {
		panic("core: NewLetFlow with nil rng")
	}
	return &LetFlow{Timeout: timeout, Rng: rng, table: make(map[uint64]*flowletEntry)}
}

// Name implements Policy.
func (l *LetFlow) Name() string { return "letflow" }

// Pick implements Policy.
func (l *LetFlow) Pick(now sim.Time, p *packet.Packet, paths []*PathState) []int {
	e, ok := l.table[p.FlowID]
	if ok && now-e.lastSeen <= l.Timeout && e.path < len(paths) && paths[e.path].Eligible() {
		e.lastSeen = now
		return l.pick(e.path)
	}
	var choice int
	if cand := eligibleInto(&l.elig, paths); cand != nil {
		choice = cand[l.Rng.Intn(len(cand))]
	} else {
		choice = l.Rng.Intn(len(paths))
	}
	if !ok {
		e = &flowletEntry{}
		l.table[p.FlowID] = e
	}
	e.path, e.lastSeen = choice, now
	return l.pick(choice)
}

// LeastLatency steers every packet to the path with the lowest smoothed
// latency estimate (EWMA), ignoring instantaneous queue depth. It shows
// what telemetry lag costs: the EWMA trails reality, so bursts pile onto a
// path that *was* fast.
type LeastLatency struct{ answer }

// Name implements Policy.
func (*LeastLatency) Name() string { return "least-lat" }

// Pick implements Policy.
func (ll *LeastLatency) Pick(now sim.Time, p *packet.Packet, paths []*PathState) []int {
	best := -1
	var bestLat sim.Duration
	for i, ps := range paths {
		if !ps.Eligible() {
			continue
		}
		if l := ps.MeanLatency(); best == -1 || l < bestLat {
			best, bestLat = i, l
		}
	}
	if best == -1 {
		best, bestLat = 0, paths[0].MeanLatency()
		for i := 1; i < len(paths); i++ {
			if l := paths[i].MeanLatency(); l < bestLat {
				best, bestLat = i, l
			}
		}
	}
	return ll.pick(best)
}

// WeightedRR distributes packets round-robin weighted by each path's
// observed service rate: a path whose mean service time is twice as long
// gets half the packets. Adapts to heterogeneous paths but not to
// transient interference.
type WeightedRR struct {
	answer
	credit []float64
}

// Name implements Policy.
func (*WeightedRR) Name() string { return "wrr" }

// Pick implements Policy.
func (w *WeightedRR) Pick(now sim.Time, p *packet.Packet, paths []*PathState) []int {
	if len(w.credit) != len(paths) {
		w.credit = make([]float64, len(paths))
	}
	// Accumulate credit proportional to service *rate* and spend it.
	// Ineligible paths neither earn nor spend: they leave the rotation
	// entirely and re-enter at their old credit when they recover.
	best, bestCredit := -1, -1.0
	for i, ps := range paths {
		if !ps.Eligible() {
			continue
		}
		w.credit[i] += 1.0 / float64(ps.MeanService())
		if w.credit[i] > bestCredit {
			best, bestCredit = i, w.credit[i]
		}
	}
	if best == -1 {
		for i, ps := range paths {
			w.credit[i] += 1.0 / float64(ps.MeanService())
			if w.credit[i] > bestCredit {
				best, bestCredit = i, w.credit[i]
			}
		}
	}
	w.credit[best] -= bestCredit // spend: push to the back of the rotation
	return w.pick(best)
}
