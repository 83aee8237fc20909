package core

import (
	"slices"

	"mpdp/internal/packet"
	"mpdp/internal/sim"
	"mpdp/internal/xrand"
)

// Policy decides, per ingress packet, which path(s) it is sent down.
// Returning more than one index duplicates the packet (the engine clones it
// and the reorder buffer keeps whichever copy wins).
//
// Policies are pure schedulers: the engine owns telemetry updates and
// duplication mechanics. Every policy (except SinglePath, which has nowhere
// else to go) consults path health: Quarantined and Probing paths receive no
// new picks. When NO path is eligible — a mass failure — policies fall back
// to ignoring health, so traffic keeps flowing (and keeps the watchdog fed)
// rather than panicking.
type Policy interface {
	// Name identifies the policy in tables and CLI flags.
	Name() string
	// Pick returns 1..len(paths) distinct path indices for packet p.
	Pick(now sim.Time, p *packet.Packet, paths []*PathState) []int
}

// answer is the result buffer every policy embeds: Pick's return value is
// the policy's own scratch slice, valid until its next Pick — which is all
// the engine needs, since it consumes the indices before asking again — so
// answering allocates nothing once the buffer has its capacity.
type answer struct{ out []int }

// pick overwrites the buffer with idxs and returns it.
func (a *answer) pick(idxs ...int) []int {
	a.out = append(a.out[:0], idxs...)
	return a.out
}

// --- Baselines -------------------------------------------------------------

// SinglePath always uses path 0: the conventional single-queue, single-core
// virtualized data plane (the paper's primary "before" case).
type SinglePath struct{ answer }

// Name implements Policy.
func (*SinglePath) Name() string { return "single" }

// Pick implements Policy.
func (sp *SinglePath) Pick(now sim.Time, p *packet.Packet, paths []*PathState) []int {
	return sp.pick(0)
}

// RSSHash statically hashes each flow to a path with the NIC's Toeplitz
// function: the standard multi-queue baseline. Never reorders, never
// adapts — elephant collisions and slow cores hurt whoever hashed there.
type RSSHash struct{ answer }

// Name implements Policy.
func (*RSSHash) Name() string { return "rss" }

// Pick implements Policy.
func (r *RSSHash) Pick(now sim.Time, p *packet.Packet, paths []*PathState) []int {
	i := packet.RSSQueue(packet.DefaultRSSKey, p.Flow, len(paths))
	if paths[i].Eligible() {
		return r.pick(i)
	}
	// The hashed queue is down: linear-probe to the next eligible one,
	// modelling an indirection-table repair. Static — flows from the dead
	// queue pile onto its neighbor.
	for off := 1; off < len(paths); off++ {
		if j := (i + off) % len(paths); paths[j].Eligible() {
			return r.pick(j)
		}
	}
	return r.pick(i)
}

// RoundRobin sprays packets across paths per packet: perfect balance,
// maximal reordering. The classic "why not just spray" strawman.
type RoundRobin struct {
	answer
	next int
}

// Name implements Policy.
func (*RoundRobin) Name() string { return "rr" }

// Pick implements Policy.
func (rr *RoundRobin) Pick(now sim.Time, p *packet.Packet, paths []*PathState) []int {
	n := len(paths)
	for try := 0; try < n; try++ {
		i := rr.next % n
		rr.next++
		if paths[i].Eligible() {
			return rr.pick(i)
		}
	}
	i := rr.next % n
	rr.next++
	return rr.pick(i)
}

// RandomPick sends each packet to a uniformly random eligible path.
type RandomPick struct {
	answer
	Rng *xrand.Rand

	elig []int // scratch
}

// Name implements Policy.
func (*RandomPick) Name() string { return "random" }

// Pick implements Policy.
func (rp *RandomPick) Pick(now sim.Time, p *packet.Packet, paths []*PathState) []int {
	cand := eligibleInto(&rp.elig, paths)
	if cand == nil {
		return rp.pick(rp.Rng.Intn(len(paths)))
	}
	return rp.pick(cand[rp.Rng.Intn(len(cand))])
}

// JSQ joins the shortest queue (by instantaneous depth) per packet.
type JSQ struct{ answer }

// Name implements Policy.
func (*JSQ) Name() string { return "jsq" }

// Pick implements Policy.
func (q *JSQ) Pick(now sim.Time, p *packet.Packet, paths []*PathState) []int {
	best, bestDepth := -1, 0
	for i, ps := range paths {
		if !ps.Eligible() {
			continue
		}
		if d := ps.Depth(); best == -1 || d < bestDepth {
			best, bestDepth = i, d
		}
	}
	if best == -1 {
		best, bestDepth = 0, paths[0].Depth()
		for i := 1; i < len(paths); i++ {
			if d := paths[i].Depth(); d < bestDepth {
				best, bestDepth = i, d
			}
		}
	}
	return q.pick(best)
}

// PowerOfTwo samples two random eligible paths and picks the shallower:
// near-JSQ balance at O(1) state, the standard randomized load-balancing
// result.
type PowerOfTwo struct {
	answer
	Rng *xrand.Rand

	elig []int // scratch
}

// Name implements Policy.
func (*PowerOfTwo) Name() string { return "po2" }

// Pick implements Policy.
func (p2 *PowerOfTwo) Pick(now sim.Time, p *packet.Packet, paths []*PathState) []int {
	cand := eligibleInto(&p2.elig, paths)
	if cand == nil {
		p2.elig = p2.elig[:0]
		for i := range paths {
			p2.elig = append(p2.elig, i)
		}
		cand = p2.elig
	}
	if len(cand) == 1 {
		return p2.pick(cand[0])
	}
	ai := p2.Rng.Intn(len(cand))
	bi := p2.Rng.Intn(len(cand) - 1)
	if bi >= ai {
		bi++
	}
	a, b := cand[ai], cand[bi]
	if paths[b].Depth() < paths[a].Depth() {
		return p2.pick(b)
	}
	return p2.pick(a)
}

// eligibleInto fills *buf with the indices of eligible paths, returning nil
// (not an empty slice) when no path is eligible so callers can fall back.
func eligibleInto(buf *[]int, paths []*PathState) []int {
	*buf = (*buf)[:0]
	for i, ps := range paths {
		if ps.Eligible() {
			*buf = append(*buf, i)
		}
	}
	if len(*buf) == 0 {
		return nil
	}
	return *buf
}

// --- The MPDP policies ------------------------------------------------------

// Flowlet steers at flowlet granularity: packets of a flow arriving within
// Timeout of the previous one stay on the flow's current path (no
// reordering inside a burst); after an idle gap the flow is re-steered to
// the path with the lowest Score. This is the adaptive half of the
// multipath data plane.
type Flowlet struct {
	// Timeout is the idle gap that ends a flowlet. Must exceed the
	// typical path-latency skew to keep reordering negligible; 500 µs
	// is the suite default.
	Timeout sim.Duration

	answer
	table map[uint64]*flowletEntry
}

type flowletEntry struct {
	path     int
	lastSeen sim.Time
}

// NewFlowlet returns a flowlet-switching policy with the given idle gap.
func NewFlowlet(timeout sim.Duration) *Flowlet {
	if timeout < 0 {
		panic("core: NewFlowlet with negative timeout")
	}
	return &Flowlet{Timeout: timeout, table: make(map[uint64]*flowletEntry)}
}

// Steer overrides the flow's current path assignment (used by MPDP's
// emergency reroute when the assigned path degrades mid-flowlet).
func (f *Flowlet) Steer(flowID uint64, path int, now sim.Time) {
	e, ok := f.table[flowID]
	if !ok {
		//lint:allow hotalloc one entry per flow at first sight, amortized over the flow's packets
		e = &flowletEntry{}
		f.table[flowID] = e
	}
	e.path, e.lastSeen = path, now
}

// Name implements Policy.
func (f *Flowlet) Name() string { return "flowlet" }

// Pick implements Policy. The returned slice is the policy's reusable
// scratch buffer: it is valid until the next Pick/Steer call, matching the
// engine's consume-immediately usage. Steady state is allocation-free; the
// per-flow table entry is the only (amortized) allocation.
//
//mpdp:hotpath bench=BenchmarkFlowletPick
func (f *Flowlet) Pick(now sim.Time, p *packet.Packet, paths []*PathState) []int {
	e, ok := f.table[p.FlowID]
	if ok && now-e.lastSeen <= f.Timeout {
		e.lastSeen = now
		// A sticky path that went quarantined/probing forces an immediate
		// re-steer — the whole point of health integration.
		if e.path < len(paths) && paths[e.path].Eligible() {
			return f.pick(e.path)
		}
	}
	best := bestScore(paths)
	if !ok {
		//lint:allow hotalloc one entry per flow at first sight, amortized over the flow's packets
		e = &flowletEntry{}
		f.table[p.FlowID] = e
	}
	e.path, e.lastSeen = best, now
	return f.pick(best)
}

// bestScore returns the index of the lowest-Score eligible path (ties to the
// lowest index, keeping runs deterministic); when no path is eligible, the
// lowest-Score path regardless of health.
func bestScore(paths []*PathState) int {
	best := -1
	var bs sim.Duration
	for i, ps := range paths {
		if !ps.Eligible() {
			continue
		}
		if s := ps.Score(); best == -1 || s < bs {
			best, bs = i, s
		}
	}
	if best == -1 {
		best, bs = 0, paths[0].Score()
		for i := 1; i < len(paths); i++ {
			if s := paths[i].Score(); s < bs {
				best, bs = i, s
			}
		}
	}
	return best
}

// secondBest returns the index of the second-lowest-Score eligible path
// (!= first), or first itself when there is no other candidate.
func secondBest(paths []*PathState, first int) int {
	best := -1
	var bestScore sim.Duration
	for i, ps := range paths {
		if i == first || !ps.Eligible() {
			continue
		}
		if s := ps.Score(); best == -1 || s < bestScore {
			best, bestScore = i, s
		}
	}
	if best == -1 {
		return first
	}
	return best
}

// Redundant duplicates every packet to the K best paths; the first copy to
// finish wins and the engine cancels queued siblings. Maximal tail
// protection, maximal overhead — the upper bound of the duplication axis.
type Redundant struct {
	answer
	// K is the number of copies (>= 2).
	K int
}

// Name implements Policy.
func (r *Redundant) Name() string { return "dup-all" }

// Pick implements Policy.
func (r *Redundant) Pick(now sim.Time, p *packet.Packet, paths []*PathState) []int {
	k := r.K
	if k < 2 {
		k = 2
	}
	if k > len(paths) {
		k = len(paths)
	}
	// With health on, only eligible paths get copies: duplication degrades
	// gracefully to fewer copies as paths fail.
	haveElig := false
	for _, ps := range paths {
		if ps.Eligible() {
			haveElig = true
			break
		}
	}
	r.pick(bestScore(paths))
	for len(r.out) < k {
		next, nextScore := -1, sim.Duration(0)
		for i := range paths {
			if slices.Contains(r.out, i) || (haveElig && !paths[i].Eligible()) {
				continue
			}
			if s := paths[i].Score(); next == -1 || s < nextScore {
				next, nextScore = i, s
			}
		}
		if next == -1 {
			break
		}
		r.out = append(r.out, next)
	}
	return r.out
}

// MPDPConfig tunes the full multipath policy.
type MPDPConfig struct {
	// FlowletTimeout is the idle gap ending a flowlet (default 500 µs).
	FlowletTimeout sim.Duration
	// DupThreshold triggers duplication when the chosen path is
	// *unpredictable*: its observed p99 latency exceeds DupThreshold × its
	// mean latency (default 8). A path with a tight latency distribution
	// never duplicates no matter how loaded — queue depth is handled by
	// steering and rerouting; duplication guards against the slowdowns
	// telemetry cannot see coming (interference striking mid-service).
	DupThreshold float64
	// DupBudget caps duplicated packets as a fraction of ingress
	// (default 0.25): bounds overhead so duplication cannot collapse
	// throughput at high load.
	DupBudget float64
	// ClassAware restricts duplication to latency-sensitive packets
	// (classifier-stamped TOS), when true.
	ClassAware bool
	// RerouteThreshold triggers an emergency mid-flowlet reroute when the
	// assigned path's estimated wait exceeds RerouteThreshold × its mean
	// service time AND another path is at least 2× better. This accepts a
	// small reordering cost to escape a path that degraded under the
	// flow's feet (default 4; 0 disables).
	RerouteThreshold float64
}

// DefaultMPDPConfig returns the suite defaults.
func DefaultMPDPConfig() MPDPConfig {
	return MPDPConfig{
		FlowletTimeout:   500 * sim.Microsecond,
		DupThreshold:     8,
		DupBudget:        0.25,
		RerouteThreshold: 4,
	}
}

// MPDP is the paper's full policy: flowlet-adaptive steering, emergency
// mid-flowlet rerouting away from degraded paths, and tail-aware selective
// duplication under a budget.
type MPDP struct {
	answer
	cfg     MPDPConfig
	flowlet *Flowlet

	picked     uint64
	duplicated uint64
	rerouted   uint64
}

// NewMPDP builds the full policy.
func NewMPDP(cfg MPDPConfig) *MPDP {
	if cfg.FlowletTimeout <= 0 {
		cfg.FlowletTimeout = 500 * sim.Microsecond
	}
	if cfg.DupThreshold <= 0 {
		cfg.DupThreshold = 8
	}
	if cfg.DupBudget < 0 {
		cfg.DupBudget = 0
	}
	return &MPDP{cfg: cfg, flowlet: NewFlowlet(cfg.FlowletTimeout)}
}

// Name implements Policy.
func (m *MPDP) Name() string { return "mpdp" }

// Pick implements Policy. Like Flowlet.Pick, the returned slice is a
// reusable scratch buffer valid until the next call; the steady state
// allocates nothing (CI-gated by BenchmarkMPDPPick).
//
//mpdp:hotpath bench=BenchmarkMPDPPick
func (m *MPDP) Pick(now sim.Time, p *packet.Packet, paths []*PathState) []int {
	m.picked++
	choice := m.flowlet.Pick(now, p, paths)
	if len(paths) == 1 {
		return choice
	}
	first := choice[0]

	// Emergency reroute: the flowlet's path degraded under it and a much
	// better path exists. Move the whole flow (the reorder stage absorbs
	// the one-time skew).
	if m.cfg.RerouteThreshold > 0 {
		cur := paths[first]
		wait := cur.EstWait()
		if wait > sim.Duration(m.cfg.RerouteThreshold*float64(cur.MeanService())) {
			alt := bestScore(paths)
			if alt != first && 2*paths[alt].Score() < cur.Score() {
				m.rerouted++
				m.flowlet.Steer(p.FlowID, alt, now)
				first = alt
			}
		}
	}

	if !m.shouldDuplicate(p, paths[first]) {
		return m.pick(first)
	}
	second := secondBest(paths, first)
	// Duplicate only onto spare capacity: a copy sent to a busy path adds
	// pressure exactly when the system is congested (the dup-all
	// pathology, quantified in E7/E12). A nearly idle twin path serves
	// the copy for free.
	if second == first || paths[second].Depth() > 1 {
		return m.pick(first)
	}
	m.duplicated++
	return m.pick(first, second)
}

// Rerouted reports how many packets triggered an emergency reroute.
func (m *MPDP) Rerouted() uint64 { return m.rerouted }

// shouldDuplicate applies the unpredictability trigger, class filter, and
// budget: duplicate when the chosen path has recently exhibited straggler
// behaviour (observed p99 latency ≫ nominal service time) — visible queue
// depth is already handled by steering/rerouting, so this fires exactly for
// the slowdowns the scheduler cannot route around preemptively.
func (m *MPDP) shouldDuplicate(p *packet.Packet, chosen *PathState) bool {
	if m.cfg.DupBudget == 0 {
		return false
	}
	// Budget check first: duplicated so far must stay under budget.
	if float64(m.duplicated) >= m.cfg.DupBudget*float64(m.picked) {
		return false
	}
	if m.cfg.ClassAware && latencyClassOf(p) != classLatencySensitive {
		return false
	}
	base := chosen.MeanLatency()
	if svc := chosen.MeanService(); base < svc {
		base = svc
	}
	trigger := sim.Duration(m.cfg.DupThreshold * float64(base))
	return chosen.P99Latency() > trigger
}

// DupFraction reports the fraction of packets the policy duplicated.
func (m *MPDP) DupFraction() float64 {
	if m.picked == 0 {
		return 0
	}
	return float64(m.duplicated) / float64(m.picked)
}

// Latency class plumbing: read the classifier's DSCP stamp without
// importing nf (core must not depend on specific elements).
const classLatencySensitive = 1 // mirrors nf.ClassLatencySensitive

func latencyClassOf(p *packet.Packet) int {
	pr, err := packet.ParseFrame(p.Data)
	if err != nil || !pr.IsIP {
		return 0
	}
	return int(pr.IP.TOS >> 2)
}
