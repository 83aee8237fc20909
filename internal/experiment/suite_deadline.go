package experiment

import (
	"fmt"
	"sync"
	"time"

	"mpdp/internal/core"
	"mpdp/internal/packet"
	"mpdp/internal/sim"
	"mpdp/internal/stats"
	"mpdp/internal/transport"
)

// e22 is the cost/tail frontier of deadline-aware duplication, in sim and
// on the loopback wire.
//
// The paper's tail win is bought with duplicated bytes; the existing menu
// only offers the two extremes (never duplicate / always duplicate). E22
// measures what the DeadlineAware policy buys between them: every
// contender runs the same moderate-interference workload with a per-packet
// deadline stamped at ingress, so deadline-hit-rate and p99 are comparable
// across the whole menu, and duplicated bytes put every policy on the same
// cost axis.
//
//   - Table 1 / Figure 1: the policy menu — p99, deadline-hit rate, and
//     duplication cost per policy. The acceptance shape: "deadline" lands
//     within 10% of dup-all's p99 while spending well under half its
//     duplicated bytes.
//   - Figure 2: the frontier — the deadline policy swept across DupBudget
//     rates from zero to effectively-unbounded, tracing duplicated-byte
//     fraction (x) against p99 (y), with jsq and dup-all as the endpoints.
//   - Table 2: the wire leg — the same policy shapes (rr, least-inflight,
//     hedge, deadline) on real loopback UDP paths under injected delay
//     faults, scored against a 2 ms deadline.
var e22 = &experiment{
	id:    "E22",
	title: "deadline-aware duplication: cost/tail frontier, sim + loopback wire",
	notes: []string{
		"expected shape: deadline matches (or beats) dup-all's p99 at a small fraction of its duplicated bytes; budget zero degrades to best-single-path",
	},
	grid: grid{
		base: e22Base,
		// A negative DupBudgetBps is budget zero.
		series: append(policies("rr", "jsq", "dup-all", "mpdp", "deadline"),
			point{label: "deadline-b0", set: func(c *cellConfig) { c.Policy, c.DupBudgetBps = "deadline", -1 }}),
		measures: []measure{
			p99,
			{name: "hit_pct", format: "%.2f", of: func(r RunResult) float64 { return r.DeadlineHitRate * 100 }},
			e22DupBytePct,
			{name: "dup_denied", format: "%.0f", of: func(r RunResult) float64 {
				if r.DeadlineSched == nil {
					return 0
				}
				return float64(r.DeadlineSched.Denied)
			}},
			{name: "delivery_pct", format: "%.1f", of: deliveryPct},
		},
		table: &Table{
			Name:    "E22",
			Title:   fmt.Sprintf("policy menu @util 0.7, moderate interference, deadline %s", e22Base.Deadline),
			Columns: []string{"policy"},
		},
		figures: []plot{{Figure: Figure{Name: "E22", Title: "duplication cost vs p99, policy menu", XLabel: "dup_byte_pct", YLabel: "p99_us"}}},
	},
	finish: e22Finish,
}

// e22Base is the sim leg's common workload. Sim latencies at util 0.7 sit
// in the tens-to-hundreds of microseconds, so the deadline that makes
// escalation a live decision is ~100 µs: loose enough that the best path
// usually suffices, tight enough that moderate interference puts a real
// fraction of packets at risk. (The wire leg keeps the 2 ms flag default —
// loopback RTTs against 3 ms delay faults live on a millisecond scale.)
var e22Base = RunConfig{
	NumPaths:     4,
	Util:         0.7,
	Interference: "moderate",
	Deadline:     100 * sim.Microsecond,
	Duration:     50 * sim.Millisecond,
}

var e22DupBytePct = measure{name: "dup_byte_pct", format: "%.3f", of: func(r RunResult) float64 {
	return 100 * float64(r.DupBytes) / float64(max(r.OfferedBytes, 1))
}}

// e22Frontier sweeps the deadline policy's budget rate (quick runs stop at
// 1 MBps).
var e22Frontier = grid{
	base:     e22Base,
	series:   policies("deadline"),
	axis:     sweep(func(c *cellConfig, bps float64) { c.DupBudgetBps = bps }, -1, 64<<10, 256<<10, 1<<20, 4<<20, 16<<20),
	measures: []measure{p99, e22DupBytePct},
	figures:  []plot{{Figure: Figure{Name: "E22f", Title: "deadline policy: dup-budget sweep (cost/tail frontier)", XLabel: "dup_byte_pct", YLabel: "p99_us"}}},
}

// e22Finish adds the sim acceptance note, read off the menu figure (one
// point per policy), then the frontier and the wire leg.
func e22Finish(res *Result, opts SuiteOpts) error {
	at := func(label string) Point {
		for _, c := range res.Figures[0].Curves {
			if c.Label == label {
				return c.Points[0]
			}
		}
		return Point{}
	}
	if hedge, dl := at("dup-all"), at("deadline"); hedge.Y > 0 {
		res.Notes = append(res.Notes, fmt.Sprintf(
			"acceptance: deadline p99 %.1fus vs dup-all %.1fus (%.2fx) at %.3f%% vs %.3f%% duplicated bytes",
			dl.Y, hedge.Y, dl.Y/hedge.Y, dl.X, hedge.X))
	}
	frontier := e22Frontier
	if opts.Quick {
		frontier.axis = frontier.axis[:4:4]
	}
	if err := frontier.runInto(res, opts); err != nil {
		return err
	}

	// --- Wire leg: the same shapes on loopback UDP under burst faults. --
	// The fault model is the paper's: episodic last-mile degradation (a
	// burst of 3 ms delays on one path), not i.i.d. per-frame noise. A
	// telemetry-driven scheduler can react to an episode — the first
	// delayed acks inflate the path's RTT/jitter estimate, steering and
	// escalation cover the rest of the burst — whereas uncorrelated
	// single-frame faults are unpredictable by construction and only
	// blanket duplication can absorb them.
	packets := uint64(4000)
	if opts.Quick {
		packets = 1000
	}
	wtab := Table{
		Name:    "E22w",
		Title:   "loopback wire: 3ms delay bursts on path 0, 2ms deadline",
		Columns: []string{"sched", "delivered", "hit_pct", "p99_ms", "dup_bytes", "frames"},
	}
	var wireHedge, wireDeadline e22WireRow
	for _, sched := range []transport.SchedulerName{
		transport.SchedRoundRobin,
		transport.SchedLeastInflight,
		transport.SchedHedge,
		transport.SchedDeadline,
	} {
		row, err := e22WireRun(sched, packets)
		if err != nil {
			return err
		}
		switch sched {
		case transport.SchedHedge:
			wireHedge = row
		case transport.SchedDeadline:
			wireDeadline = row
		}
		wtab.Rows = append(wtab.Rows, []string{
			string(sched),
			fmt.Sprintf("%d", row.delivered),
			fmt.Sprintf("%.2f", row.hitPct),
			fmt.Sprintf("%.3f", row.p99ms),
			fmt.Sprintf("%d", row.dupBytes),
			fmt.Sprintf("%d", row.frames),
		})
	}
	if wireHedge.p99ms > 0 {
		res.Notes = append(res.Notes, fmt.Sprintf(
			"wire acceptance: deadline p99 %.3fms vs hedge %.3fms (%.2fx) at %d vs %d duplicated bytes (%.1f%%)",
			wireDeadline.p99ms, wireHedge.p99ms, wireDeadline.p99ms/wireHedge.p99ms,
			wireDeadline.dupBytes, wireHedge.dupBytes,
			100*float64(wireDeadline.dupBytes)/float64(max(wireHedge.dupBytes, 1))))
	}
	res.Tables = append(res.Tables, wtab)
	return nil
}

// e22WireRow is one loopback run condensed to the table's columns.
type e22WireRow struct {
	delivered uint64
	hitPct    float64
	p99ms     float64
	dupBytes  uint64
	frames    uint64
}

// e22WireRun drives one loopback run against the burst fault pattern. The
// send rate is paced (5000 pkt/s) so a burst spans many send intervals:
// reacting to the first late acks can still save most of the episode.
func e22WireRun(sched transport.SchedulerName, packets uint64) (e22WireRow, error) {
	var mu sync.Mutex
	lat := stats.NewHist()
	// Burst geometry scales with the packet count: two episodes per run,
	// each covering 1/8 of the frames sent while it is open.
	period := packets / 2
	if period == 0 {
		period = 1
	}
	rep, err := transport.RunLoopback(transport.LoopbackConfig{
		Paths:     2,
		Scheduler: sched,
		Deadline:  2 * time.Millisecond,
		// ~1 MiB/s of duplication with a deep enough burst to cover a
		// cluster of delayed-RTT escalations.
		DupBudgetBytesPerSec: 1 << 20,
		DupBudgetBurst:       64 << 10,
		Packets:              packets,
		Rate:                 5000,
		Payload:              256,
		// Health thresholds scaled to loopback RTTs: the sim-scaled 1 ms
		// blackhole watchdog would flap paths on every 3 ms burst and the
		// quarantine churn, not the scheduler, would set the tail.
		Health: core.HealthConfig{
			SuspectTimeout:    sim.Duration(200 * time.Millisecond),
			QuarantineBackoff: sim.Duration(50 * time.Millisecond),
			ProbeSuccesses:    4,
			DropWindowMin:     64,
		},
		Impairer: transport.NewBurstImpairer(transport.BurstImpairConfig{
			Path:   0,
			Period: period,
			Length: period / 8,
			Delay:  3 * time.Millisecond,
		}),
		OnDeliver: func(p *packet.Packet) {
			mu.Lock()
			lat.Record(int64(p.Delivered - p.Ingress))
			mu.Unlock()
		},
	})
	if err != nil {
		return e22WireRow{}, err
	}
	if err := rep.Verify(); err != nil {
		return e22WireRow{}, fmt.Errorf("experiment: E22 wire (%s): %w", sched, err)
	}
	row := e22WireRow{
		delivered: rep.Delivered,
		dupBytes:  rep.Sender.DupBytes,
		frames:    rep.Frames,
	}
	if total := rep.DeadlineHits + rep.DeadlineMisses; total > 0 {
		row.hitPct = 100 * float64(rep.DeadlineHits) / float64(total)
	}
	mu.Lock()
	row.p99ms = float64(lat.Percentile(0.99)) / 1e6
	mu.Unlock()
	return row, nil
}
