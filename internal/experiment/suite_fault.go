package experiment

import (
	"fmt"
	"math"

	"mpdp/internal/fault"
	"mpdp/internal/sim"
)

// e20 is the fault-recovery timeline: one of the four lanes is silently
// killed (blackhole: it keeps accepting packets and swallows them) a third
// of the way into the run and never repaired. The figure tracks windowed
// p99 latency through the failure; the table condenses it to pre-failure
// p99, peak p99, time-to-recover, and delivery rate.
//
// The three contenders span the design space:
//
//   - single: the conventional single-path plane. Its only lane died; it
//     never recovers and delivers nothing for the rest of the run.
//   - rss: static hashing with failover — the health machinery steers the
//     dead queue's flows to a neighbor, but statically, so the survivors
//     carry an unbalanced load.
//   - mpdp: adaptive multipath — detection plus flowlet re-steering spreads
//     the dead lane's load across all survivors.
var e20 = &experiment{
	id: "E20",
	notes: []string{
		"expected shape: single-path flatlines at the failure and never returns; rss and mpdp spike while the watchdog confirms the blackhole, then recover — rss settles higher (the dead queue's flows all land on one neighbor), mpdp re-spreads them",
	},
	grid: grid{
		base: RunConfig{
			Util:           0.6,
			TimelineWindow: 2 * sim.Millisecond,
			Duration:       60 * sim.Millisecond,
			Warmup:         1, // the timeline wants the whole run
		},
		series: []point{blackholed("single", 1), blackholed("rss", 4), blackholed("mpdp", 4)},
		single: true,
		measures: []measure{
			{name: "paths", format: "%.0f", of: func(r RunResult) float64 { return float64(r.Config.NumPaths) }},
			{name: "prefail_p99_us", format: "%.1f", of: func(r RunResult) float64 { return recovery(r)[0] }},
			{name: "peak_p99_us", format: "%.1f", of: func(r RunResult) float64 { return recovery(r)[1] }},
			{name: "recover_ms", format: "%.1f", of: func(r RunResult) float64 { return recovery(r)[2] }},
			{name: "delivery_pct", format: "%.1f", of: deliveryPct},
			count("quarantines", func(r RunResult) uint64 { return r.Quarantines }),
			count("canaries", func(r RunResult) uint64 { return r.Canaries }),
		},
		table:   &Table{Name: "E20", Title: "recovery summary", Columns: []string{"policy"}},
		figures: []plot{{Figure{Name: "E20", Title: "windowed p99 across a silent lane failure", XLabel: "t_ms", YLabel: "p99_us"}, windowP99}},
	},
	finish: func(res *Result, opts SuiteOpts) error {
		res.Title = fmt.Sprintf("fault recovery: lane 0 blackholed at t=%.0fms (permanent), util 0.6",
			float64(opts.duration(60*sim.Millisecond)/3)/1e6)
		return nil
	},
}

// blackholed is an E20 contender: policy on paths lanes, lane 0 blackholed
// for good a third of the way into the run.
func blackholed(policy string, paths int) point {
	return point{label: policy, set: func(c *cellConfig) {
		c.Policy, c.NumPaths = policy, paths
		c.Fault = &fault.Plan{
			Seed:  c.Seed,
			Lanes: []fault.LaneFailure{{Path: 0, At: c.Duration / 3, Mode: fault.ModeBlackhole}},
		}
	}}
}

// recovery condenses an E20 run's windowed p99 (µs) into the mean before
// the failure, the peak after it, and the time to recover in ms (NaN:
// never).
func recovery(r RunResult) [3]float64 {
	failAt := int64(r.Config.Fault.Lanes[0].At)
	window := int64(r.Config.TimelineWindow)
	p99 := func(wp int) float64 { return float64(r.Timeline[wp].Hist.Percentile(0.99)) / 1000 }
	var prefailSum float64
	var prefailN int
	for i, wp := range r.Timeline {
		if wp.Start+window <= failAt {
			prefailSum += p99(i)
			prefailN++
		}
	}
	prefail := 0.0
	if prefailN > 0 {
		prefail = prefailSum / float64(prefailN)
	}
	// Post-failure: the peak window, then the first window at or after the
	// peak back within 1.5x of the pre-failure p99 — time-to-recover counts
	// from the failure until the worst is over AND the tail is back to
	// normal, so a late spike can't be mistaken for recovery.
	peak, peakStart := 0.0, int64(-1)
	for i, wp := range r.Timeline {
		if wp.Start >= failAt && p99(i) > peak {
			peak, peakStart = p99(i), wp.Start
		}
	}
	recoverMs := math.NaN()
	for i, wp := range r.Timeline {
		if peakStart >= 0 && wp.Start >= peakStart && prefail > 0 && p99(i) <= 1.5*prefail {
			recoverMs = (float64(wp.Start) - float64(failAt)) / 1e6
			break
		}
	}
	return [3]float64{prefail, peak, recoverMs}
}
