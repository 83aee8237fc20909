package experiment

import (
	"fmt"

	"mpdp/internal/sim"
)

// CheckShapes runs a fast battery of the suite's headline qualitative
// claims and returns a list of violations (empty = all shapes hold). Both
// `mpdp-bench -check` and the TestHeadlineShapes test run it: something a
// user can run after modifying the data plane to see whether the paper's
// story still stands on their machine.
func CheckShapes(opts SuiteOpts) ([]string, error) {
	opts.fill()
	var bad []string
	seed := opts.Seed + 4

	// Every run of the battery goes onto one worker pool.
	at := func(policy string, paths int, util float64, intf string, d sim.Duration) RunConfig {
		return RunConfig{Seed: seed, Policy: policy, NumPaths: paths, Util: util, Interference: intf, Duration: d}
	}
	cfgs := []RunConfig{
		at("single", 1, 0.5, "none", 10*sim.Millisecond),
		at("single", 1, 0.5, "heavy", 10*sim.Millisecond),
		at("dup-all", 0, 0.8, "moderate", 8*sim.Millisecond),
		at("mpdp", 0, 0.8, "moderate", 8*sim.Millisecond),
		at("rr", 0, 0.7, "moderate", 8*sim.Millisecond),
	}
	cfgs = append(cfgs, seedConfigs(at("rss", 0, 0.7, "moderate", 10*sim.Millisecond), 3)...)
	cfgs = append(cfgs, seedConfigs(at("mpdp", 0, 0.7, "moderate", 10*sim.Millisecond), 3)...)
	rs, err := RunMany(cfgs, 0)
	if err != nil {
		return nil, err
	}
	clean, noisy, dupAll, budgeted, rr := rs[0], rs[1], rs[2], rs[3], rs[4]
	rss, mpdp := rs[5:8], rs[8:11]

	// 1. Motivation: interference inflates the single-path tail far more
	//    than the median.
	tailBlow := float64(noisy.Latency.P99) / float64(clean.Latency.P99)
	medBlow := float64(noisy.Latency.P50) / float64(clean.Latency.P50)
	if tailBlow < 5 {
		bad = append(bad, fmt.Sprintf("E1 shape: heavy-interference tail blowup only %.1fx (want >= 5x)", tailBlow))
	}
	if medBlow > tailBlow/2 {
		bad = append(bad, fmt.Sprintf("E1 shape: median blowup %.1fx not well below tail blowup %.1fx", medBlow, tailBlow))
	}

	// 2. Headline: mpdp p99 well below rss at 70% load.
	if MeanP99Micros(mpdp) >= MeanP99Micros(rss)/1.5 {
		bad = append(bad, fmt.Sprintf("E2 shape: mpdp p99 %.1fus not well below rss %.1fus",
			MeanP99Micros(mpdp), MeanP99Micros(rss)))
	}

	// 3. Duplication discipline: dup-all ~100% overhead; mpdp within budget.
	if dupAll.DupOverhead < 0.99 {
		bad = append(bad, fmt.Sprintf("E7 shape: dup-all overhead %.2f (want ~1.0)", dupAll.DupOverhead))
	}
	if budgeted.DupOverhead > 0.26 {
		bad = append(bad, fmt.Sprintf("E7 shape: mpdp dup overhead %.2f exceeds the 25%% budget", budgeted.DupOverhead))
	}

	// 4. Ordering discipline: rss never reorders; rr reorders massively.
	if f := rss[0].Reorder.OOOFraction(); f != 0 {
		bad = append(bad, fmt.Sprintf("E8 shape: rss OOO fraction %.4f != 0", f))
	}
	if f := rr.Reorder.OOOFraction(); f < 0.1 {
		bad = append(bad, fmt.Sprintf("E8 shape: rr OOO fraction %.4f suspiciously low (want >= 0.1)", f))
	}

	// 5. Conservation: nothing is silently lost.
	for _, r := range mpdp {
		if r.Delivered+r.Lost != r.Offered {
			bad = append(bad, fmt.Sprintf("accounting: delivered %d + lost %d != offered %d",
				r.Delivered, r.Lost, r.Offered))
		}
	}
	return bad, nil
}
