package experiment

import (
	"fmt"
	"os"

	"mpdp/internal/core"
	"mpdp/internal/fault"
	"mpdp/internal/invariant"
	"mpdp/internal/nf"
	"mpdp/internal/obs"
	"mpdp/internal/packet"
	"mpdp/internal/sim"
	"mpdp/internal/stats"
	"mpdp/internal/trace"
	"mpdp/internal/vnet"
	"mpdp/internal/workload"
	"mpdp/internal/xrand"
)

// RunConfig describes one simulation run of the data plane under a
// packet-level workload. The zero values of most fields take suite
// defaults, so experiments only set what they sweep.
type RunConfig struct {
	Seed     uint64
	NumPaths int     // default 4
	ChainLen int     // preset chain length 1..6, default 3
	Policy   string  // policy name (see NewPolicy), default "mpdp"
	Util     float64 // offered load as a fraction of aggregate capacity, default 0.7

	// TraceFile, when set, replaces the synthetic workload entirely: the
	// recorded packets are replayed at their recorded virtual times and
	// Duration/Util/Arrival/SizeDist are ignored (Duration is derived
	// from the trace span).
	TraceFile string

	// Workload shape.
	Arrival      string       // "poisson" (default), "cbr", "onoff", "mmpp"
	BurstGap     sim.Duration // onoff: gap inside bursts (default mean/10)
	BurstDuty    float64      // onoff: fraction of time in bursts (default 0.1)
	SizeDist     string       // "imix" (default), "fixed:<bytes>", "pareto"
	Flows        int          // flow pool size, default 64
	FlowSkew     float64      // zipf exponent, default 1.05
	BulkFraction float64      // share of bulk-class flows in the pool, default 0.25

	// Host conditions.
	Interference    string // "none" (default), "light", "moderate", "heavy"
	InterferedPaths int
	// SlowdownFor is a scripted override; not serializable to JSON.
	SlowdownFor func(i int) vnet.Slowdown `json:"-"`

	// Policy knobs (used by the mpdp/flowlet/dup policies).
	FlowletTimeout sim.Duration
	DupThreshold   float64
	DupBudget      float64
	DupK           int
	ClassAware     bool

	// Deadline knobs. Deadline > 0 stamps every ingress packet with
	// now+Deadline (any policy; delivery accounting scores hit/miss).
	// DeadlineMargin and the DupBudgetBps/DupBudgetBurst token bucket
	// configure the "deadline" policy; a negative DupBudgetBps means budget
	// zero (duplication disabled outright).
	Deadline       sim.Duration
	DeadlineMargin float64
	DupBudgetBps   float64
	DupBudgetBurst float64

	// Engine knobs.
	QueueCap       int
	Qdisc          string  // "fifo" (default), "prio", "drr"
	JitterSigma    float64 // default 0.15
	ReorderTimeout sim.Duration
	DisableReorder bool
	TimelineWindow sim.Duration

	// Duration is the traffic horizon (default 50 ms of virtual time).
	Duration sim.Duration

	// Warmup discards deliveries before this time from latency stats
	// (default 10% of Duration).
	Warmup sim.Duration

	// Fault, when non-nil, is the fault-injection schedule for the run:
	// lane failures, flaps, NF error windows, telemetry lies.
	Fault *fault.Plan

	// Observability taps (all off by default; attaching them never changes
	// a run's numbers — see DESIGN.md, "Observability").

	// Exemplars keeps the K slowest delivered packets' full event
	// timelines for tail attribution (0 disables).
	Exemplars int
	// EventSink, when non-nil, receives every flight-recorder event (e.g.
	// an obs.Recorder ring buffer or an obs.Writer streaming to disk).
	EventSink obs.Sink `json:"-"`
	// SamplePeriod, when > 0, polls per-lane gauges (queue depth, copies
	// in flight, health state, service rate) every period of virtual time.
	SamplePeriod sim.Duration

	// Verify attaches the end-to-end invariant checker; any violation
	// fails the run with an error. The -verify harness flag forces this on
	// for every run via SetVerify.
	Verify bool
}

// verifyAll is the process-wide verification toggle (the harness's -verify
// flag). It is read once per Run start — set it before launching runs.
var verifyAll bool

// SetVerify turns invariant checking on for every subsequent run,
// regardless of each RunConfig's Verify field.
func SetVerify(v bool) { verifyAll = v }

// VerifyEnabled reports the process-wide verification toggle.
func VerifyEnabled() bool { return verifyAll }

// attachVerify hooks the invariant checker onto a hand-built data plane when
// -verify is on. Call the returned function once the run is over; drained
// says whether the plane was flushed and run dry (full conservation) or cut
// off mid-flight (outstanding packets must still be accounted for).
func attachVerify(dp *core.DataPlane) func(drained bool) error {
	if !verifyAll {
		return func(bool) error { return nil }
	}
	chk := invariant.Attach(dp, invariant.Options{CheckOrder: true})
	return chk.Finish
}

func (c *RunConfig) fillDefaults() {
	if c.NumPaths == 0 {
		c.NumPaths = 4
	}
	if c.ChainLen == 0 {
		c.ChainLen = 3
	}
	if c.Policy == "" {
		c.Policy = "mpdp"
	}
	if c.Util == 0 {
		c.Util = 0.7
	}
	if c.Arrival == "" {
		c.Arrival = "poisson"
	}
	if c.SizeDist == "" {
		c.SizeDist = "imix"
	}
	if c.Flows == 0 {
		c.Flows = 64
	}
	if c.FlowSkew == 0 {
		c.FlowSkew = 1.05
	}
	if c.Interference == "" {
		c.Interference = "none"
	}
	if c.JitterSigma == 0 {
		c.JitterSigma = 0.15
	}
	if c.Duration == 0 {
		c.Duration = 50 * sim.Millisecond
	}
	if c.Warmup == 0 {
		c.Warmup = c.Duration / 10
	}
	if c.BurstDuty == 0 {
		c.BurstDuty = 0.1
	}
}

// interferenceConfig maps the named intensity levels to configurations.
func interferenceConfig(level string) (vnet.InterferenceConfig, error) {
	switch level {
	case "none":
		return vnet.InterferenceConfig{}, nil
	case "light":
		return vnet.InterferenceConfig{
			SlowFactor: 2, MeanOn: 100 * sim.Microsecond, MeanOff: 1900 * sim.Microsecond,
		}, nil
	case "moderate":
		return vnet.DefaultInterferenceConfig(), nil // 4x, 10% duty
	case "heavy":
		return vnet.InterferenceConfig{
			SlowFactor: 8, MeanOn: 400 * sim.Microsecond, MeanOff: 1600 * sim.Microsecond,
		}, nil
	default:
		return vnet.InterferenceConfig{}, fmt.Errorf("experiment: unknown interference level %q", level)
	}
}

// RunResult is the measured outcome of one run.
type RunResult struct {
	Config RunConfig

	Latency      stats.Summary
	CDF          []stats.CDFPoint
	Offered      uint64
	OfferedBytes uint64
	Delivered    uint64
	Lost         uint64
	DeliveryRate float64
	GoodputGbps  float64
	DupOverhead  float64
	DupCancelled uint64
	DupBytes     uint64 // bytes of extra duplicate copies (any duplicating policy)

	// Deadline accounting, non-zero only when Config.Deadline > 0.
	DeadlineHits    uint64
	DeadlineMisses  uint64
	DeadlineHitRate float64

	// DeadlineSched holds the deadline policy's decision counters (nil for
	// other policies); BudgetSpentBytes/BudgetDenied its token bucket.
	DeadlineSched    *core.DeadlineAwareStats
	BudgetSpentBytes uint64
	BudgetDenied     uint64

	QueueWaitMean, QueueWaitP99     float64
	ServiceMean, ServiceP99         float64
	ReorderWaitMean, ReorderWaitP99 float64

	// Per-traffic-class latency (µs at p99; index = nf.TrafficClass).
	ClassP99   [4]float64
	ClassCount [4]uint64

	// PerPathServed is the number of packets each lane's core served.
	PerPathServed []uint64

	// Health machinery counters (non-zero only under fault injection).
	Quarantines uint64
	Canaries    uint64

	Reorder  core.ReorderStats
	Timeline []stats.WindowPoint

	// Exemplars holds the K slowest delivered packets (slowest first) when
	// Config.Exemplars > 0.
	Exemplars []obs.Exemplar `json:"-"`
	// LaneSeries holds per-lane gauge time series when Config.SamplePeriod
	// is positive.
	LaneSeries []obs.LaneSeries `json:"-"`

	Elapsed sim.Duration
}

// Run executes one configuration and returns its measurements.
func Run(cfg RunConfig) (RunResult, error) { return run(cfg, new(packet.Pool)) }

// run is Run on a caller-supplied packet pool — the one the generator mints
// from and the data plane returns to — so tests can poison it and audit its
// counts.
func run(cfg RunConfig, pkts *packet.Pool) (RunResult, error) {
	cfg.fillDefaults()

	intf, err := interferenceConfig(cfg.Interference)
	if err != nil {
		return RunResult{}, err
	}

	// A trace workload fixes the run's duration before anything that
	// depends on it (warmup boundary, drain horizon) is derived.
	var traceRecs []trace.Record
	if cfg.TraceFile != "" {
		f, err := os.Open(cfg.TraceFile)
		if err != nil {
			return RunResult{}, fmt.Errorf("experiment: %w", err)
		}
		traceRecs, err = trace.ReadAll(f)
		closeErr := f.Close()
		if err != nil {
			return RunResult{}, err
		}
		if closeErr != nil {
			return RunResult{}, fmt.Errorf("experiment: closing trace: %w", closeErr)
		}
		if len(traceRecs) == 0 {
			return RunResult{}, fmt.Errorf("experiment: trace %s is empty", cfg.TraceFile)
		}
		cfg.Duration = traceRecs[len(traceRecs)-1].Time + sim.Millisecond
		cfg.Warmup = cfg.Duration / 10
	}

	rng := xrand.New(cfg.Seed ^ 0x9e3779b97f4a7c15)

	// Size distribution.
	var sizes workload.SizeDist
	switch cfg.SizeDist {
	case "imix":
		sizes = workload.IMIX{Rng: rng.Split()}
	case "pareto":
		sizes = workload.BoundedPareto{Alpha: 1.3, Lo: 64, Hi: 1500, Rng: rng.Split()}
	default:
		var bytes int
		if _, err := fmt.Sscanf(cfg.SizeDist, "fixed:%d", &bytes); err != nil || bytes <= 0 {
			return RunResult{}, fmt.Errorf("experiment: unknown size dist %q", cfg.SizeDist)
		}
		sizes = workload.Fixed{Bytes: bytes}
	}

	// Calibrate the arrival rate: mean chain cost on a probe replica.
	probeChain := nf.PresetChain(cfg.ChainLen)
	meanCost := workload.MeanServiceCost(probeChain, sizes, rng.Split(), 300)
	meanCost += 150 * sim.Nanosecond // dispatch overhead
	meanGap := sim.Duration(float64(meanCost) / (cfg.Util * float64(cfg.NumPaths)))
	if meanGap < 1 {
		meanGap = 1
	}

	var arrival workload.Arrival
	switch cfg.Arrival {
	case "poisson":
		arrival = workload.NewPoisson(rng.Split(), meanGap)
	case "cbr":
		arrival = workload.CBR{Gap: meanGap}
	case "onoff":
		burstGap := cfg.BurstGap
		if burstGap == 0 {
			burstGap = sim.Duration(float64(meanGap) * cfg.BurstDuty)
		}
		// Keep the mean rate: duty fraction of time at burstGap spacing.
		meanOn := 20 * burstGap // ~20-packet bursts on average
		duty := float64(burstGap) / float64(meanGap)
		meanOff := sim.Duration(float64(meanOn) * (1 - duty) / duty)
		arrival = workload.NewOnOff(rng.Split(), burstGap, meanOn, meanOff)
	case "mmpp":
		arrival = workload.NewMMPP2(rng.Split(),
			meanGap/2, meanGap*4, 2*sim.Millisecond, 2*sim.Millisecond)
	default:
		return RunResult{}, fmt.Errorf("experiment: unknown arrival %q", cfg.Arrival)
	}

	traffic := workload.NewTraffic(workload.TrafficConfig{
		Arrival: arrival, Size: sizes,
		Flows: cfg.Flows, FlowSkew: cfg.FlowSkew,
		BulkFraction: cfg.BulkFraction,
		Rng:          rng.Split(),
		Packets:      pkts,
	})

	policy, err := NewPolicy(cfg.Policy, rng.Split(), PolicyParams{
		FlowletTimeout: cfg.FlowletTimeout,
		DupThreshold:   cfg.DupThreshold,
		DupBudget:      cfg.DupBudget,
		DupK:           cfg.DupK,
		ClassAware:     cfg.ClassAware,
		Deadline:       cfg.Deadline,
		DeadlineMargin: cfg.DeadlineMargin,
		DupBudgetBps:   cfg.DupBudgetBps,
		DupBudgetBurst: cfg.DupBudgetBurst,
	})
	if err != nil {
		return RunResult{}, err
	}

	var qdiscFor func(i int) vnet.Qdisc
	qcap := cfg.QueueCap
	if qcap == 0 {
		qcap = 512
	}
	switch cfg.Qdisc {
	case "", "fifo":
		// default FIFO
	case "prio":
		qdiscFor = func(i int) vnet.Qdisc { return vnet.NewStrictPriority(3 * qcap) }
	case "drr":
		qdiscFor = func(i int) vnet.Qdisc { return vnet.NewDRR(3*qcap, [3]int{}) }
	default:
		return RunResult{}, fmt.Errorf("experiment: unknown qdisc %q", cfg.Qdisc)
	}

	// A fault plan with NF error windows wraps the affected lanes' chains
	// with the error-mode element; everything else about the chain is the
	// preset.
	chainFor := func(i int) *nf.Chain {
		ch := nf.PresetChain(cfg.ChainLen)
		if el := cfg.Fault.ElementFor(i); el != nil {
			return nf.NewChain(ch.Name()+"+fault", append([]nf.Element{el}, ch.Elements()...)...)
		}
		return ch
	}

	s := sim.New()
	coreCfg := core.Config{
		NumPaths:        cfg.NumPaths,
		ChainFactory:    chainFor,
		Policy:          policy,
		QueueCap:        cfg.QueueCap,
		QdiscFor:        qdiscFor,
		JitterSigma:     cfg.JitterSigma,
		Interference:    intf,
		InterferedPaths: cfg.InterferedPaths,
		SlowdownFor:     cfg.SlowdownFor,
		ReorderTimeout:  cfg.ReorderTimeout,
		DisableReorder:  cfg.DisableReorder,
		Deadline:        cfg.Deadline,
		Seed:            cfg.Seed,
		TimelineWindow:  cfg.TimelineWindow,
		Packets:         pkts,
	}

	// Observability taps. The collector and any caller-supplied sink share
	// one hook stream; a nil MultiSink result leaves recording off (the
	// hooks then cost one nil check each).
	var collector *obs.Collector
	var sinks []obs.Sink
	if cfg.Exemplars > 0 {
		collector = obs.NewCollector(cfg.Exemplars)
		sinks = append(sinks, collector)
	}
	if cfg.EventSink != nil {
		sinks = append(sinks, cfg.EventSink)
	}
	coreCfg.Trace = obs.MultiSink(sinks...)

	// Warmup filtering: the headline latency histogram only counts packets
	// delivered after the warmup boundary; the engine's own Metrics keep
	// full-run counts for throughput and drop accounting.
	measured := stats.NewHist()
	var classHists [4]*stats.Hist
	for i := range classHists {
		classHists[i] = stats.NewHist()
	}
	warmup := cfg.Warmup
	dp := core.New(s, coreCfg, func(p *packet.Packet) {
		if p.Delivered >= warmup {
			lat := int64(p.Latency())
			measured.Record(lat)
			if c := int(nf.ClassOf(p)); c < len(classHists) {
				classHists[c].Record(lat)
			}
		}
	})

	var sampler *obs.Sampler
	if cfg.SamplePeriod > 0 {
		sampler = obs.NewSampler(s, cfg.SamplePeriod, cfg.TimelineWindow, cfg.NumPaths, dp.LaneSample)
	}

	var chk *invariant.Checker
	if cfg.Verify || verifyAll {
		chk = invariant.Attach(dp, invariant.Options{CheckOrder: !cfg.DisableReorder})
	}
	if cfg.Fault != nil {
		if err := cfg.Fault.Install(dp); err != nil {
			return RunResult{}, err
		}
	}

	// Classify at the vNIC (before queueing), like hardware flow steering:
	// class-aware qdiscs and per-class accounting need the DSCP stamp at
	// enqueue time, not after the chain's own classifier runs.
	ingressCls := nf.PresetClassifier()
	ingress := func(p *packet.Packet) {
		ingressCls.Process(s.Now(), p)
		dp.Ingress(p)
	}
	if traceRecs != nil {
		for _, rec := range traceRecs {
			key, err := packet.ExtractFlowKey(rec.Frame)
			if err != nil {
				continue // non-IP records are skipped
			}
			p := &packet.Packet{Data: rec.Frame, Flow: key, FlowID: key.Hash64()}
			s.At(rec.Time, func() { ingress(p) })
		}
	} else {
		traffic.Run(s, ingress, cfg.Duration)
	}
	// Run traffic plus a generous drain window; perpetual interference
	// processes keep the event queue non-empty, so bound by time.
	s.RunUntil(cfg.Duration + 20*sim.Millisecond)
	if sampler != nil {
		sampler.Stop()
	}
	dp.Flush()
	s.RunUntil(cfg.Duration + 25*sim.Millisecond)

	if chk != nil {
		if err := chk.Finish(true); err != nil {
			return RunResult{}, fmt.Errorf("experiment: run (policy=%s seed=%d): %w", cfg.Policy, cfg.Seed, err)
		}
	}

	m := dp.Metrics()
	res := RunResult{
		Config:       cfg,
		Latency:      measured.Summarize(),
		CDF:          measured.CDF(),
		Offered:      m.Offered(),
		OfferedBytes: m.OfferedBytes(),
		Delivered:    m.Delivered(),
		Lost:         m.TotalLost(),
		DeliveryRate: m.DeliveryRate(),
		GoodputGbps:  m.GoodputBps(cfg.Duration) / 1e9,
		DupOverhead:  m.DupOverhead(),
		DupCancelled: m.DupCancelled(),
		DupBytes:     m.DupBytes(),

		DeadlineHits:    m.DeadlineHits(),
		DeadlineMisses:  m.DeadlineMisses(),
		DeadlineHitRate: m.DeadlineHitRate(),

		QueueWaitMean:   m.QueueWait.Mean(),
		QueueWaitP99:    float64(m.QueueWait.Percentile(0.99)),
		ServiceMean:     m.ServiceTime.Mean(),
		ServiceP99:      float64(m.ServiceTime.Percentile(0.99)),
		ReorderWaitMean: m.ReorderWait.Mean(),
		ReorderWaitP99:  float64(m.ReorderWait.Percentile(0.99)),

		Quarantines: m.Quarantines(),
		Canaries:    m.Canaries(),

		Reorder: dp.ReorderStats(),
		Elapsed: cfg.Duration,
	}
	if da, ok := policy.(*core.DeadlineAware); ok {
		st := da.Stats()
		res.DeadlineSched = &st
		if b := da.Budget(); b != nil {
			res.BudgetSpentBytes = b.SpentBytes()
			res.BudgetDenied = b.Denied()
		}
	}
	for i, h := range classHists {
		res.ClassP99[i] = float64(h.Percentile(0.99)) / 1000
		res.ClassCount[i] = h.Count()
	}
	for _, ps := range dp.Paths() {
		res.PerPathServed = append(res.PerPathServed, ps.Lane.Stats().Served)
	}
	if m.Timeline != nil {
		res.Timeline = m.Timeline.Points()
	}
	if collector != nil {
		res.Exemplars = collector.Exemplars()
	}
	if sampler != nil {
		res.LaneSeries = sampler.Series()
	}
	return res, nil
}

// RunSeeds runs the configuration across several seeds (in parallel; see
// RunMany) and returns the per-seed results. Experiments aggregate these
// (typically by averaging the percentile of interest) to damp run-to-run
// variance.
func RunSeeds(cfg RunConfig, seeds int) ([]RunResult, error) {
	return RunMany(seedConfigs(cfg, seeds), 0)
}

// MeanP99Micros averages the p99 latency (µs) across results.
func MeanP99Micros(rs []RunResult) float64 {
	if len(rs) == 0 {
		return 0
	}
	var sum float64
	for _, r := range rs {
		sum += float64(r.Latency.P99) / 1000
	}
	return sum / float64(len(rs))
}
