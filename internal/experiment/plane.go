package experiment

import (
	"fmt"

	"mpdp/internal/core"
	"mpdp/internal/nf"
	"mpdp/internal/packet"
	"mpdp/internal/sim"
	"mpdp/internal/stats"
	"mpdp/internal/vnet"
	"mpdp/internal/workload"
	"mpdp/internal/xrand"
)

// plane is a hand-built data plane for the experiments whose workload Run
// cannot drive (incast, flow-level, adversarial, closed-loop, composed
// chains): four lanes under moderate interference. Its RNG stream is
// xrand.New(seed) with the policy split off first, not Run's, so these
// cells keep their own numbers; workloads draw from rng after the policy.
type plane struct {
	s      *sim.Simulator
	dp     *core.DataPlane
	rng    *xrand.Rand
	policy core.Policy
	finish func(drained bool) error
}

func newPlane(c cellConfig) (*plane, error) {
	rng := xrand.New(c.Seed)
	policy, err := NewPolicy(c.Policy, rng.Split(), PolicyParams{})
	if err != nil {
		return nil, err
	}
	return &plane{s: sim.New(), rng: rng, policy: policy}, nil
}

// build creates the data plane, delivering to deliver, and arms the
// invariant checker under -verify.
func (p *plane) build(c cellConfig, deliver func(*packet.Packet)) {
	chain := c.chain
	if chain == nil {
		chain = func() *nf.Chain { return nf.PresetChain(3) }
	}
	p.dp = core.New(p.s, core.Config{
		NumPaths:     4,
		ChainFactory: func(int) *nf.Chain { return chain() },
		Policy:       p.policy,
		JitterSigma:  0.15,
		Interference: vnet.DefaultInterferenceConfig(),
		Seed:         c.Seed,
		QueueCap:     c.QueueCap,
	}, deliver)
	p.finish = attachVerify(p.dp)
}

// drain runs the simulation to until, flushes the plane, lets it settle for
// another settle, and checks full conservation.
func (p *plane) drain(until, settle sim.Duration) error {
	p.s.RunUntil(until)
	p.dp.Flush()
	p.s.RunUntil(until + settle)
	return p.finish(true)
}

// recordLatency returns a delivery callback recording packet latency in h.
func recordLatency(h *stats.Hist) func(*packet.Packet) {
	return func(p *packet.Packet) { h.Record(int64(p.Latency())) }
}

// imixPoisson draws IMIX sizes and Poisson arrivals calibrated so that the
// preset chain of chainLen NFs, plus dispatch, loads four lanes to util.
func imixPoisson(rng *xrand.Rand, chainLen int, util float64) (workload.IMIX, workload.Arrival) {
	sizes := workload.IMIX{Rng: rng.Split()}
	meanCost := workload.MeanServiceCost(nf.PresetChain(chainLen), sizes, rng.Split(), 300)
	gap := sim.Duration(float64(meanCost+150) / (util * 4))
	return sizes, workload.NewPoisson(rng.Split(), gap)
}

// incast runs one E6 cell: c.n servers answer each request with 20 KB at
// once. It measures the p99 response completion time (µs).
func incast(c cellConfig, quick bool) ([]float64, error) {
	p, err := newPlane(c)
	if err != nil {
		return nil, err
	}
	epochs := 60
	if quick {
		epochs = 15
	}
	ic := workload.NewIncast(workload.IncastConfig{
		Fanin: c.n, Response: 20_000,
		Epoch: 500 * sim.Microsecond, Epochs: epochs,
		PacketGap: 300 * sim.Nanosecond,
		Rng:       p.rng.Split(),
	})
	p.build(c, ic.Tracker.OnDeliver)
	ic.Run(p.s, p.dp.Ingress)
	if err := p.drain(sim.Duration(epochs+40)*500*sim.Microsecond, 5*sim.Millisecond); err != nil {
		return nil, err
	}
	if ic.Tracker.ShortFCT.Count() == 0 {
		return nil, fmt.Errorf("incast: no completed responses (fanin %d, policy %s)", c.n, c.Policy)
	}
	return []float64{float64(ic.Tracker.ShortFCT.Percentile(0.99)) / 1000}, nil
}

// flowFCT runs one E13 cell, a flow-level workload, and measures
// [shortP50, shortP99, longP50, longP99] flow completion times in µs and
// the completed-flow percentage.
func flowFCT(c cellConfig, _ bool) ([]float64, error) {
	p, err := newPlane(c)
	if err != nil {
		return nil, err
	}
	sizes := workload.WebSearch(p.rng.Split())
	// Calibrate flow arrival rate to ~60% utilization of 4 paths:
	// packets/flow × per-packet cost × flow rate = 0.6 × 4.
	meanCost := float64(workload.MeanServiceCost(nf.PresetChain(3), workload.Fixed{Bytes: 1500}, p.rng.Split(), 100) + 150)
	pktsPerFlow := sizes.Mean() / 1458 // MTU payload
	flowGap := sim.Duration(pktsPerFlow * meanCost / (0.6 * 4))

	fw := workload.NewFlowWorkload(workload.FlowConfig{
		MeanGap:   flowGap,
		Sizes:     sizes,
		PacketGap: 500 * sim.Nanosecond,
		Rng:       p.rng.Split(),
	})
	p.build(c, fw.Tracker.OnDeliver)
	fw.Run(p.s, p.dp.Ingress, c.Duration)
	// Elephants keep emitting past the horizon; allow a long drain.
	if err := p.drain(c.Duration+100*sim.Millisecond, 5*sim.Millisecond); err != nil {
		return nil, err
	}
	tr := fw.Tracker
	if tr.ShortFCT.Count() == 0 {
		return nil, fmt.Errorf("E13: no short flows completed (policy %s)", c.Policy)
	}
	return []float64{
		float64(tr.ShortFCT.Percentile(0.50)) / 1000,
		float64(tr.ShortFCT.Percentile(0.99)) / 1000,
		float64(tr.LongFCT.Percentile(0.50)) / 1000,
		float64(tr.LongFCT.Percentile(0.99)) / 1000,
		float64(tr.Completed()) / float64(tr.Started()) * 100,
	}, nil
}

// composition runs one E16 cell, IMIX traffic through the chain c.chain,
// and measures [serviceMeanUs, p50Us, p99Us, delivery%].
func composition(c cellConfig, _ bool) ([]float64, error) {
	p, err := newPlane(c)
	if err != nil {
		return nil, err
	}
	// Calibrate on the sequential chain so every composition sees the
	// same packet rate: composition benefits show as latency, not load.
	sizes, arrival := imixPoisson(p.rng, 5, c.Util)
	traffic := workload.NewTraffic(workload.TrafficConfig{
		Arrival: arrival,
		Size:    sizes,
		Flows:   64,
		Rng:     p.rng.Split(),
	})
	lat := stats.NewHist()
	p.build(c, recordLatency(lat))
	cls := nf.PresetClassifier()
	traffic.Run(p.s, func(pk *packet.Packet) {
		cls.Process(p.s.Now(), pk)
		p.dp.Ingress(pk)
	}, c.Duration)
	if err := p.drain(c.Duration+10*sim.Millisecond, 2*sim.Millisecond); err != nil {
		return nil, err
	}
	m := p.dp.Metrics()
	return []float64{
		m.ServiceTime.Mean() / 1000,
		float64(lat.Percentile(0.50)) / 1000,
		float64(lat.Percentile(0.99)) / 1000,
		m.DeliveryRate() * 100,
	}, nil
}

// hashAttack runs one E17 cell, flows crafted to Toeplitz-hash onto queue
// 0, and measures [delivery%, p50us, p99us, busiestLaneShare%].
func hashAttack(c cellConfig, _ bool) ([]float64, error) {
	p, err := newPlane(c)
	if err != nil {
		return nil, err
	}
	sizes, arrival := imixPoisson(p.rng, 3, c.Util)
	traffic := workload.NewCollisionTraffic(arrival, sizes, p.rng.Split(), 64, 4, 0)
	lat := stats.NewHist()
	p.build(c, recordLatency(lat))
	traffic.Run(p.s, p.dp.Ingress, c.Duration)
	if err := p.drain(c.Duration+15*sim.Millisecond, 2*sim.Millisecond); err != nil {
		return nil, err
	}
	var total, busiest uint64
	for _, ps := range p.dp.Paths() {
		served := ps.Lane.Stats().Served
		total += served
		busiest = max(busiest, served)
	}
	var share float64
	if total > 0 {
		share = float64(busiest) / float64(total) * 100
	}
	return []float64{
		p.dp.Metrics().DeliveryRate() * 100,
		float64(lat.Percentile(0.50)) / 1000,
		float64(lat.Percentile(0.99)) / 1000,
		share,
	}, nil
}

// closedLoop runs one E18 cell, c.n closed-loop RPC clients, and measures
// [request p99 µs, achieved kreq/s].
func closedLoop(c cellConfig, _ bool) ([]float64, error) {
	p, err := newPlane(c)
	if err != nil {
		return nil, err
	}
	cl := workload.NewClosedLoop(workload.ClosedLoopConfig{
		Clients: c.n, RequestBytes: 2000,
		MeanThink: 100 * sim.Microsecond,
		Rng:       p.rng.Split(),
	})
	p.build(c, cl.OnDeliver)
	cl.Start(p.s, p.dp.Ingress)
	p.s.RunUntil(c.Duration)
	// The closed loop is cut off mid-flight (requests are always
	// outstanding by construction), so conservation is checked in its
	// weaker, undrained form.
	if err := p.finish(false); err != nil {
		return nil, err
	}
	completed := cl.Completed()
	if completed == 0 {
		return nil, fmt.Errorf("E18: no requests completed (policy %s, %d clients)", c.Policy, c.n)
	}
	return []float64{
		float64(cl.Latency.Percentile(0.99)) / 1000,
		float64(completed) / c.Duration.Seconds() / 1000,
	}, nil
}
