// Quickstart: build a 4-path multipath data plane running a realistic NF
// chain, push one million Poisson-arriving packets through it, and print
// the last-mile latency distribution.
//
//	go run ./examples/quickstart
package main

import (
	"fmt"

	"mpdp/internal/core"
	"mpdp/internal/nf"
	"mpdp/internal/sim"
	"mpdp/internal/vnet"
	"mpdp/internal/workload"
	"mpdp/internal/xrand"
)

func main() {
	s := sim.New()

	// The data plane: 4 lanes, each running its own replica of the
	// standard 5-element chain (classifier, firewall, router, monitor,
	// DPI), with a noisy neighbor on every core, scheduled by the full
	// MPDP policy.
	dp := core.New(s, core.Config{
		NumPaths:     4,
		ChainFactory: func(i int) *nf.Chain { return nf.PresetChain(5) },
		Policy:       core.NewMPDP(core.DefaultMPDPConfig()),
		JitterSigma:  0.15,
		Interference: vnet.DefaultInterferenceConfig(),
		Seed:         42,
	}, nil)

	// The workload: Poisson arrivals of IMIX-sized frames from 64 flows,
	// targeting ~70% of aggregate capacity.
	rng := xrand.New(7)
	meanCost := workload.MeanServiceCost(nf.PresetChain(5), workload.IMIX{Rng: rng.Split()}, rng.Split(), 200)
	gap := sim.Duration(float64(meanCost+150) / (0.7 * 4))
	traffic := workload.NewTraffic(workload.TrafficConfig{
		Arrival: workload.NewPoisson(rng.Split(), gap),
		Size:    workload.IMIX{Rng: rng.Split()},
		Flows:   64,
		Rng:     rng.Split(),
		Packets: dp.Packets(), // the plane returns finished packets here; the generator reuses them
	})

	const horizon = 200 * sim.Millisecond
	traffic.Run(s, dp.Ingress, horizon)
	s.RunUntil(horizon + 10*sim.Millisecond)
	dp.Flush()
	s.RunUntil(horizon + 15*sim.Millisecond)

	m := dp.Metrics()
	sum := m.Latency.Summarize()
	fmt.Printf("delivered %d/%d packets in order (%.2f%% delivery, %.2f Gbps goodput)\n",
		m.Delivered(), m.Offered(), m.DeliveryRate()*100, m.GoodputBps(horizon)/1e9)
	fmt.Printf("last-mile latency: p50=%.1fus p90=%.1fus p99=%.1fus p99.9=%.1fus\n",
		us(sum.P50), us(sum.P90), us(sum.P99), us(sum.P999))
	fmt.Printf("duplication overhead %.1f%%, out-of-order arrivals %.2f%%\n",
		m.DupOverhead()*100, dp.ReorderStats().OOOFraction()*100)

	for _, ps := range dp.Paths() {
		st := ps.Lane.Stats()
		fmt.Printf("  path %d: served %d packets, utilization %.1f%%\n",
			st.ID, st.Served, ps.Lane.Utilization()*100)
	}
}

func us(ns int64) float64 { return float64(ns) / 1000 }
