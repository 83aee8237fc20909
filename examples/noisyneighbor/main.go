// Noisy neighbor: the paper's motivation, runnable. The same workload is
// pushed through a conventional single-path data plane and through MPDP
// with four paths, while noisy neighbors randomly slow the cores 8x. The
// median barely differs; the tail tells the story.
//
//	go run ./examples/noisyneighbor
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

func run(name string, numPaths int, policy core.Policy) {
	s := sim.New()
	dp := core.New(s, core.Config{
		NumPaths:     numPaths,
		ChainFactory: func(i int) *nf.Chain { return nf.PresetChain(3) },
		Policy:       policy,
		JitterSigma:  0.15,
		Interference: vnet.InterferenceConfig{
			SlowFactor: 8,
			MeanOn:     200 * sim.Microsecond,
			MeanOff:    1800 * sim.Microsecond,
		},
		Seed: 11,
	}, nil)

	// Identical offered rate for both systems: 50% of ONE core, so the
	// single-path baseline is not overloaded on average — its tail pain
	// comes purely from interference episodes.
	rng := xrand.New(23)
	meanCost := workload.MeanServiceCost(nf.PresetChain(3), workload.IMIX{Rng: rng.Split()}, rng.Split(), 200)
	gap := sim.Duration(float64(meanCost+150) / 0.5)
	traffic := workload.NewTraffic(workload.TrafficConfig{
		Arrival: workload.NewPoisson(rng.Split(), gap),
		Size:    workload.IMIX{Rng: rng.Split()},
		Flows:   48,
		Rng:     rng.Split(),
		Packets: dp.Packets(), // the plane returns finished packets here; the generator reuses them
	})

	const horizon = 150 * sim.Millisecond
	traffic.Run(s, dp.Ingress, horizon)
	s.RunUntil(horizon + 20*sim.Millisecond)
	dp.Flush()
	s.RunUntil(horizon + 25*sim.Millisecond)

	sum := dp.Metrics().Latency.Summarize()
	fmt.Printf("%-22s p50=%7.1fus  p90=%7.1fus  p99=%7.1fus  p99.9=%7.1fus  delivery=%.2f%%\n",
		name,
		float64(sum.P50)/1000, float64(sum.P90)/1000,
		float64(sum.P99)/1000, float64(sum.P999)/1000,
		dp.Metrics().DeliveryRate()*100)
}

func main() {
	fmt.Println("identical workload, 8x noisy neighbors on every core:")
	fmt.Println()
	run("single-path (classic)", 1, &core.SinglePath{})
	run("4-path RSS (static)", 4, &core.RSSHash{})
	run("4-path MPDP", 4, core.NewMPDP(core.DefaultMPDPConfig()))
	fmt.Println()
	fmt.Println("the last mile matters: the median is fine everywhere; only the")
	fmt.Println("multipath data plane keeps the tail close to the median.")
}
