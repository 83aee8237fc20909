// Incast: a partition/aggregate frontend fans a query out to 32 backends;
// all 32 respond at once, and every response crosses the host's virtualized
// data plane. This example measures the p99 response completion time under
// static RSS hashing versus MPDP.
//
//	go run ./examples/incast
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

func run(name string, policy core.Policy, seed uint64) {
	s := sim.New()
	ic := workload.NewIncast(workload.IncastConfig{
		Fanin:     32,
		Response:  20_000, // 20 KB per backend response
		Epoch:     500 * sim.Microsecond,
		Epochs:    100,
		PacketGap: 300 * sim.Nanosecond,
		Rng:       xrand.New(seed),
	})
	dp := core.New(s, core.Config{
		NumPaths:     4,
		ChainFactory: func(i int) *nf.Chain { return nf.PresetChain(3) },
		Policy:       policy,
		JitterSigma:  0.15,
		Interference: vnet.DefaultInterferenceConfig(),
		Seed:         seed,
	}, ic.Tracker.OnDeliver)

	ic.Run(s, dp.Ingress)
	horizon := 150 * 500 * sim.Microsecond
	s.RunUntil(horizon)
	dp.Flush()
	s.RunUntil(horizon + 5*sim.Millisecond)

	fct := ic.Tracker.ShortFCT
	fmt.Printf("%-12s responses=%4d/%4d  FCT p50=%7.1fus  p99=%8.1fus  max=%8.1fus\n",
		name, ic.Tracker.Completed(), ic.Tracker.Started(),
		float64(fct.Percentile(0.50))/1000,
		float64(fct.Percentile(0.99))/1000,
		float64(fct.Max())/1000)
}

func main() {
	fmt.Println("32-way incast, 20KB responses, 4-path data plane, noisy neighbors:")
	fmt.Println()
	run("rss", &core.RSSHash{}, 5)
	run("jsq", &core.JSQ{}, 5)
	run("mpdp", core.NewMPDP(core.DefaultMPDPConfig()), 5)
	fmt.Println()
	fmt.Println("a query is as slow as its slowest response: cutting the per-response")
	fmt.Println("tail directly cuts the query tail.")
}
