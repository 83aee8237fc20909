// Redundancy: what packet duplication buys and what it costs. The same
// workload runs under no duplication, MPDP's budgeted spare-capacity
// duplication, and duplicate-everything, at a low and a high load.
//
//	go run ./examples/redundancy
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

func run(policy core.Policy, util float64, seed uint64) (p99, p999 float64, dup float64, delivery float64) {
	s := sim.New()
	dp := core.New(s, core.Config{
		NumPaths:     4,
		ChainFactory: func(i int) *nf.Chain { return nf.PresetChain(3) },
		Policy:       policy,
		JitterSigma:  0.15,
		Interference: vnet.InterferenceConfig{
			SlowFactor: 8, MeanOn: 400 * sim.Microsecond, MeanOff: 1600 * sim.Microsecond,
		},
		Seed: seed,
	}, nil)

	rng := xrand.New(seed * 31)
	meanCost := workload.MeanServiceCost(nf.PresetChain(3), workload.IMIX{Rng: rng.Split()}, rng.Split(), 200)
	gap := sim.Duration(float64(meanCost+150) / (util * 4))
	traffic := workload.NewTraffic(workload.TrafficConfig{
		Arrival: workload.NewPoisson(rng.Split(), gap),
		Size:    workload.IMIX{Rng: rng.Split()},
		Flows:   64,
		Rng:     rng.Split(),
		Packets: dp.Packets(), // the plane returns finished packets here; the generator reuses them
	})

	const horizon = 100 * sim.Millisecond
	traffic.Run(s, dp.Ingress, horizon)
	s.RunUntil(horizon + 20*sim.Millisecond)
	dp.Flush()
	s.RunUntil(horizon + 25*sim.Millisecond)

	m := dp.Metrics()
	return float64(m.Latency.Percentile(0.99)) / 1000,
		float64(m.Latency.Percentile(0.999)) / 1000,
		m.DupOverhead() * 100,
		m.DeliveryRate() * 100
}

func main() {
	nodup := func() core.Policy {
		cfg := core.DefaultMPDPConfig()
		cfg.DupBudget = 0
		return core.NewMPDP(cfg)
	}
	budgeted := func() core.Policy { return core.NewMPDP(core.DefaultMPDPConfig()) }
	dupAll := func() core.Policy { return &core.Redundant{K: 2} }

	for _, util := range []float64{0.3, 0.8} {
		fmt.Printf("offered load %.0f%% of aggregate capacity, heavy interference:\n", util*100)
		fmt.Printf("  %-28s %10s %10s %8s %10s\n", "policy", "p99_us", "p99.9_us", "dup_%", "delivery_%")
		for _, row := range []struct {
			name string
			mk   func() core.Policy
		}{
			{"steering only (no dup)", nodup},
			{"mpdp (budgeted, spare-only)", budgeted},
			{"duplicate everything", dupAll},
		} {
			var p99, p999, dup, del float64
			const seeds = 3
			for s := uint64(1); s <= seeds; s++ {
				a, b, c, d := run(row.mk(), util, s)
				p99 += a
				p999 += b
				dup += c
				del += d
			}
			fmt.Printf("  %-28s %10.1f %10.1f %8.1f %10.2f\n",
				row.name, p99/seeds, p999/seeds, dup/seeds, del/seeds)
		}
		fmt.Println()
	}
	fmt.Println("duplication is cheap insurance at low load and poison at high load;")
	fmt.Println("MPDP's budget + spare-capacity gate keeps it on the right side.")
}
