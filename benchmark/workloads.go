package main

import (
	"mpdp/internal/experiment"
	"mpdp/internal/sim"
	"mpdp/internal/transport"
)

// workloadDef is one set of inputs the benchmark runs.
type workloadDef struct {
	name string
	why  string // one line: the reason it is in the set (copied into BENCHMARK.json)
	run  func(m *meter) error
}

var workloads = []workloadDef{
	{
		name: "sim_mpdp_interfered",
		why:  "paper's headline config: mpdp policy on 4 paths under moderate interference, so policy scoring, duplication, cancel and reorder all do work",
		run: func(m *meter) error {
			return runSim(m, experiment.RunConfig{
				Policy: "mpdp", Interference: "moderate", Util: 0.7, NumPaths: 4, ChainLen: 3,
				Arrival: "poisson", SizeDist: "imix", Duration: 100 * sim.Millisecond,
			})
		},
	},
	{
		name: "sim_single_burst",
		why:  "bypass: single path, on/off bursts into a 128-slot queue, so policy, duplication and reorder idle and the kernel, lanes, NFs and the queue-full drop path own the time",
		run: func(m *meter) error {
			return runSim(m, experiment.RunConfig{
				Policy: "single", NumPaths: 1, Interference: "none", Util: 0.7, ChainLen: 3,
				Arrival: "onoff", SizeDist: "imix", QueueCap: 128, Duration: 400 * sim.Millisecond,
			})
		},
	},
	{
		name: "live_flowlet_w64",
		why:  "goroutine engine: 2 lanes, 3-NF chain, flowlet steering, IMIX frames over 64 flows, 64 clients, so channel hand-offs and egress reorder dominate",
		run:  runLive,
	},
	{
		name: "wire_hedge_w256",
		why:  "loopback UDP, 2 paths, every 64 B packet hedged on both, 256 clients: throughput-shaped, per-packet cost, dedup and ack coalescing saturated",
		run: func(m *meter) error {
			return runWire(m, wireParams{sched: transport.SchedHedge, payload: 64, flows: 8, clients: 256})
		},
	},
	{
		name: "wire_rr_w1",
		why:  "same wire used the other way: round robin, 1200 B, 1 client ping-pong, so no duplicates and every packet pays the whole wake-up chain with nothing to batch",
		run: func(m *meter) error {
			return runWire(m, wireParams{sched: transport.SchedRoundRobin, payload: 1200, flows: 8, clients: 1})
		},
	},
	{
		name: "mesh_drain_w64",
		why:  "2 mesh nodes + client on the wire, hedged 256 B over 32 flows, 64 clients, node 2 drained mid-window, so steering, envelope, flow table and one real handoff run",
		run:  runMesh,
	},
}

func findWorkload(name string) *workloadDef {
	for i := range workloads {
		if workloads[i].name == name {
			return &workloads[i]
		}
	}
	return nil
}
