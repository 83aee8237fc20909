// Benchmarks regenerating the evaluation suite: one benchmark per
// experiment (table/figure) plus micro-benchmarks of the data plane's hot
// paths. Experiment benchmarks run in quick mode per iteration and report
// the headline metric via b.ReportMetric, so
//
//	go test -bench=. -benchmem
//
// both exercises the full pipeline and surfaces the reproduced numbers.
package mpdp_test

import (
	"strconv"
	"testing"

	"mpdp/internal/core"
	"mpdp/internal/experiment"
	"mpdp/internal/nf"
	"mpdp/internal/packet"
	"mpdp/internal/sim"
	"mpdp/internal/vnet"
	"mpdp/internal/workload"
	"mpdp/internal/xrand"
)

// benchExperiment runs a registered experiment once per iteration.
func benchExperiment(b *testing.B, id string) {
	b.Helper()
	fn, ok := experiment.Registry[id]
	if !ok {
		b.Fatalf("unknown experiment %s", id)
	}
	for i := 0; i < b.N; i++ {
		if _, err := fn(experiment.SuiteOpts{Seed: uint64(i + 1), Quick: true}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkE1Motivation(b *testing.B)  { benchExperiment(b, "E1") }
func BenchmarkE2LoadSweep(b *testing.B)   { benchExperiment(b, "E2") }
func BenchmarkE3CDF(b *testing.B)         { benchExperiment(b, "E3") }
func BenchmarkE4PathSweep(b *testing.B)   { benchExperiment(b, "E4") }
func BenchmarkE5Burstiness(b *testing.B)  { benchExperiment(b, "E5") }
func BenchmarkE6Incast(b *testing.B)      { benchExperiment(b, "E6") }
func BenchmarkE7Overhead(b *testing.B)    { benchExperiment(b, "E7") }
func BenchmarkE8Reorder(b *testing.B)     { benchExperiment(b, "E8") }
func BenchmarkE9ChainLen(b *testing.B)    { benchExperiment(b, "E9") }
func BenchmarkE10Breakdown(b *testing.B)  { benchExperiment(b, "E10") }
func BenchmarkE11Timeline(b *testing.B)   { benchExperiment(b, "E11") }
func BenchmarkE12Ablation(b *testing.B)   { benchExperiment(b, "E12") }
func BenchmarkE13FlowFCT(b *testing.B)    { benchExperiment(b, "E13") }
func BenchmarkE14QueueCap(b *testing.B)   { benchExperiment(b, "E14") }
func BenchmarkE15ClassIso(b *testing.B)   { benchExperiment(b, "E15") }
func BenchmarkE16Compose(b *testing.B)    { benchExperiment(b, "E16") }
func BenchmarkE17HashAttack(b *testing.B) { benchExperiment(b, "E17") }
func BenchmarkE18ClosedLoop(b *testing.B) { benchExperiment(b, "E18") }
func BenchmarkE19Hetero(b *testing.B)     { benchExperiment(b, "E19") }
func BenchmarkE20FaultRecov(b *testing.B) { benchExperiment(b, "E20") }

// BenchmarkPolicyP99 runs one standard configuration per policy and reports
// the measured p99 (µs) as a custom metric — the E2/E3 numbers, one row per
// sub-benchmark.
func BenchmarkPolicyP99(b *testing.B) {
	for _, pol := range []string{"single", "rss", "rr", "jsq", "flowlet", "dup-all", "mpdp"} {
		pol := pol
		b.Run(pol, func(b *testing.B) {
			var p99 float64
			for i := 0; i < b.N; i++ {
				r, err := experiment.Run(experiment.RunConfig{
					Seed: uint64(i + 1), Policy: pol, Util: 0.7,
					Interference: "moderate",
					Duration:     10 * sim.Millisecond,
				})
				if err != nil {
					b.Fatal(err)
				}
				p99 = float64(r.Latency.P99) / 1000
			}
			b.ReportMetric(p99, "p99_us")
		})
	}
}

// BenchmarkDataPlaneThroughput measures simulated packets per wall-clock
// second through the full 4-path MPDP pipeline — the simulator's own speed.
func BenchmarkDataPlaneThroughput(b *testing.B) {
	s := sim.New()
	dp := core.New(s, core.Config{
		NumPaths:     4,
		ChainFactory: func(i int) *nf.Chain { return nf.PresetChain(3) },
		Policy:       core.NewMPDP(core.DefaultMPDPConfig()),
		JitterSigma:  0.15,
		Seed:         1,
	}, nil)
	rng := xrand.New(2)
	traffic := workload.NewTraffic(workload.TrafficConfig{
		Arrival: workload.CBR{Gap: 400},
		Size:    workload.IMIX{Rng: rng.Split()},
		Flows:   64,
		Rng:     rng.Split(),
		Packets: dp.Packets(), // the plane returns finished packets here; the generator reuses them
	})
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		dp.Ingress(traffic.NextPacket())
		if i%1024 == 1023 {
			s.Run()
		}
	}
	s.Run()
}

// BenchmarkChainLengths measures raw chain processing cost per preset length.
func BenchmarkChainLengths(b *testing.B) {
	key := packet.FlowKey{
		SrcIP: packet.IP4(10, 0, 0, 1), DstIP: packet.IP4(10, 1, 0, 5),
		SrcPort: 10000, DstPort: 80, Proto: packet.ProtoUDP,
	}
	payload := make([]byte, 512)
	for n := 1; n <= 6; n++ {
		n := n
		b.Run("len"+strconv.Itoa(n), func(b *testing.B) {
			c := nf.PresetChain(n)
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				frame := packet.BuildUDP(key, payload, packet.BuildOpts{})
				p := &packet.Packet{Data: frame, Flow: key}
				c.Process(sim.Time(i), p)
			}
		})
	}
}

// BenchmarkReorderBuffer measures the in-order stage under 25% reordering.
func BenchmarkReorderBuffer(b *testing.B) {
	s := sim.New()
	r := core.NewReorder(s, sim.Millisecond, func(p *packet.Packet) {})
	rng := xrand.New(3)
	b.ReportAllocs()
	b.ResetTimer()
	var seq uint64
	pendingSwap := make([]*packet.Packet, 0, 4)
	for i := 0; i < b.N; i++ {
		p := &packet.Packet{ID: uint64(i), FlowID: uint64(i % 16), Seq: seq / 16}
		seq++
		if rng.Bool(0.25) && len(pendingSwap) < 4 {
			pendingSwap = append(pendingSwap, p)
			continue
		}
		r.Submit(p)
		for _, q := range pendingSwap {
			r.Submit(q)
		}
		pendingSwap = pendingSwap[:0]
	}
}

// BenchmarkLaneServiceLoop measures the lane event loop without policy or
// reorder overhead.
func BenchmarkLaneServiceLoop(b *testing.B) {
	s := sim.New()
	lane := vnet.NewLane(0, s, vnet.DefaultLaneConfig(nf.PresetChain(1)), xrand.New(1), nil)
	key := packet.FlowKey{
		SrcIP: packet.IP4(10, 0, 0, 1), DstIP: packet.IP4(10, 1, 0, 5),
		SrcPort: 10000, DstPort: 80, Proto: packet.ProtoUDP,
	}
	frame := packet.BuildUDP(key, make([]byte, 128), packet.BuildOpts{})
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		data := make([]byte, len(frame))
		copy(data, frame)
		lane.Enqueue(&packet.Packet{ID: uint64(i), Data: data, Flow: key, FlowID: 1})
		if i%512 == 511 {
			s.Run()
		}
	}
	s.Run()
}
