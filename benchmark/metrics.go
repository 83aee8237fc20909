package main

import "slices"

// metric is one row of BENCHMARK.json's end_to_end or per_layer list.
type metric struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"` // end-to-end only: tolerated worsening, as a share of the parent's median
	Clock  string  `json:"-"`               // for a time: which clock it is on, printed beside the value
}

const (
	hostTime    = "host time"
	virtualTime = "virtual time"
)

// endToEnd are the whole-stack metrics the PR driver holds a bound on: the
// ones that repeat on this host. Every workload reports every one of them,
// from untraced repetitions only.
//
// A latency is host time on every workload: sent_at -> delivery callback of
// one packet on the wall-clock workloads, the duration of one experiment.Run
// call on sim_* (virtual-time latencies are exact per seed and live in the
// per-layer list as sim.virt_lat_*).
var endToEnd = []metric{
	{Name: "setup_s", Unit: "s", Better: "lower", Bound: 0.25, Clock: hostTime},
	{Name: "mallocs_per_pkt", Unit: "count", Better: "lower", Bound: 0.05},
	{Name: "alloc_bytes_per_pkt", Unit: "B", Better: "lower", Bound: 0.05},
	{Name: "lat_p99_over_p50", Unit: "ratio", Better: "lower", Bound: 0.25},
	{Name: "delivered_ratio", Unit: "ratio", Better: "higher", Bound: 0.02},
	{Name: "tx_bytes_ratio", Unit: "ratio", Better: "lower", Bound: 0.05},
	{Name: "peak_rss_mb", Unit: "MB", Better: "lower", Bound: 0.15},
}

// hostMetrics are the whole-stack speeds in host time. The host moves them
// by a quarter to a third for minutes at a time (README, "Bounds and the
// noise floor"), more than any bound the PR driver allows, so they carry
// none and lead the per-layer list; a change that claims one of them shows
// it in interleaved parent/change pairs.
var hostMetrics = []metric{
	{Name: "host.pkts_per_s", Unit: "pkt/s", Better: "higher"},
	{Name: "host.cpu_us_per_pkt", Unit: "us", Better: "lower", Clock: "CPU time"},
	{Name: "host.lat_p50_us", Unit: "us", Better: "lower", Clock: hostTime},
	{Name: "host.lat_p99_us", Unit: "us", Better: "lower", Clock: hostTime},
}

// wholeStack lists what every untraced repetition measures.
func wholeStack() []metric { return slices.Concat(endToEnd, hostMetrics) }

// hotpathBenchmarks are the //mpdp:hotpath benchmarks of
// bench/hotpath_gates.txt, as <package>.<name without "Benchmark">.
var hotpathBenchmarks = []string{
	"core.FlowletPick", "core.MPDPPick", "live.HistogramRecord", "mesh.SteeringOwner",
	"obs.RecorderEmit", "obs.WireRecorderEmit", "obs.WireSampled",
	"packet.Hash64", "packet.ParseFrame", "packet.Toeplitz", "sentinel.DetectorObserve",
	"sim.SimStep", "transport.DedupAdmit", "transport.FrameDecode", "transport.FrameEncode",
}

// stageMetrics are the per-layer stage timings and counts, from the
// program's public taps and the benchmark's own spans in a traced run.
var stageMetrics = []metric{
	// sim_*: virtual time, exact per seed.
	{Name: "sim.virt_lat_p50_us", Unit: "us", Better: "lower", Clock: virtualTime},
	{Name: "sim.virt_lat_p99_us", Unit: "us", Better: "lower", Clock: virtualTime},
	{Name: "sim.virt_lat_p999_us", Unit: "us", Better: "lower", Clock: virtualTime},
	{Name: "vnet.queue_wait_p99_us", Unit: "us", Better: "lower", Clock: virtualTime},
	{Name: "nf.service_p99_us", Unit: "us", Better: "lower", Clock: virtualTime},
	{Name: "core.reorder_wait_p99_us", Unit: "us", Better: "lower", Clock: virtualTime},
	{Name: "core.ooo_fraction", Unit: "ratio", Better: "lower"},
	{Name: "core.dup_copies_per_pkt", Unit: "count", Better: "lower"},
	{Name: "core.dup_cancelled_ratio", Unit: "ratio", Better: "higher"},
	{Name: "vnet.drops_per_pkt", Unit: "ratio", Better: "lower"},
	{Name: "core.reorder_timeouts_per_mpkt", Unit: "count", Better: "lower"},
	{Name: "sim.digest_stable", Unit: "count", Better: "higher"},
	// live_*: host time.
	{Name: "live.ingress_call_p50_us", Unit: "us", Better: "lower", Clock: hostTime},
	{Name: "live.dispatch_p99_us", Unit: "us", Better: "lower", Clock: hostTime},
	{Name: "live.queue_wait_p99_us", Unit: "us", Better: "lower", Clock: hostTime},
	{Name: "live.service_p99_us", Unit: "us", Better: "lower", Clock: hostTime},
	{Name: "live.reorder_wait_p99_us", Unit: "us", Better: "lower", Clock: hostTime},
	// wire_* and mesh_*: host time.
	{Name: "transport.send_call_p50_us", Unit: "us", Better: "lower", Clock: hostTime},
	{Name: "transport.send_call_p99_us", Unit: "us", Better: "lower", Clock: hostTime},
	{Name: "transport.encode_p99_us", Unit: "us", Better: "lower", Clock: hostTime},
	{Name: "transport.socket_write_p50_us", Unit: "us", Better: "lower", Clock: hostTime},
	{Name: "transport.socket_write_p99_us", Unit: "us", Better: "lower", Clock: hostTime},
	{Name: "transport.socket_read_p99_us", Unit: "us", Better: "lower", Clock: hostTime},
	{Name: "transport.reorder_p99_us", Unit: "us", Better: "lower", Clock: hostTime},
	{Name: "transport.deliver_p99_us", Unit: "us", Better: "lower", Clock: hostTime},
	{Name: "transport.frames_per_pkt", Unit: "count", Better: "lower"},
	{Name: "transport.dup_drops_per_pkt", Unit: "count", Better: "lower"},
	{Name: "transport.lost_per_mpkt", Unit: "count", Better: "lower"},
	{Name: "mesh.send_call_p50_us", Unit: "us", Better: "lower", Clock: hostTime},
	{Name: "mesh.send_call_p99_us", Unit: "us", Better: "lower", Clock: hostTime},
	{Name: "mesh.resteers", Unit: "count", Better: "lower"},
	{Name: "mesh.forwarded_per_mpkt", Unit: "count", Better: "lower"},
	{Name: "mesh.handoff_flows", Unit: "count", Better: "higher"},
	{Name: "mesh.drain_ms", Unit: "ms", Better: "lower", Clock: hostTime},
	{Name: "mesh.lat_p99_pre_drain_us", Unit: "us", Better: "lower", Clock: hostTime},
	// The Go runtime as a layer, from runtime/metrics.
	{Name: "runtime.gc_cycles_per_mpkt", Unit: "count", Better: "lower"},
	{Name: "runtime.gc_pause_p99_us", Unit: "us", Better: "lower", Clock: hostTime},
	{Name: "runtime.sched_latency_p99_us", Unit: "us", Better: "lower", Clock: hostTime},
	{Name: "runtime.heap_live_mb", Unit: "MB", Better: "lower"},
	{Name: "runtime.goroutines", Unit: "count", Better: "lower"},
	// The cost and confidence of the traced run itself.
	{Name: "trace.overhead_ratio", Unit: "ratio", Better: "lower"},
	{Name: "trace.cpu_samples", Unit: "count", Better: "higher"},
}

// costMetrics is the per-layer cost table: CPU and mallocs per packet by
// layer, each column summing to its whole-stack figure.
func costMetrics() []metric {
	var out []metric
	for _, l := range layers {
		out = append(out,
			metric{Name: l + ".cpu_us_per_pkt", Unit: "us", Better: "lower"},
			metric{Name: l + ".mallocs_per_pkt", Unit: "count", Better: "lower"})
	}
	return out
}

// detailMetrics are the hot-path microbenchmarks followed by the stages.
func detailMetrics() []metric {
	var out []metric
	for _, b := range hotpathBenchmarks {
		out = append(out,
			metric{Name: b + ".ns_op", Unit: "ns", Better: "lower"},
			metric{Name: b + ".allocs_op", Unit: "count", Better: "lower"})
	}
	return append(out, stageMetrics...)
}

// perLayer lists every per-layer metric in the order BENCHMARK.json does.
func perLayer() []metric { return slices.Concat(hostMetrics, costMetrics(), detailMetrics()) }
