package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"mpdp/internal/core"
	"mpdp/internal/experiment"
	"mpdp/internal/mesh"
	"mpdp/internal/sim"
	"mpdp/internal/stats"
	"mpdp/internal/transport"
)

// benchScenario is one canonical configuration for the machine-readable
// benchmark mode (-bench-json). The set spans the headline comparison:
// single-path vs multipath, quiet vs interfered host — plus the wire
// transport over real loopback sockets (wire non-nil).
type benchScenario struct {
	name string
	cfg  experiment.RunConfig
	wire *transport.LoopbackConfig
	mesh *mesh.MeshConfig
}

func benchScenarios(seed uint64, quick bool) []benchScenario {
	dur := 50 * sim.Millisecond
	if quick {
		dur = 10 * sim.Millisecond
	}
	base := func(policy, intf string) experiment.RunConfig {
		return experiment.RunConfig{
			Seed: seed, Policy: policy, Interference: intf,
			Util: 0.7, Duration: dur,
		}
	}
	// The E22 scenario exercises the deadline-aware policy end to end:
	// every packet carries a 2 ms deadline and duplication is paid for out
	// of the policy's default budget.
	e22 := base("deadline", "moderate")
	e22.Deadline = 2 * sim.Millisecond
	// E21: the wire transport end to end — real loopback UDP sockets,
	// hedged across two paths, e2e latency from the span histograms. Unlike
	// the simulator scenarios this one runs on the wall clock, so
	// -bench-diff holds it to the wider wire gate instead of the 10%
	// tripwire.
	e21 := &transport.LoopbackConfig{
		Paths:     2,
		Scheduler: transport.SchedHedge,
		Packets:   5000,
		Payload:   256,
		Health: core.HealthConfig{
			// Mirror mpdp-gateway's wire tuning: scheduler stalls and GC
			// pauses must not quarantine a healthy loopback path mid-bench.
			SuspectTimeout:    200 * sim.Millisecond,
			QuarantineBackoff: 50 * sim.Millisecond,
			ProbeSuccesses:    8,
			DropWindowMin:     64,
		},
	}
	if quick {
		e21.Packets = 1500
	}
	wireHealth := e21.Health
	// E25: the multi-gateway mesh end to end — four gateways behind one
	// steering client over loopback UDP, with a graceful drain of node
	// index 1 mid-run so the baseline prices the full ownership handoff,
	// not just steady-state steering. Wall clock, like E21, so the wire
	// gate applies. No impairer: the fault-injected variant lives in the
	// E25 experiment and the CI mesh-smoke job; the checked-in baseline
	// wants the repeatable cost of the mechanism itself.
	e25 := &mesh.MeshConfig{
		Nodes:        4,
		PathsPerNode: 2,
		Scheduler:    transport.SchedHedge,
		Flows:        32,
		Payload:      256,
		Duration:     2 * time.Second,
		DrainNode:    1,
		DrainAfter:   0.5,
		// Graceful drain: a promotion timeout the drain cannot trip, so
		// a loaded CI host measures the handoff, not the escape hatch.
		HandoffTimeout: 10 * time.Second,
		Health:         wireHealth,
		NodeHealth:     wireHealth,
	}
	if quick {
		e25.Duration = time.Second
	}
	return []benchScenario{
		{name: "single_none", cfg: base("single", "none")},
		{name: "single_moderate", cfg: base("single", "moderate")},
		{name: "mpdp_none", cfg: base("mpdp", "none")},
		{name: "mpdp_moderate", cfg: base("mpdp", "moderate")},
		{name: "E22", cfg: e22},
		{name: "E21_loopback", wire: e21},
		{name: "E25_mesh", mesh: e25},
	}
}

// benchDoc is the JSON document one scenario emits: enough for a CI
// artifact to diff runs (throughput, tail latency, allocation pressure).
type benchDoc struct {
	Scenario     string  `json:"scenario"`
	Policy       string  `json:"policy"`
	Interference string  `json:"interference"`
	Seed         uint64  `json:"seed"`
	Quick        bool    `json:"quick"`
	GOMAXPROCS   int     `json:"gomaxprocs"`
	Offered      uint64  `json:"offered"`
	Delivered    uint64  `json:"delivered"`
	DeliveryRate float64 `json:"delivery_rate"`
	GoodputGbps  float64 `json:"goodput_gbps"`
	ThroughputPS float64 `json:"throughput_pkts_per_sec"` // wall-clock simulation speed

	LatencyNS struct {
		Mean float64 `json:"mean"`
		P50  int64   `json:"p50"`
		P90  int64   `json:"p90"`
		P99  int64   `json:"p99"`
		P999 int64   `json:"p999"`
		Max  int64   `json:"max"`
	} `json:"latency_ns"`

	// Deadline-aware scenarios also record the cost side of the frontier.
	DeadlineHitRate float64 `json:"deadline_hit_rate,omitempty"`
	DupBytes        uint64  `json:"dup_bytes,omitempty"`

	WallMS float64 `json:"wall_ms"`
	Allocs struct {
		Mallocs         uint64  `json:"mallocs"`
		TotalAllocBytes uint64  `json:"total_alloc_bytes"`
		PerPacket       float64 `json:"mallocs_per_offered_packet"`
	} `json:"allocs"`
}

// setLatency fills the latency_ns block from the one summary shape every
// engine reports.
func (d *benchDoc) setLatency(s stats.Summary) {
	d.LatencyNS.Mean = s.Mean
	d.LatencyNS.P50 = s.P50
	d.LatencyNS.P90 = s.P90
	d.LatencyNS.P99 = s.P99
	d.LatencyNS.P999 = s.P999
	d.LatencyNS.Max = s.Max
}

// checkLatency rejects a document whose latency block was not filled: a
// run that delivered packets has a non-zero mean and median.
func (d *benchDoc) checkLatency() error {
	if d.Delivered > 0 && (d.LatencyNS.Mean == 0 || d.LatencyNS.P50 == 0) {
		return fmt.Errorf("%s: delivered %d packets but latency_ns has mean=%v p50=%d",
			d.Scenario, d.Delivered, d.LatencyNS.Mean, d.LatencyNS.P50)
	}
	return nil
}

// measureScenario runs one scenario with allocation accounting and condenses
// it into the benchmark document. Shared by -bench-json and -bench-diff so a
// diff compares like with like.
func measureScenario(sc benchScenario, seed uint64, quick bool) (benchDoc, error) {
	if sc.wire != nil {
		return measureWallScenario(sc, seed, quick, runWireScenario)
	}
	if sc.mesh != nil {
		return measureWallScenario(sc, seed, quick, runMeshScenario)
	}
	var doc benchDoc
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	start := time.Now()
	res, err := experiment.Run(sc.cfg)
	wall := time.Since(start)
	runtime.ReadMemStats(&after)
	if err != nil {
		return doc, fmt.Errorf("scenario %s: %w", sc.name, err)
	}

	doc.Scenario = sc.name
	doc.Policy = res.Config.Policy
	doc.Interference = res.Config.Interference
	doc.Seed = seed
	doc.Quick = quick
	doc.GOMAXPROCS = runtime.GOMAXPROCS(0)
	doc.Offered = res.Offered
	doc.Delivered = res.Delivered
	doc.DeliveryRate = res.DeliveryRate
	doc.GoodputGbps = res.GoodputGbps
	if s := wall.Seconds(); s > 0 {
		doc.ThroughputPS = float64(res.Offered) / s
	}
	doc.setLatency(res.Latency)
	if res.Config.Deadline > 0 {
		doc.DeadlineHitRate = res.DeadlineHitRate
		doc.DupBytes = res.DupBytes
	}
	doc.WallMS = float64(wall.Microseconds()) / 1000
	doc.Allocs.Mallocs = after.Mallocs - before.Mallocs
	doc.Allocs.TotalAllocBytes = after.TotalAlloc - before.TotalAlloc
	if res.Offered > 0 {
		doc.Allocs.PerPacket = float64(doc.Allocs.Mallocs) / float64(res.Offered)
	}
	return doc, nil
}

// wallRun is what a wall-clock scenario (loopback wire, mesh) reports
// back for the benchmark document.
type wallRun struct {
	policy             transport.SchedulerName
	interference       string
	payload            int
	packets, delivered uint64
	elapsed            time.Duration
	latency            stats.Summary // e2e, real wall-clock wire latency
}

// runWireScenario runs a loopback wire scenario with the invariant
// verifier armed; latency comes from the e2e span histogram.
func runWireScenario(sc benchScenario) (wallRun, error) {
	cfg := *sc.wire // copy: reruns must not share Spans
	cfg.Spans = transport.NewSpans(nil)
	rep, err := transport.RunLoopback(cfg)
	if err == nil {
		err = rep.Verify()
	}
	if err != nil {
		return wallRun{}, err
	}
	run := wallRun{policy: cfg.Scheduler, interference: "loopback", payload: cfg.Payload,
		packets: rep.Packets, delivered: rep.Delivered, elapsed: rep.Elapsed}
	for _, sp := range rep.Spans {
		if sp.Stage == "e2e" {
			run.latency = sp.Latency
		}
	}
	return run, nil
}

// runMeshScenario runs the multi-gateway mesh scenario: N in-process
// gateways plus a steering client over loopback UDP, with the mid-run
// drain included in the measured window. Latency is mesh-wide e2e; the
// stream invariant is armed across the ownership change.
func runMeshScenario(sc benchScenario) (wallRun, error) {
	cfg := *sc.mesh // copy: reruns must not share state
	rep, err := mesh.RunMesh(cfg)
	if err == nil {
		err = rep.Verify()
	}
	if err != nil {
		return wallRun{}, err
	}
	if rep.HandoffFlows == 0 {
		return wallRun{}, fmt.Errorf("the drain moved no flow state; the baseline would not price the handoff")
	}
	return wallRun{policy: cfg.Scheduler, interference: "mesh-drain", payload: cfg.Payload,
		packets: rep.Packets, delivered: rep.Delivered, elapsed: rep.Elapsed, latency: rep.Latency}, nil
}

// measureWallScenario measures a wall-clock scenario: allocation pressure
// from the same MemStats delta the simulator scenarios use, rates over the
// run's own elapsed time. A violating run fails the bench.
func measureWallScenario(sc benchScenario, seed uint64, quick bool, run func(benchScenario) (wallRun, error)) (benchDoc, error) {
	var doc benchDoc
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	start := time.Now()
	r, err := run(sc)
	wall := time.Since(start)
	runtime.ReadMemStats(&after)
	if err != nil {
		return doc, fmt.Errorf("scenario %s: %w", sc.name, err)
	}

	doc.Scenario = sc.name
	doc.Policy = string(r.policy)
	doc.Interference = r.interference
	doc.Seed = seed
	doc.Quick = quick
	doc.GOMAXPROCS = runtime.GOMAXPROCS(0)
	doc.Offered = r.packets
	doc.Delivered = r.delivered
	if r.packets > 0 {
		doc.DeliveryRate = float64(r.delivered) / float64(r.packets)
	}
	if s := r.elapsed.Seconds(); s > 0 {
		doc.GoodputGbps = float64(r.delivered) * float64(r.payload) * 8 / s / 1e9
		doc.ThroughputPS = float64(r.packets) / s
	}
	doc.setLatency(r.latency)
	doc.WallMS = float64(wall.Microseconds()) / 1000
	doc.Allocs.Mallocs = after.Mallocs - before.Mallocs
	doc.Allocs.TotalAllocBytes = after.TotalAlloc - before.TotalAlloc
	if r.packets > 0 {
		doc.Allocs.PerPacket = float64(doc.Allocs.Mallocs) / float64(r.packets)
	}
	return doc, nil
}

// runBenchJSON runs the canonical scenarios and writes one
// BENCH_<scenario>.json per scenario into dir.
func runBenchJSON(dir string, seed uint64, quick bool) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	for _, sc := range benchScenarios(seed, quick) {
		doc, err := measureScenario(sc, seed, quick)
		if err != nil {
			return err
		}

		path := filepath.Join(dir, "BENCH_"+sc.name+".json")
		f, err := os.Create(path)
		if err != nil {
			return err
		}
		enc := json.NewEncoder(f)
		enc.SetIndent("", "  ")
		if err := enc.Encode(doc); err != nil {
			f.Close()
			return fmt.Errorf("writing %s: %w", path, err)
		}
		if err := f.Close(); err != nil {
			return err
		}
		fmt.Printf("%-18s p99=%8.1fus delivered=%5.1f%% wall=%7.1fms allocs/pkt=%5.1f -> %s\n",
			sc.name, float64(doc.LatencyNS.P99)/1000, doc.DeliveryRate*100,
			doc.WallMS, doc.Allocs.PerPacket, path)
	}
	return nil
}
