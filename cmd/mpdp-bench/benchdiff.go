package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
)

// benchTolerance is the regression gate for -bench-diff: a fresh run may not
// exceed the checked-in baseline's p99 latency or allocations-per-packet by
// more than this factor. Virtual-time latency is deterministic per seed, so
// any p99 drift at all is a code-behavior change; the 10% headroom exists
// for the alloc counter, which wobbles with runtime scheduling.
const benchTolerance = 1.10

// wireBenchTolerance gates the wall-clock wire scenarios (E21 and the
// E25 mesh): loopback UDP latency moves with host load and kernel
// scheduling, so their gate is a coarse guard against order-of-magnitude
// regressions, not a 10% tripwire.
const wireBenchTolerance = 3.0

// runBenchDiff re-runs every scenario found as BENCH_*.json in dir — with
// the seed and quick setting each baseline recorded — and fails if the fresh
// p99 or allocs/packet regress past benchTolerance. This is the CI gate that
// keeps the checked-in snapshots honest.
func runBenchDiff(dir string) error {
	paths, err := filepath.Glob(filepath.Join(dir, "BENCH_*.json"))
	if err != nil {
		return err
	}
	if len(paths) == 0 {
		return fmt.Errorf("no BENCH_*.json baselines in %s", dir)
	}
	sort.Strings(paths)

	var failures []string
	for _, path := range paths {
		raw, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		var base benchDoc
		if err := json.Unmarshal(raw, &base); err != nil {
			return fmt.Errorf("parsing %s: %w", path, err)
		}
		sc, ok := findScenario(base.Scenario, base.Seed, base.Quick)
		if !ok {
			return fmt.Errorf("%s names unknown scenario %q", path, base.Scenario)
		}
		fresh, err := measureScenario(sc, base.Seed, base.Quick)
		if err != nil {
			return err
		}

		for _, doc := range []*benchDoc{&base, &fresh} {
			if err := doc.checkLatency(); err != nil {
				return err
			}
		}

		tol := benchTolerance
		if sc.wire != nil || sc.mesh != nil {
			tol = wireBenchTolerance
		}
		p99Ratio := ratio(float64(fresh.LatencyNS.P99), float64(base.LatencyNS.P99))
		allocRatio := ratio(fresh.Allocs.PerPacket, base.Allocs.PerPacket)
		verdict := "ok"
		if p99Ratio > tol {
			verdict = "P99 REGRESSION"
			failures = append(failures, fmt.Sprintf(
				"%s: p99 %.1fus vs baseline %.1fus (%.2fx > %.2fx)",
				base.Scenario, float64(fresh.LatencyNS.P99)/1000,
				float64(base.LatencyNS.P99)/1000, p99Ratio, tol))
		}
		if allocRatio > tol {
			verdict = "ALLOC REGRESSION"
			failures = append(failures, fmt.Sprintf(
				"%s: allocs/pkt %.2f vs baseline %.2f (%.2fx > %.2fx)",
				base.Scenario, fresh.Allocs.PerPacket, base.Allocs.PerPacket,
				allocRatio, tol))
		}
		fmt.Printf("%-18s p99 %8.1fus vs %8.1fus (%.3fx)  allocs/pkt %6.2f vs %6.2f (%.3fx)  %s\n",
			base.Scenario,
			float64(fresh.LatencyNS.P99)/1000, float64(base.LatencyNS.P99)/1000, p99Ratio,
			fresh.Allocs.PerPacket, base.Allocs.PerPacket, allocRatio, verdict)
	}
	if len(failures) > 0 {
		for _, f := range failures {
			fmt.Fprintf(os.Stderr, "BENCH REGRESSION: %s\n", f)
		}
		return fmt.Errorf("%d benchmark regression(s) past the %.0f%% gate",
			len(failures), (benchTolerance-1)*100)
	}
	fmt.Printf("all %d scenarios within the %.0f%% gate\n", len(paths), (benchTolerance-1)*100)
	return nil
}

func findScenario(name string, seed uint64, quick bool) (benchScenario, bool) {
	for _, sc := range benchScenarios(seed, quick) {
		if sc.name == name {
			return sc, true
		}
	}
	return benchScenario{}, false
}

// ratio returns fresh/base, treating a zero baseline as "no gate" (1.0)
// unless the fresh value is nonzero, in which case any growth from zero is
// an unbounded regression (past every tolerance, including the wire gate).
func ratio(fresh, base float64) float64 {
	if base <= 0 {
		if fresh <= 0 {
			return 1
		}
		return 1e9
	}
	return fresh / base
}
