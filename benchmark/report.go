package main

import (
	"fmt"
	"io"
	"strings"
)

func printEnvironment(w io.Writer, e environment) {
	fmt.Fprintf(w, "# commit %s  %s  nproc %d  GOMAXPROCS %d  %s  kernel %s\n",
		e.Commit, e.GoVersion, e.NumCPU, e.GOMAXPROCS, e.CPUModel, e.Kernel)
	fmt.Fprintf(w, "# load1 %s -> %s  seed %d  %d untraced repetitions x %.2f s, each a fresh process\n",
		e.LoadStart, e.LoadEnd, e.Seed, e.Reps, e.RepSeconds)
	if e.Quick {
		fmt.Fprintln(w, "# QUICK run: smoke use only, not comparable with any other result")
	}
}

// printRun prints one workload's result: every metric by name with its unit.
func printRun(w io.Writer, rr *runResult) {
	fmt.Fprintf(w, "\n== %s\n", rr.Workload)
	printEnvironment(w, rr.Env)
	fmt.Fprintf(w, "# closed loop; attempted %d packets, failed %d; correct %t\n", rr.Attempted, rr.Failed, rr.Correct)
	for _, e := range rr.Errors {
		fmt.Fprintf(w, "# FAILED CHECK: %s\n", e)
	}
	fmt.Fprintf(w, "%-28s %14s %-6s %-10s %s\n", "whole-stack metric", "median", "unit", "bound", "[q1 .. q3] of n repetitions")
	for _, m := range wholeStack() {
		s := rr.E2E[m.Name]
		clock, bound := m.Clock, "none"
		if strings.Contains(m.Name, "lat_") && strings.HasPrefix(rr.Workload, "sim_") {
			clock = "host time of one experiment.Run call"
		}
		if m.Bound > 0 {
			bound = fmt.Sprintf("%.2f", m.Bound)
		}
		fmt.Fprintf(w, "%-28s %14.6g %-6s %-10s [%.6g .. %.6g] n=%d  %s\n", m.Name, s.Median, m.Unit, bound, s.Q1, s.Q3, s.N, clock)
	}
	if len(rr.Reps) > 0 {
		fmt.Fprintf(w, "# latency samples per repetition: %d\n", rr.Reps[0].Samples)
	}
	if rr.Layer == nil {
		return
	}
	fmt.Fprintf(w, "%-16s %16s %16s\n", "layer", "cpu_us_per_pkt", "mallocs_per_pkt")
	var cpu, mallocs float64
	for _, l := range layers {
		c, a := rr.Layer[l+".cpu_us_per_pkt"], rr.Layer[l+".mallocs_per_pkt"]
		cpu, mallocs = cpu+c, mallocs+a
		if c != 0 || a != 0 {
			fmt.Fprintf(w, "%-16s %16.4f %16.4f\n", l, c, a)
		}
	}
	fmt.Fprintf(w, "%-16s %16.4f %16.4f   (= the whole-stack figures)\n", "sum", cpu, mallocs)
	if n := rr.Layer["trace.cpu_samples"]; n < 2000 {
		fmt.Fprintf(w, "# low confidence: the CPU shares rest on %.0f profile samples (< 2000)\n", n)
	}
	fmt.Fprintf(w, "%-36s %14s %-6s\n", "per-layer metric", "value", "unit")
	for _, m := range detailMetrics() {
		v, ok := rr.Layer[m.Name]
		if !ok {
			fmt.Fprintf(w, "%-36s %14s %-6s\n", m.Name, "n/a", m.Unit)
			continue
		}
		fmt.Fprintf(w, "%-36s %14.6g %-6s %s\n", m.Name, v, m.Unit, m.Clock)
	}
}
