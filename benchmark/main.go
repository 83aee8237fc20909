// Command benchmark is the repo's one repeatable benchmark: six closed-loop
// workloads over the three engines (virtual-time simulator, goroutine
// engine, UDP wire transport with the mesh on top), seven bounded end-to-end
// metrics, four whole-stack speeds in host time, and a per-layer cost table
// from traced repetitions. See README.md.
//
//	bash benchmark/run.sh                         # all workloads, untraced + traced
//	bash benchmark/run.sh -workload wire_rr_w1    # one workload, PR-driver output
//	bash benchmark/run.sh -aa                     # two sets of the same code, compared
//
// It measures every layer from outside, through the entry points the repo's
// binaries use, so the layers stay free to change underneath it.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"maps"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strconv"
	"syscall"
	"time"
)

const outDir = "benchmark/out" // results and profiles; git-ignored

// rep is one planned repetition: its trace mode and measured window.
type rep struct {
	mode string
	dur  time.Duration
}

func main() {
	var (
		name    = flag.String("workload", "", "run this workload only and end with the one-line JSON result; empty runs all six, untraced and traced")
		seed    = flag.Uint64("seed", 1, "the only source of randomness: the same seed gives the same inputs")
		seconds = flag.Int("seconds", 12, "seconds one run measures, split evenly over its repetitions")
		trace   = flag.Int("trace", 0, "with -workload: 0 reports the end-to-end metrics, 1 the per-layer metrics of traced repetitions")
		aa      = flag.Bool("aa", false, "run two untraced sets of the same code back to back and fail if any end-to-end gap exceeds its bound")
		quick   = flag.Bool("quick", false, "smoke use only: 1 repetition of 1 s per workload, no traced run; results are not comparable")
		repMode = flag.String("rep", "", "internal: run one repetition in this trace mode (off, cpu, heap) and print its result")
		measure = flag.Duration("measure", 0, "internal: measured window of the repetition")
		spawned = flag.Int64("spawned-at", 0, "internal: unix nanoseconds at which the driver started this repetition")
	)
	flag.Parse()

	if *repMode != "" {
		os.Exit(runRep(repConfig{
			Workload: *name, Seed: *seed, Measure: *measure, Trace: *repMode, SpawnedAt: time.Unix(0, *spawned),
		}))
	}

	d := driver{seed: *seed, env: readEnvironment()}
	d.env.Seed = *seed
	total := time.Duration(*seconds) * time.Second
	untraced := []rep{{traceOff, total / 3}, {traceOff, total / 3}, {traceOff, total / 3}}
	// The CPU-profiled repetition gets the most time: its sample count is
	// what the confidence of the cost table rests on.
	traced := []rep{{traceCPU, total / 2}, {traceHeap, total / 4}}
	var err error
	switch {
	case *name != "":
		if findWorkload(*name) == nil {
			fmt.Fprintf(os.Stderr, "benchmark: unknown workload %q\n", *name)
			os.Exit(2)
		}
		plan := untraced
		if *trace == 1 {
			plan = append([]rep{{traceOff, total / 4}}, traced...)
		}
		err = d.one(*name, plan, *trace == 1)
	case *aa:
		err = d.aa(untraced)
	case *quick:
		d.env.Quick = true
		err = d.all([]rep{{traceOff, time.Second}})
	default:
		err = d.all(append(untraced, traced...))
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		os.Exit(1)
	}
}

// runRep is the child process: one repetition of one workload.
func runRep(rc repConfig) int {
	if rc.Trace == traceHeap {
		runtime.MemProfileRate = 1 // before the workload allocates anything
	}
	runtime.GOMAXPROCS(maxProcs)
	w := findWorkload(rc.Workload)
	if w == nil {
		fmt.Fprintf(os.Stderr, "benchmark: unknown workload %q\n", rc.Workload)
		return 2
	}
	m := &meter{rc: rc, res: &repResult{
		Workload: rc.Workload, Trace: rc.Trace, E2E: map[string]float64{}, Layer: map[string]float64{},
	}}
	if err := w.run(m); err != nil {
		fmt.Fprintf(os.Stderr, "benchmark: %s: %v\n", rc.Workload, err)
		return 1
	}
	if rc.Trace == traceCPU {
		// Kept for `go tool pprof`; the table was already folded from it.
		path := filepath.Join(outDir, rc.Workload+".cpu.pprof")
		if err := os.WriteFile(path, m.cpuProf.Bytes(), 0o644); err != nil {
			fmt.Fprintln(os.Stderr, "benchmark:", err)
		}
	}
	if err := json.NewEncoder(os.Stdout).Encode(m.res); err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		return 1
	}
	return 0
}

// driver runs repetitions as fresh child processes — so heap, GC pacing and
// scheduler placement do not leak from one to the next — and aggregates them.
type driver struct {
	seed    uint64
	env     environment
	hotpath map[string]float64 // measured once per invocation
}

// summary is a metric's value over a run's untraced repetitions.
type summary struct {
	Median float64 `json:"median"`
	Q1     float64 `json:"q1"`
	Q3     float64 `json:"q3"`
	N      int     `json:"n"`
}

// runResult is one workload's aggregated outcome.
type runResult struct {
	Workload  string             `json:"workload"`
	Env       environment        `json:"environment"`
	E2E       map[string]summary `json:"end_to_end"`
	Layer     map[string]float64 `json:"per_layer,omitempty"`
	Correct   bool               `json:"correct"`
	Attempted uint64             `json:"attempted"`
	Failed    uint64             `json:"failed"`
	Errors    []string           `json:"errors,omitempty"`
	Reps      []repResult        `json:"repetitions"`
}

// spawn runs one repetition in a child process and returns its result with
// peak_rss_mb (the child's ru_maxrss) filled in.
func (d *driver) spawn(name string, r rep) (repResult, error) {
	self, err := os.Executable()
	if err != nil {
		return repResult{}, err
	}
	// A repetition that hangs must not hang the run: the driver allows one
	// run 180 s in all.
	ctx, cancel := context.WithTimeout(context.Background(), 2*r.dur+60*time.Second)
	defer cancel()
	cmd := exec.CommandContext(ctx, self,
		"-rep", r.mode, "-workload", name,
		"-seed", strconv.FormatUint(d.seed, 10),
		"-measure", r.dur.String(),
		"-spawned-at", strconv.FormatInt(time.Now().UnixNano(), 10))
	cmd.Stderr = os.Stderr
	out, err := cmd.Output()
	if err != nil {
		return repResult{}, fmt.Errorf("%s repetition (%s): %w", name, r.mode, err)
	}
	var res repResult
	if err := json.Unmarshal(out, &res); err != nil {
		return repResult{}, fmt.Errorf("%s repetition (%s): %w", name, r.mode, err)
	}
	if ru, ok := cmd.ProcessState.SysUsage().(*syscall.Rusage); ok {
		res.E2E["peak_rss_mb"] = float64(ru.Maxrss) / 1024 // Linux reports KiB
	}
	return res, nil
}

// run executes one repetition per mode and aggregates: whole-stack metrics
// are the median of the untraced repetitions; per-layer metrics come from
// the traced ones, the cost shares scaled by the untraced figures so each
// column sums to its whole-stack figure by construction.
func (d *driver) run(name string, plan []rep) (*runResult, error) {
	if err := os.MkdirAll(outDir, 0o755); err != nil {
		return nil, err
	}
	rr := &runResult{Workload: name, E2E: map[string]summary{}, Reps: make([]repResult, 0, len(plan))}
	vals := map[string][]float64{}
	var cpuRep, heapRep *repResult
	for _, r := range plan {
		res, err := d.spawn(name, r)
		if err != nil {
			return nil, err
		}
		rr.Reps = append(rr.Reps, res)
		for _, e := range res.Errors {
			rr.Errors = append(rr.Errors, fmt.Sprintf("%s repetition: %s", r.mode, e))
		}
		if res.Digest != "" && res.Digest != rr.Reps[0].Digest {
			rr.Errors = append(rr.Errors, fmt.Sprintf("determinism: digest %s differs from %s between repetitions of seed %d",
				res.Digest, rr.Reps[0].Digest, d.seed))
		}
		switch r.mode {
		case traceOff:
			rr.Attempted += res.Offered
			rr.Failed += res.Failed
			for _, m := range wholeStack() {
				vals[m.Name] = append(vals[m.Name], res.E2E[m.Name])
			}
		case traceCPU:
			cpuRep = &rr.Reps[len(rr.Reps)-1]
		case traceHeap:
			heapRep = &rr.Reps[len(rr.Reps)-1]
		}
	}
	for _, m := range wholeStack() {
		q1, q3 := quartiles(vals[m.Name])
		rr.E2E[m.Name] = summary{median(vals[m.Name]), q1, q3, len(vals[m.Name])}
	}
	rr.Correct = len(rr.Errors) == 0

	if cpuRep != nil && heapRep != nil {
		rr.Layer = maps.Clone(cpuRep.Layer)
		for _, m := range hostMetrics {
			rr.Layer[m.Name] = rr.E2E[m.Name].Median
		}
		var cpuTotal, heapTotal int64
		for _, l := range layers {
			cpuTotal += cpuRep.CPUByLyr[l]
			heapTotal += heapRep.HeapByLyr[l]
		}
		for _, l := range layers {
			rr.Layer[l+".cpu_us_per_pkt"] = ratio(float64(cpuRep.CPUByLyr[l]), float64(cpuTotal)) * rr.E2E["host.cpu_us_per_pkt"].Median
			rr.Layer[l+".mallocs_per_pkt"] = ratio(float64(heapRep.HeapByLyr[l]), float64(heapTotal)) * rr.E2E["mallocs_per_pkt"].Median
		}
		rr.Layer["trace.cpu_samples"] = float64(cpuTotal)
		rr.Layer["trace.overhead_ratio"] = 1 - cpuRep.E2E["host.pkts_per_s"]/rr.E2E["host.pkts_per_s"].Median
		if rr.Reps[0].Digest != "" && rr.Correct {
			rr.Layer["sim.digest_stable"] = 1
		}
		if d.hotpath == nil {
			hp, err := runHotpath()
			if err != nil {
				return nil, err
			}
			d.hotpath = hp
		}
		maps.Copy(rr.Layer, d.hotpath)
	}
	rr.Env = d.env
	rr.Env.Reps, rr.Env.RepSeconds, rr.Env.LoadEnd = len(vals["setup_s"]), plan[0].dur.Seconds(), load1()
	return rr, nil
}

// one is the PR driver's entry: one workload, the human-readable table, and
// as the last line of standard output the result object of the contract.
func (d *driver) one(name string, plan []rep, traced bool) error {
	rr, err := d.run(name, plan)
	if err != nil {
		return err
	}
	printRun(os.Stdout, rr)
	if err := writeJSON(fmt.Sprintf("%s-seed%d-trace%t.json", name, d.seed, traced), rr); err != nil {
		return err
	}
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	line := struct {
		Correct   bool             `json:"correct"`
		Attempted uint64           `json:"attempted"`
		Failed    uint64           `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{rr.Correct, rr.Attempted, rr.Failed, map[string]value{}}
	if traced {
		for _, m := range perLayer() {
			line.Metrics[m.Name] = value{rr.Layer[m.Name], m.Unit}
		}
	} else {
		for _, m := range endToEnd {
			line.Metrics[m.Name] = value{rr.E2E[m.Name].Median, m.Unit}
		}
	}
	if err := json.NewEncoder(os.Stdout).Encode(line); err != nil {
		return err
	}
	if !rr.Correct {
		return fmt.Errorf("%s: a correctness check failed", name)
	}
	return nil
}

// all runs every workload with the given repetition modes.
func (d *driver) all(plan []rep) error {
	var runs []*runResult
	failed := 0
	for _, w := range workloads {
		rr, err := d.run(w.name, plan)
		if err != nil {
			return err
		}
		printRun(os.Stdout, rr)
		runs = append(runs, rr)
		if !rr.Correct {
			failed++
		}
	}
	if err := writeJSON(fmt.Sprintf("all-seed%d.json", d.seed), runs); err != nil {
		return err
	}
	if failed > 0 {
		return fmt.Errorf("%d of %d workloads failed a correctness check", failed, len(runs))
	}
	return nil
}

// aa runs two full untraced sets of the same code back to back and compares
// their medians against the bounds: the benchmark's own noise floor. The
// host-time metrics are listed with their gaps but have no bound to exceed.
func (d *driver) aa(plan []rep) error {
	var sets [2][]*runResult
	for s := range sets {
		for _, w := range workloads {
			rr, err := d.run(w.name, plan)
			if err != nil {
				return err
			}
			if !rr.Correct {
				printRun(os.Stdout, rr)
				return fmt.Errorf("%s: a correctness check failed", w.name)
			}
			sets[s] = append(sets[s], rr)
		}
	}
	printEnvironment(os.Stdout, sets[1][len(sets[1])-1].Env)
	fmt.Printf("%-22s %-20s %14s %14s %8s %7s\n", "workload", "metric", "set A", "set B", "gap", "bound")
	over := 0
	for i, a := range sets[0] {
		for _, m := range wholeStack() {
			va, vb := a.E2E[m.Name].Median, sets[1][i].E2E[m.Name].Median
			gap := ratio(vb-va, va)
			bound, mark := "none", ""
			if m.Bound > 0 {
				bound = fmt.Sprintf("%.1f%%", m.Bound*100)
				if gap > m.Bound || -gap > m.Bound {
					mark = "  OVER"
					over++
				}
			}
			fmt.Printf("%-22s %-20s %14.6g %14.6g %+7.2f%% %6s%s\n", a.Workload, m.Name, va, vb, gap*100, bound, mark)
		}
	}
	if err := writeJSON(fmt.Sprintf("aa-seed%d.json", d.seed), sets); err != nil {
		return err
	}
	if over > 0 {
		return fmt.Errorf("A/A: %d end-to-end gaps exceed their bound", over)
	}
	return nil
}

func writeJSON(name string, v any) error {
	b, err := json.MarshalIndent(v, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(outDir, name), append(b, '\n'), 0o644)
}
