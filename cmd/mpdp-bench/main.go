// mpdp-bench regenerates the experiment suite: every table and figure of
// the MPDP evaluation (see DESIGN.md §4 for the index).
//
// Usage:
//
//	mpdp-bench -exp E2              # one experiment, ASCII to stdout
//	mpdp-bench -exp all -quick      # whole suite, reduced horizons
//	mpdp-bench -exp E7 -csv out.csv # also write CSV
//	mpdp-bench -list                # list experiment IDs
//
// Diagnostic profile mode (-exemplars K) runs one instrumented simulation
// with the flight recorder on and reports where the K slowest packets'
// latency went, instead of running the E-series registry:
//
//	mpdp-bench -exemplars 8                    # attribution report
//	mpdp-bench -exemplars 8 -chrome tail.json  # + Perfetto-viewable trace
//	mpdp-bench -exemplars 8 -events run.obs    # + raw event stream (mpdp-inspect)
//
// Machine-readable benchmark mode (-bench-json DIR) runs the canonical
// single-path/multipath × quiet/interfered scenarios and writes one
// BENCH_<scenario>.json per scenario (throughput, latency quantiles,
// allocation counts) — the artifact CI archives per commit:
//
//	mpdp-bench -bench-json out/ -quick
//
// The companion gate mode (-bench-diff DIR) re-runs every scenario a
// BENCH_*.json in DIR recorded (same seed, same horizon) and fails when the
// fresh p99 latency or allocs/packet exceed the baseline by more than 10%:
//
//	mpdp-bench -bench-diff bench/
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"
	"time"

	"mpdp/internal/experiment"
	"mpdp/internal/obs"
)

func main() {
	var (
		exp    = flag.String("exp", "all", "experiment ID (E1..E22) or 'all'")
		seed   = flag.Uint64("seed", 1, "base random seed")
		seeds  = flag.Int("seeds", 2, "independent repetitions per data point")
		quick  = flag.Bool("quick", false, "shrink horizons for a fast smoke run")
		csv    = flag.String("csv", "", "also write results as CSV to this file")
		list   = flag.Bool("list", false, "list experiment IDs and exit")
		plot   = flag.Bool("plot", false, "also render figures as ASCII charts")
		check  = flag.Bool("check", false, "run the headline shape checks and exit (nonzero on violation)")
		verify = flag.Bool("verify", false, "attach the end-to-end invariant checker to every run (fails on any violation)")

		exemplars   = flag.Int("exemplars", 0, "profile mode: keep the K slowest packets and report tail attribution")
		events      = flag.String("events", "", "profile mode: write the recorded event stream (MPDPOBS1) to this file")
		chrome      = flag.String("chrome", "", "profile mode: write exemplar timelines as Chrome trace-event JSON")
		exemplarCSV = flag.String("exemplar-csv", "", "profile mode: write the exemplar latency decomposition as CSV")
		policy      = flag.String("policy", "mpdp", "profile mode: steering policy")
		intf        = flag.String("interference", "moderate", "profile mode: interference level (none/light/moderate/heavy)")

		benchJSON = flag.String("bench-json", "", "run the canonical benchmark scenarios and write BENCH_<scenario>.json files into this directory")
		benchDiff = flag.String("bench-diff", "", "re-run the scenarios recorded as BENCH_*.json in this directory and fail on >10% p99 or allocs/pkt regression")
	)
	flag.Parse()
	experiment.SetVerify(*verify)

	if *benchJSON != "" {
		if err := runBenchJSON(*benchJSON, *seed, *quick); err != nil {
			fmt.Fprintf(os.Stderr, "mpdp-bench: %v\n", err)
			os.Exit(1)
		}
		return
	}

	if *benchDiff != "" {
		if err := runBenchDiff(*benchDiff); err != nil {
			fmt.Fprintf(os.Stderr, "mpdp-bench: %v\n", err)
			os.Exit(1)
		}
		return
	}

	if *exemplars > 0 {
		if err := runProfile(*exemplars, *seed, *quick, *plot, *csv, *events, *chrome, *exemplarCSV, *policy, *intf); err != nil {
			fmt.Fprintf(os.Stderr, "mpdp-bench: %v\n", err)
			os.Exit(1)
		}
		return
	}

	if *check {
		bad, err := experiment.CheckShapes(experiment.SuiteOpts{Seed: *seed})
		if err != nil {
			fmt.Fprintf(os.Stderr, "mpdp-bench: %v\n", err)
			os.Exit(1)
		}
		if len(bad) == 0 {
			fmt.Println("all headline shapes hold")
			return
		}
		for _, b := range bad {
			fmt.Fprintf(os.Stderr, "SHAPE VIOLATION: %s\n", b)
		}
		os.Exit(2)
	}

	if *list {
		for _, id := range experiment.IDs() {
			fmt.Println(id)
		}
		return
	}

	opts := experiment.SuiteOpts{Seed: *seed, Seeds: *seeds, Quick: *quick}

	var ids []string
	if strings.EqualFold(*exp, "all") {
		ids = experiment.IDs()
	} else {
		for _, id := range strings.Split(*exp, ",") {
			ids = append(ids, strings.TrimSpace(id))
		}
	}

	var csvOut *os.File
	if *csv != "" {
		f, err := os.Create(*csv)
		if err != nil {
			fmt.Fprintf(os.Stderr, "mpdp-bench: %v\n", err)
			os.Exit(1)
		}
		csvOut = f
	}

	for _, id := range ids {
		fn, ok := experiment.Registry[id]
		if !ok {
			fmt.Fprintf(os.Stderr, "mpdp-bench: unknown experiment %q (try -list)\n", id)
			os.Exit(1)
		}
		start := time.Now()
		res, err := fn(opts)
		if err != nil {
			fmt.Fprintf(os.Stderr, "mpdp-bench: %s failed: %v\n", id, err)
			os.Exit(1)
		}
		if err := res.Render(os.Stdout); err != nil {
			fmt.Fprintf(os.Stderr, "mpdp-bench: rendering %s: %v\n", id, err)
			os.Exit(1)
		}
		if *plot {
			for i := range res.Figures {
				fmt.Println()
				if err := res.Figures[i].Plot(os.Stdout, 72, 20); err != nil {
					fmt.Fprintf(os.Stderr, "mpdp-bench: plotting %s: %v\n", id, err)
					os.Exit(1)
				}
			}
		}
		fmt.Printf("(%s wall time: %v)\n\n", id, time.Since(start).Round(time.Millisecond))
		if csvOut != nil {
			if err := res.CSV(csvOut); err != nil {
				fmt.Fprintf(os.Stderr, "mpdp-bench: writing %s: %v\n", *csv, err)
				os.Exit(1)
			}
		}
	}
	if csvOut != nil {
		if err := csvOut.Close(); err != nil {
			fmt.Fprintf(os.Stderr, "mpdp-bench: closing %s: %v\n", *csv, err)
			os.Exit(1)
		}
	}
}

// runProfile executes the diagnostic profile run and writes the requested
// artifacts.
func runProfile(k int, seed uint64, quick, plot bool, csvPath, eventsPath, chromePath, exemplarCSVPath, policy, interference string) error {
	start := time.Now()
	out, err := experiment.Profile(experiment.ProfileOpts{
		Seed: seed, Exemplars: k,
		Policy: policy, Interference: interference,
		Quick: quick,
	})
	if err != nil {
		return err
	}
	if err := out.Result.Render(os.Stdout); err != nil {
		return err
	}
	fmt.Println()
	if err := out.Report.Render(os.Stdout); err != nil {
		return err
	}
	if plot {
		for i := range out.Result.Figures {
			fmt.Println()
			if err := out.Result.Figures[i].Plot(os.Stdout, 72, 20); err != nil {
				return err
			}
		}
	}
	fmt.Printf("(profile wall time: %v)\n", time.Since(start).Round(time.Millisecond))

	writeFile := func(path string, write func(f *os.File) error) error {
		if path == "" {
			return nil
		}
		f, err := os.Create(path)
		if err != nil {
			return err
		}
		if err := write(f); err != nil {
			f.Close()
			return fmt.Errorf("writing %s: %w", path, err)
		}
		return f.Close()
	}
	if err := writeFile(eventsPath, func(f *os.File) error {
		return obs.WriteAll(f, out.Events)
	}); err != nil {
		return err
	}
	if err := writeFile(chromePath, func(f *os.File) error {
		return obs.WriteChromeTrace(f, out.Exemplars)
	}); err != nil {
		return err
	}
	if err := writeFile(exemplarCSVPath, func(f *os.File) error {
		return obs.WriteExemplarCSV(f, out.Exemplars)
	}); err != nil {
		return err
	}
	return writeFile(csvPath, func(f *os.File) error {
		return out.Result.CSV(f)
	})
}
