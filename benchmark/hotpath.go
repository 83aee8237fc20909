package main

import (
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
)

const (
	hotpathGates = "bench/hotpath_gates.txt" // read-only: one "<package dir>\t<benchmark>" per line
	buildDir     = ".bench_build"            // shared with run.sh
)

// runHotpath runs every benchmark of bench/hotpath_gates.txt once and
// returns <pkg>.<name>.ns_op and <pkg>.<name>.allocs_op. A benchmark that
// no longer exists or no longer builds is left out (reported as n/a), not an
// error: the gates file is the repo's, the numbers are informational.
func runHotpath() (map[string]float64, error) {
	dirs, byDir, err := readGates(hotpathGates)
	if err != nil {
		return nil, err
	}

	binDir, err := filepath.Abs(filepath.Join(buildDir, "hotpath"))
	if err != nil {
		return nil, err
	}
	if err := os.MkdirAll(binDir, 0o755); err != nil {
		return nil, err
	}
	out := map[string]float64{}
	for _, dir := range dirs {
		pkg := filepath.Base(dir)
		bin := filepath.Join(binDir, pkg+".test")
		if msg, err := exec.Command("go", "test", "-c", "-o", bin, dir).CombinedOutput(); err != nil {
			fmt.Fprintf(os.Stderr, "hotpath: %s does not build, its benchmarks are n/a: %v\n%s", dir, err, msg)
			continue
		}
		cmd := exec.Command(bin, "-test.run", "^$", "-test.bench", "^("+strings.Join(byDir[dir], "|")+")$",
			"-test.benchmem", "-test.benchtime", "100ms")
		cmd.Dir = dir // benchmarks may read testdata relative to their package
		text, err := cmd.Output()
		if err != nil {
			fmt.Fprintf(os.Stderr, "hotpath: %s benchmarks failed, n/a: %v\n", dir, err)
			continue
		}
		parseBenchOutput(pkg, string(text), out)
	}
	return out, nil
}

// readGates parses the gates file: package directories in file order and
// each directory's benchmark names.
func readGates(path string) (dirs []string, byDir map[string][]string, err error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, nil, err
	}
	byDir = map[string][]string{}
	for _, line := range strings.Split(string(raw), "\n") {
		line = strings.TrimSpace(line)
		dir, name, ok := strings.Cut(line, "\t")
		if !ok || strings.HasPrefix(line, "#") {
			continue
		}
		if byDir[dir] == nil {
			dirs = append(dirs, dir)
		}
		byDir[dir] = append(byDir[dir], name)
	}
	return dirs, byDir, nil
}

// parseBenchOutput reads `go test -bench -benchmem` result lines
// ("BenchmarkX-2  N  6.85 ns/op  0 B/op  0 allocs/op") into out.
func parseBenchOutput(pkg, text string, out map[string]float64) {
	for _, line := range strings.Split(text, "\n") {
		fields := strings.Fields(line)
		if len(fields) < 4 || !strings.HasPrefix(fields[0], "Benchmark") {
			continue
		}
		name, _, _ := strings.Cut(strings.TrimPrefix(fields[0], "Benchmark"), "-")
		for i := 2; i+1 < len(fields); i++ {
			v, err := strconv.ParseFloat(fields[i], 64)
			if err != nil {
				continue
			}
			switch fields[i+1] {
			case "ns/op":
				out[pkg+"."+name+".ns_op"] = v
			case "allocs/op":
				out[pkg+"."+name+".allocs_op"] = v
			}
		}
	}
}
