package main

import (
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strings"
)

// environment is the header of every result: enough to tell whether two
// results may be compared.
type environment struct {
	Commit     string  `json:"commit"`
	GoVersion  string  `json:"go_version"`
	NumCPU     int     `json:"nproc"`
	GOMAXPROCS int     `json:"gomaxprocs"`
	CPUModel   string  `json:"cpu_model"`
	Kernel     string  `json:"kernel"`
	LoadStart  string  `json:"load1_start"`
	LoadEnd    string  `json:"load1_end"`
	Seed       uint64  `json:"seed"`
	Reps       int     `json:"repetitions"`
	RepSeconds float64 `json:"seconds_per_repetition"`
	Quick      bool    `json:"quick_not_comparable,omitempty"`
}

// maxProcs is pinned for every workload: the box the bounds were measured on
// has 2 vCPUs, and Go before 1.25 ignores a container's CPU quota.
const maxProcs = 2

func readEnvironment() environment {
	return environment{
		Commit:     commit(),
		GoVersion:  runtime.Version(),
		NumCPU:     runtime.NumCPU(),
		GOMAXPROCS: maxProcs,
		CPUModel:   cpuModel(),
		Kernel:     firstLine("/proc/sys/kernel/osrelease"),
		LoadStart:  load1(),
	}
}

func load1() string {
	f := strings.Fields(firstLine("/proc/loadavg"))
	if len(f) == 0 {
		return "unknown"
	}
	return f[0]
}

func firstLine(path string) string {
	b, err := os.ReadFile(path)
	if err != nil {
		return "unknown"
	}
	line, _, _ := strings.Cut(string(b), "\n")
	return strings.TrimSpace(line)
}

func cpuModel() string {
	b, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(b), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// commit names the checkout's commit, or "unknown" outside a git work tree
// (the PR driver's checkout is not one). The ceiling keeps git from adopting
// an enclosing repository.
func commit() string {
	wd, err := os.Getwd()
	if err != nil {
		return "unknown"
	}
	cmd := exec.Command("git", "rev-parse", "--short", "HEAD")
	cmd.Env = append(os.Environ(), "GIT_CEILING_DIRECTORIES="+filepath.Dir(wd))
	out, err := cmd.Output()
	if err != nil {
		return "unknown"
	}
	return strings.TrimSpace(string(out))
}
