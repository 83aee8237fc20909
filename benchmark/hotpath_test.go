package main

import (
	"path/filepath"
	"reflect"
	"strings"
	"testing"
)

func TestParseBenchOutput(t *testing.T) {
	const text = `goos: linux
goarch: amd64
pkg: mpdp/internal/transport
BenchmarkDedupAdmit-2    	14253966	         7.343 ns/op	       0 B/op	       0 allocs/op
BenchmarkFrameEncode-2   	 6713600	        15.81 ns/op	67550.40 MB/s	       0 B/op	       1 allocs/op
BenchmarkNoMem   	 100	 12 ns/op
PASS
`
	got := map[string]float64{}
	parseBenchOutput("transport", text, got)
	want := map[string]float64{
		"transport.DedupAdmit.ns_op": 7.343, "transport.DedupAdmit.allocs_op": 0,
		"transport.FrameEncode.ns_op": 15.81, "transport.FrameEncode.allocs_op": 1,
		"transport.NoMem.ns_op": 12,
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("got %v\nwant %v", got, want)
	}
}

// The per-layer list names the hot-path benchmarks statically (BENCHMARK.json
// must). bench/hotpath_gates.txt is the repo's and may move on without the
// benchmark — a gate it drops reads n/a, one it adds is not reported — so
// this only checks that the file still parses into what runHotpath expects.
func TestReadGatesParsesTheRepoFile(t *testing.T) {
	dirs, byDir, err := readGates(filepath.Join("..", hotpathGates))
	if err != nil {
		t.Fatal(err)
	}
	if len(dirs) == 0 {
		t.Fatal("no gates parsed")
	}
	for _, dir := range dirs {
		if !strings.HasPrefix(dir, "./internal/") {
			t.Errorf("gate directory %q is not a package of this module", dir)
		}
		for _, name := range byDir[dir] {
			if !strings.HasPrefix(name, "Benchmark") {
				t.Errorf("%s: gate %q is not a benchmark name", dir, name)
			}
		}
	}
}
