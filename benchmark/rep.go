package main

import (
	"bytes"
	"fmt"
	"math"
	"runtime"
	"runtime/metrics"
	"runtime/pprof"
	"sync/atomic"
	"syscall"
	"time"
)

// Tracing modes of one repetition. End-to-end metrics come only from
// traceOff repetitions. The CPU profile and the exact heap profile run in
// separate repetitions because MemProfileRate=1 records a stack on every
// malloc, which would itself dominate a CPU profile taken alongside it.
const (
	traceOff  = "off"
	traceCPU  = "cpu"  // runtime/pprof CPU profile + the program's public taps
	traceHeap = "heap" // runtime.MemProfileRate = 1
)

// repConfig is what the driver hands one child process.
type repConfig struct {
	Workload  string
	Seed      uint64
	Measure   time.Duration
	Trace     string
	SpawnedAt time.Time // when the driver started the child; setup_s counts from here
}

func (rc repConfig) taps() bool { return rc.Trace == traceCPU }

// repResult is one repetition's outcome, printed by the child as one JSON
// line and aggregated by the driver.
type repResult struct {
	Workload  string             `json:"workload"`
	Trace     string             `json:"trace"`
	E2E       map[string]float64 `json:"e2e"`
	Layer     map[string]float64 `json:"layer,omitempty"`       // stage and count metrics
	CPUByLyr  map[string]int64   `json:"cpu_samples,omitempty"` // CPU profile samples per layer
	HeapByLyr map[string]int64   `json:"heap_objects,omitempty"`
	Offered   uint64             `json:"offered"`
	Delivered uint64             `json:"delivered"`
	Failed    uint64             `json:"failed"` // written-off tokens
	Samples   int                `json:"lat_samples"`
	Digest    string             `json:"digest,omitempty"` // sim_*: hash of the virtual-time outcome
	Errors    []string           `json:"errors,omitempty"` // failed correctness checks
}

func (r *repResult) fail(format string, args ...any) {
	r.Errors = append(r.Errors, fmt.Sprintf(format, args...))
}

// epoch anchors the benchmark's monotonic clock.
var epoch = time.Now()

// now returns monotonic nanoseconds since process start. Every latency the
// benchmark reports on a wall-clock workload is a difference of two of these.
func now() int64 { return int64(time.Since(epoch)) }

// counters is one reading of the process-wide cost counters.
type counters struct {
	at         int64
	cpu        time.Duration // getrusage user+sys
	mallocs    uint64
	allocBytes uint64
	rt         []metrics.Sample
}

var runtimeMetricNames = []string{
	"/gc/cycles/total:gc-cycles",
	"/sched/pauses/total/gc:seconds",
	"/sched/latencies:seconds",
	"/gc/heap/live:bytes",
	"/sched/goroutines:goroutines",
}

func readCounters() counters {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		panic(err) // RUSAGE_SELF with a valid pointer cannot fail
	}
	c := counters{
		cpu:        time.Duration(ru.Utime.Nano() + ru.Stime.Nano()),
		mallocs:    ms.Mallocs,
		allocBytes: ms.TotalAlloc,
		rt:         make([]metrics.Sample, len(runtimeMetricNames)),
	}
	for i, n := range runtimeMetricNames {
		c.rt[i].Name = n
	}
	metrics.Read(c.rt)
	c.at = now()
	return c
}

// meter brackets a repetition's measured window: set-up time, cost counters
// before and after, and whichever profile the trace mode asks for.
type meter struct {
	rc      repConfig
	res     *repResult
	before  counters
	after   counters
	cpuProf bytes.Buffer
	heap0   map[[32]uintptr]int64
}

// setupDone marks the end of set-up: process start, construction, warm-up.
func (m *meter) setupDone() {
	m.res.E2E["setup_s"] = time.Since(m.rc.SpawnedAt).Seconds()
}

// begin opens the measured window.
func (m *meter) begin() {
	if m.rc.Trace == traceHeap {
		m.heap0 = heapObjects()
	}
	m.before = readCounters()
	if m.rc.Trace == traceCPU {
		// pprof fixes its rate at 100 Hz, which gives a 4 s repetition a few
		// hundred samples. Setting the runtime's rate first makes pprof's own
		// attempt a no-op (the runtime says so once on stderr). The folded
		// shares only count samples, so the 100 Hz period pprof still writes
		// into the profile's header does not reach them.
		runtime.SetCPUProfileRate(cpuProfileHz)
		if err := pprof.StartCPUProfile(&m.cpuProf); err != nil {
			m.res.fail("cpu profile: %v", err)
		}
	}
}

// end closes the measured window. Counters are read first so stopping the
// profile is not billed to the window.
func (m *meter) end() {
	m.after = readCounters()
	switch m.rc.Trace {
	case traceCPU:
		pprof.StopCPUProfile()
	case traceHeap:
		m.res.HeapByLyr = map[string]int64{}
		for stack, n := range heapObjects() {
			if d := n - m.heap0[stack]; d > 0 {
				m.res.HeapByLyr[layerOfAlloc(stackNames(stack))] += d
			}
		}
	}
}

// finish derives the whole-stack cost metrics from the window. work is the
// packet count throughput is quoted in: simulated packets on sim_*,
// delivered packets elsewhere.
func (m *meter) finish(work uint64) {
	r := m.res
	secs := float64(m.after.at-m.before.at) / 1e9
	r.E2E["host.pkts_per_s"] = float64(work) / secs
	r.E2E["host.cpu_us_per_pkt"] = float64(m.after.cpu-m.before.cpu) / 1e3 / float64(r.Delivered)
	r.E2E["mallocs_per_pkt"] = float64(m.after.mallocs-m.before.mallocs) / float64(r.Offered)
	r.E2E["alloc_bytes_per_pkt"] = float64(m.after.allocBytes-m.before.allocBytes) / float64(r.Offered)
	r.E2E["delivered_ratio"] = float64(r.Delivered) / float64(r.Offered)

	// Indices follow runtimeMetricNames.
	b, a := m.before.rt, m.after.rt
	r.Layer["runtime.gc_cycles_per_mpkt"] = float64(a[0].Value.Uint64()-b[0].Value.Uint64()) / float64(r.Offered) * 1e6
	r.Layer["runtime.gc_pause_p99_us"] = histDeltaQuantile(b[1].Value.Float64Histogram(), a[1].Value.Float64Histogram(), 0.99) * 1e6
	r.Layer["runtime.sched_latency_p99_us"] = histDeltaQuantile(b[2].Value.Float64Histogram(), a[2].Value.Float64Histogram(), 0.99) * 1e6
	r.Layer["runtime.heap_live_mb"] = float64(a[3].Value.Uint64()) / (1 << 20)
	r.Layer["runtime.goroutines"] = float64(a[4].Value.Uint64())

	if m.rc.Trace == traceCPU {
		samples, err := readProfile(m.cpuProf.Bytes())
		if err != nil {
			r.fail("cpu profile: %v", err)
			return
		}
		r.CPUByLyr = map[string]int64{}
		for _, s := range samples {
			r.CPUByLyr[layerOfCPU(s.stack)] += s.count
		}
	}
}

// histDeltaQuantile returns the q-quantile of the observations a
// runtime/metrics histogram gained between two reads (the upper edge of the
// bucket that holds it; 0 when nothing was observed).
func histDeltaQuantile(before, after *metrics.Float64Histogram, q float64) float64 {
	var total uint64
	for i, c := range after.Counts {
		total += c - before.Counts[i]
	}
	if total == 0 {
		return 0
	}
	want := uint64(math.Ceil(q * float64(total)))
	var cum uint64
	for i, c := range after.Counts {
		cum += c - before.Counts[i]
		if cum >= want {
			if hi := after.Buckets[i+1]; !math.IsInf(hi, 1) {
				return hi
			}
			return after.Buckets[i]
		}
	}
	return 0
}

// heapObjects reads the exact (MemProfileRate=1) allocation profile:
// objects allocated so far, by allocation stack.
func heapObjects() map[[32]uintptr]int64 {
	runtime.GC() // the profile is published as of the last completed cycle
	n, _ := runtime.MemProfile(nil, true)
	var recs []runtime.MemProfileRecord
	for {
		recs = make([]runtime.MemProfileRecord, n+64)
		var ok bool
		if n, ok = runtime.MemProfile(recs, true); ok {
			break
		}
	}
	out := make(map[[32]uintptr]int64, n)
	for _, r := range recs[:n] {
		out[r.Stack0] += r.AllocObjects
	}
	return out
}

// stackNames symbolises an allocation stack, leaf first.
func stackNames(stack [32]uintptr) []string {
	n := 0
	for n < len(stack) && stack[n] != 0 {
		n++
	}
	var names []string
	frames := runtime.CallersFrames(stack[:n])
	for {
		f, more := frames.Next()
		if f.Function != "" {
			names = append(names, f.Function)
		}
		if !more {
			return names
		}
	}
}

// recorder collects the latency samples of one delivery context (one
// goroutine, or callbacks serialised by one lock). int32 nanoseconds cover
// 2.1 s, beyond the watchdog that writes a packet off.
type recorder struct{ samples []int32 }

func newRecorder() *recorder {
	// Room for a repetition at 800 k pkts/s; fresh pages cost no RSS until
	// written, and no allocation lands inside the measured window.
	return &recorder{samples: make([]int32, 0, 1<<22)}
}

func (r *recorder) add(nanos int64) {
	if nanos > math.MaxInt32 {
		nanos = math.MaxInt32
	}
	r.samples = append(r.samples, int32(nanos))
}

const (
	cpuProfileHz = 500
	warmUp       = 500 * time.Millisecond
	lostAfter    = 2 * time.Second // longer than a mesh drain stalls a flow
)

// closedLoop is the load model of every wall-clock workload: one generator
// goroutine, W clients, each sending its next packet only when the previous
// one was delivered. After warmUp the measured window opens; packets sent
// inside it are the ones counted and timed.
type closedLoop struct {
	win       *window
	start     atomic.Int64 // window start on the now() clock; MaxInt64 until it opens
	onBegin   func()       // extra snapshot when the window opens
	sendSpans *recorder    // traced repetitions: duration of each send call
}

// run drives send until the window has been open for rc.Measure, then
// collects the outstanding tokens. send receives the packet's sent_at.
func (c *closedLoop) run(m *meter, w int, send func(sentAt int64)) {
	c.win = newWindow(w, lostAfter)
	c.start.Store(math.MaxInt64)
	if m.rc.taps() {
		c.sendSpans = newRecorder()
	}
	warmEnd := now() + int64(warmUp)
	open, end := false, int64(0)
	var lostWarm uint64
	for {
		c.win.take()
		t := now()
		if !open && t >= warmEnd {
			m.setupDone()
			lostWarm = c.win.lost.Load()
			if c.onBegin != nil {
				c.onBegin()
			}
			m.begin()
			t = now()
			c.start.Store(t)
			open, end = true, t+int64(m.rc.Measure)
		}
		if open && t >= end {
			c.win.give()
			break
		}
		send(t)
		if open {
			m.res.Offered++
			if c.sendSpans != nil {
				c.sendSpans.add(now() - t)
			}
		}
	}
	m.end()
	c.win.drain()
	m.res.Failed = c.win.lost.Load() - lostWarm
}

// delivered is the delivery callback's half: time the packet, return the
// client's token.
func (c *closedLoop) delivered(rec *recorder, sentAt int64) {
	if sentAt >= c.start.Load() {
		rec.add(now() - sentAt)
	}
	c.win.give()
}

// latency folds the recorders into the latency metrics and the
// delivered count. The first recorder's buffer has room for the others.
func (m *meter) latency(first *recorder, rest ...*recorder) {
	all := first.samples
	for _, r := range rest {
		all = append(all, r.samples...)
	}
	m.res.Delivered = uint64(len(all))
	m.res.Samples = len(all)
	p := nanosToMicros(all, 0.50, 0.99)
	m.res.setLatency(p[0], p[1])
}

// setLatency records the median and p99 latency in microseconds and the
// tail ratio, which the host's slow phases scale out of.
func (r *repResult) setLatency(p50, p99 float64) {
	r.E2E["host.lat_p50_us"], r.E2E["host.lat_p99_us"] = p50, p99
	r.E2E["lat_p99_over_p50"] = ratio(p99, p50)
}
