package main

import (
	"sync"
	"testing"
	"time"
)

// fakeSink stands in for a system under test: it "delivers" every packet it
// is handed on its own goroutine, except the ones it is told to swallow.
type fakeSink struct {
	in      chan int
	swallow map[int]bool
	wg      sync.WaitGroup
}

func newFakeSink(win *window, swallow ...int) *fakeSink {
	s := &fakeSink{in: make(chan int, 64), swallow: map[int]bool{}} // deeper than any window the tests use
	for _, i := range swallow {
		s.swallow[i] = true
	}
	s.wg.Add(1)
	go func() {
		defer s.wg.Done()
		for i := range s.in {
			if !s.swallow[i] {
				win.give()
			}
		}
	}()
	return s
}

func (s *fakeSink) close() { close(s.in); s.wg.Wait() }

func TestWindowBoundsInFlight(t *testing.T) {
	const w = 4
	win := newWindow(w, time.Second)
	// Nothing is delivered, so exactly W takes succeed without blocking.
	for i := 0; i < w; i++ {
		win.take()
	}
	select {
	case <-win.tokens:
		t.Fatal("a fifth token was available in a window of four")
	default:
	}
	for i := 0; i < w; i++ {
		win.give()
	}
	win.give() // a late token beyond W is dropped, never blocks
	if got := len(win.tokens); got != w {
		t.Fatalf("window holds %d tokens, want %d", got, w)
	}
}

func TestWindowClosedLoopAgainstSink(t *testing.T) {
	win := newWindow(8, time.Second)
	sink := newFakeSink(win)
	const n = 10000
	for i := 0; i < n; i++ {
		win.take()
		sink.in <- i
	}
	win.drain()
	sink.close()
	if lost := win.lost.Load(); lost != 0 {
		t.Fatalf("lost %d tokens with a sink that delivers everything", lost)
	}
}

func TestWindowWritesOffALostToken(t *testing.T) {
	win := newWindow(2, 20*time.Millisecond)
	sink := newFakeSink(win, 5) // packet 5 is never delivered
	start := time.Now()
	for i := 0; i < 100; i++ {
		win.take()
		sink.in <- i
	}
	win.drain()
	sink.close()
	if lost := win.lost.Load(); lost != 1 {
		t.Fatalf("lost = %d, want exactly the one swallowed packet", lost)
	}
	if el := time.Since(start); el > 2*time.Second {
		t.Fatalf("a lost token stalled the loop for %v", el)
	}
}

func TestWindowDrainWritesOffEverythingAfterOneSilence(t *testing.T) {
	win := newWindow(16, 20*time.Millisecond)
	for i := 0; i < 16; i++ {
		win.take() // sixteen packets into a sink that never delivers
	}
	start := time.Now()
	win.drain()
	if lost := win.lost.Load(); lost != 16 {
		t.Fatalf("lost = %d, want all 16", lost)
	}
	if el := time.Since(start); el > 200*time.Millisecond {
		t.Fatalf("drain waited %v: one silence of lostAfter is enough", el)
	}
}

// The generator end to end, without sockets: warm-up, measured window,
// counters, latency samples and token accounting.
func TestClosedLoopCountsWhatItSent(t *testing.T) {
	m := &meter{
		rc:  repConfig{Workload: "fake", Measure: 200 * time.Millisecond, Trace: traceOff, SpawnedAt: time.Now()},
		res: &repResult{E2E: map[string]float64{}, Layer: map[string]float64{}},
	}
	var loop closedLoop
	rec := newRecorder()
	pending := make(chan int64, 16) // deeper than the window
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for sentAt := range pending {
			loop.delivered(rec, sentAt)
		}
	}()
	loop.run(m, 4, func(sentAt int64) { pending <- sentAt })
	close(pending)
	wg.Wait()
	m.latency(rec)
	m.res.E2E["tx_bytes_ratio"] = 1
	m.finish(m.res.Delivered)

	res := m.res
	if res.Offered == 0 || res.Delivered != res.Offered || res.Failed != 0 {
		t.Fatalf("offered %d delivered %d failed %d: every packet sent in the window must be delivered and timed",
			res.Offered, res.Delivered, res.Failed)
	}
	if s := res.E2E["setup_s"]; s < warmUp.Seconds() || s > warmUp.Seconds()+1 {
		t.Errorf("setup_s = %v, want the warm-up (%v) plus a little", s, warmUp)
	}
	for _, name := range []string{"host.pkts_per_s", "host.cpu_us_per_pkt", "host.lat_p50_us", "host.lat_p99_us", "lat_p99_over_p50", "delivered_ratio"} {
		if res.E2E[name] <= 0 {
			t.Errorf("%s = %v, want > 0", name, res.E2E[name])
		}
	}
	if res.E2E["host.lat_p99_us"] < res.E2E["host.lat_p50_us"] {
		t.Errorf("p99 %v below p50 %v", res.E2E["host.lat_p99_us"], res.E2E["host.lat_p50_us"])
	}
}
