package sentinel

import (
	"encoding/json"
	"errors"
	"fmt"
	"sync"
	"time"

	"mpdp/internal/live"
	"mpdp/internal/obs"
	"mpdp/internal/stats"
	"mpdp/internal/transport"
)

// CaptureConfig wires the detector to a live transport run.
type CaptureConfig struct {
	// Detector tunes the episode state machine.
	Detector Config
	// Dir is where incident bundles are written (required).
	Dir string
	// RampTo is the sample-every rate during an episode (default 1:
	// capture every packet while it hurts).
	RampTo int
	// SenderTrace / ReceiverTrace are the endpoints' wire recorders —
	// ramped on episode start, snapshotted into the bundle. At least
	// one is required: a sentinel with nothing to capture is a no-op.
	SenderTrace   *obs.WireRecorder
	ReceiverTrace *obs.WireRecorder
	// E2E is the end-to-end latency histogram whose windowed p99 feeds
	// the detector (required).
	E2E *live.Histogram
	// SLO, when non-nil, contributes the burn-rate trigger and its
	// status document to the bundle. The capture ticks it (SLOTracker
	// throttles ring pushes internally, so an extra ticker is harmless).
	SLO *live.SLOTracker
	// PathHealth, when non-nil, is polled each tick for the path-health
	// trigger and the bundle's transition timeline.
	PathHealth func() []transport.PathHealthSnap
	// Profile, when non-nil, grabs pprof CPU/heap windows from a debug
	// listener at episode start.
	Profile *ProfileGrabber
	// Now is the capture's clock in unix nanoseconds; defaults to the
	// wall clock. Tests inject it, which — with the detector's injected
	// Sample stream — makes bundle manifests byte-reproducible.
	Now func() int64
}

// Capture runs the sentinel against a live run: gather signals, drive
// the detector, and perform the episode side effects (ramp, snapshot,
// profile, bundle). One driver goroutine calls Tick/Run/Close; Bundles
// and Err are safe from anywhere.
type Capture struct {
	cfg CaptureConfig
	det *Detector

	prevHist   *stats.Hist
	lastHealth map[int]string
	timeline   []HealthChange

	// Open-episode capture state, valid between TransStart and TransEnd.
	pre     []obs.WireEvent
	markS   uint64
	markR   uint64
	prevEvS int
	prevEvR int
	profCh  chan profileResult
	seq     int

	mu      sync.Mutex // guards bundles and lastErr only
	bundles []string
	lastErr error
}

// NewCapture validates cfg and builds a capture.
func NewCapture(cfg CaptureConfig) (*Capture, error) {
	if cfg.Dir == "" {
		return nil, errors.New("sentinel: capture needs a bundle directory")
	}
	if cfg.E2E == nil {
		return nil, errors.New("sentinel: capture needs an e2e histogram to watch")
	}
	if cfg.SenderTrace == nil && cfg.ReceiverTrace == nil {
		return nil, errors.New("sentinel: capture needs at least one wire recorder to ramp")
	}
	if cfg.RampTo <= 0 {
		cfg.RampTo = 1
	}
	if cfg.Now == nil {
		cfg.Now = func() int64 { return time.Now().UnixNano() }
	}
	return &Capture{
		cfg:        cfg,
		det:        NewDetector(cfg.Detector),
		lastHealth: map[int]string{},
	}, nil
}

// State exposes the detector's current state (for status lines).
func (c *Capture) State() State { return c.det.State() }

// Bundles returns the paths of every bundle written so far.
func (c *Capture) Bundles() []string {
	c.mu.Lock()
	defer c.mu.Unlock()
	return append([]string(nil), c.bundles...)
}

// Err returns the most recent bundle-write error, if any.
func (c *Capture) Err() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.lastErr
}

// Tick gathers one tick of signals, feeds the detector, and performs
// any episode side effects. Driver-goroutine only.
func (c *Capture) Tick() error {
	now := c.cfg.Now()

	snap := c.cfg.E2E.Snapshot()
	win := snap
	if c.prevHist != nil {
		win = snap.Delta(c.prevHist)
	}
	c.prevHist = snap
	p99 := int64(-1)
	if win.Count() > 0 {
		p99 = win.Percentile(0.99)
	}

	crit := false
	if t := c.cfg.SLO; t != nil {
		t.Tick()
		st, _ := t.State()
		crit = st == live.SLOCritical
	}

	unhealthy := 0
	if c.cfg.PathHealth != nil {
		for _, h := range c.cfg.PathHealth() {
			if h.State != "up" {
				unhealthy++
			}
			if c.lastHealth[h.Path] != h.State {
				c.timeline = append(c.timeline, HealthChange{
					Nanos: now, Path: h.Path,
					From: c.lastHealth[h.Path], To: h.State,
					Quarantines: h.Quarantines,
				})
				c.lastHealth[h.Path] = h.State
			}
		}
	}

	trans, ep := c.det.Observe(Sample{
		Nanos: now, P99: p99, SLOCritical: crit, UnhealthyPaths: unhealthy,
	})
	switch trans {
	case TransStart:
		c.onStart()
	case TransEnd:
		return c.finish(ep)
	}
	return nil
}

// onStart performs the episode-start side effects: snapshot the rings'
// pre-trigger history, ramp both recorders to the episode rate, and
// kick off the profile grab. Nothing here blocks: ring snapshots are a
// bounded copy, the ramp is one atomic swap per endpoint, and the
// profile fetch runs on its own goroutine.
func (c *Capture) onStart() {
	c.pre = c.pre[:0]
	if st := c.cfg.SenderTrace; st != nil {
		evs, mark := st.SnapshotSince(0)
		c.pre = append(c.pre, evs...)
		c.markS = mark
		c.prevEvS = st.SetSampleEvery(c.cfg.RampTo)
	}
	if rt := c.cfg.ReceiverTrace; rt != nil {
		evs, mark := rt.SnapshotSince(0)
		c.pre = append(c.pre, evs...)
		c.markR = mark
		c.prevEvR = rt.SetSampleEvery(c.cfg.RampTo)
	}
	if g := c.cfg.Profile; g != nil {
		ch := make(chan profileResult, 1)
		c.profCh = ch
		go g.grab(ch)
	}
}

// finish performs the episode-end side effects: fetch exactly the
// episode's events, restore the steady-state sample rates, collect the
// profile if it landed, and write the bundle.
func (c *Capture) finish(ep Episode) error {
	var during []obs.WireEvent
	ramp := RampInfo{To: c.cfg.RampTo}
	if st := c.cfg.SenderTrace; st != nil {
		evs, _ := st.SnapshotSince(c.markS)
		during = append(during, evs...)
		st.SetSampleEvery(c.prevEvS)
		ramp.SenderFrom = c.prevEvS
	}
	if rt := c.cfg.ReceiverTrace; rt != nil {
		evs, _ := rt.SnapshotSince(c.markR)
		during = append(during, evs...)
		rt.SetSampleEvery(c.prevEvR)
		ramp.ReceiverFrom = c.prevEvR
	}

	var cpu, heap []byte
	if c.profCh != nil {
		if res := collectProfile(c.profCh, c.cfg.Profile.waitBudget()); res != nil {
			cpu, heap = res.cpu, res.heap
		}
		c.profCh = nil
	}

	var slo json.RawMessage
	if t := c.cfg.SLO; t != nil {
		raw, err := json.MarshalIndent(t.Status(), "", "  ")
		if err == nil {
			slo = append(raw, '\n')
		}
	}

	c.seq++
	dir, err := writeBundle(c.cfg.Dir, bundleInput{
		seq:    c.seq,
		ep:     ep,
		ramp:   ramp,
		pre:    append([]obs.WireEvent(nil), c.pre...),
		during: during,
		slo:    slo,
		health: append([]HealthChange(nil), c.timeline...),
		cpu:    cpu,
		heap:   heap,
	})
	c.pre = nil
	c.mu.Lock()
	if err != nil {
		c.lastErr = fmt.Errorf("sentinel: bundle %d: %w", c.seq, err)
		err = c.lastErr
	} else {
		c.bundles = append(c.bundles, dir)
	}
	c.mu.Unlock()
	return err
}

// Run drives Tick on a ticker until stop closes. Bundle-write errors
// are retained (Err) rather than aborting the loop: one failed write
// must not stop detection of the next episode.
func (c *Capture) Run(every time.Duration, stop <-chan struct{}) {
	if every <= 0 {
		every = 100 * time.Millisecond
	}
	t := time.NewTicker(every)
	defer t.Stop()
	for {
		select {
		case <-stop:
			return
		case <-t.C:
			c.Tick() //lint:allow erroreat retained in lastErr; the loop must outlive one bad write
		}
	}
}

// Close force-ends an open episode (a run tearing down mid-episode
// still yields its bundle) and returns every bundle path written. Call
// after the Run loop has stopped.
func (c *Capture) Close() ([]string, error) {
	if ep, open := c.det.ForceEnd(c.cfg.Now()); open {
		if err := c.finish(ep); err != nil {
			return c.Bundles(), err
		}
	}
	return c.Bundles(), c.Err()
}
