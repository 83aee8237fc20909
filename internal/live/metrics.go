package live

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"mpdp/internal/stats"
)

// Registry is a named metrics registry for the live engine: owned atomic
// counters plus read-only hooks onto counters and gauges that live
// elsewhere (the engine's own atomics). Reads are lock-free on the hot
// path; registration takes a write lock and is expected at setup time.
//
// This is the wall-clock side of the observability plane — unlike
// internal/obs it may touch real time, goroutines and HTTP.
type Registry struct {
	mu       sync.RWMutex
	owned    map[string]*atomic.Uint64
	counters map[string]func() uint64
	gauges   map[string]func() float64
	hists    map[string]*Histogram
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{
		owned:    make(map[string]*atomic.Uint64),
		counters: make(map[string]func() uint64),
		gauges:   make(map[string]func() float64),
		hists:    make(map[string]*Histogram),
	}
}

// Counter returns the named owned counter, creating it on first use.
func (r *Registry) Counter(name string) *atomic.Uint64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	c, ok := r.owned[name]
	if !ok {
		c = &atomic.Uint64{}
		r.owned[name] = c
	}
	return c
}

// CounterFunc registers a read-only counter source (monotone values).
func (r *Registry) CounterFunc(name string, fn func() uint64) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.counters[name] = fn
}

// GaugeFunc registers a read-only gauge source (instantaneous values).
func (r *Registry) GaugeFunc(name string, fn func() float64) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.gauges[name] = fn
}

// RegisterHistogram attaches a Histogram under name (which may carry a
// label block, e.g. `mpdp_stage_latency_ns{stage="nf_nat"}`). The registry
// renders it as a Prometheus histogram family plus derived
// `<family>_{p50,p90,p99,p999}` quantile gauges and `<family>_count`/
// `<family>_sum`, and folds the same derived values into Snapshot and the
// JSON exposition.
func (r *Registry) RegisterHistogram(name string, h *Histogram) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.hists[name] = h
}

// histDerived appends one histogram's derived scalar readings to out. The
// suffix is inserted before any label block so labeled families stay
// labeled: `lat_ns{stage="x"}` → `lat_ns_p99{stage="x"}`.
func histDerived(out map[string]float64, name string, s *stats.Hist) {
	family, labels := splitLabels(name)
	put := func(suffix string, v float64) {
		out[family+suffix+labels] = v
	}
	put("_count", float64(s.Count()))
	put("_sum", float64(s.Sum()))
	put("_p50", float64(s.Percentile(0.50)))
	put("_p90", float64(s.Percentile(0.90)))
	put("_p99", float64(s.Percentile(0.99)))
	put("_p999", float64(s.Percentile(0.999)))
}

// Snapshot reads every metric, including each histogram's derived count,
// sum and quantiles. Counters and gauges share the namespace; names are
// unique by construction in the engine's registry.
func (r *Registry) Snapshot() map[string]float64 {
	r.mu.RLock()
	defer r.mu.RUnlock()
	out := r.scalarsLocked()
	for name, h := range r.hists {
		histDerived(out, name, h.Snapshot())
	}
	return out
}

// scalarsLocked reads the non-histogram metrics. Callers hold r.mu.
func (r *Registry) scalarsLocked() map[string]float64 {
	out := make(map[string]float64, len(r.owned)+len(r.counters)+len(r.gauges)+6*len(r.hists))
	for name, c := range r.owned {
		out[name] = float64(c.Load())
	}
	for name, fn := range r.counters {
		out[name] = float64(fn())
	}
	for name, fn := range r.gauges {
		out[name] = fn()
	}
	return out
}

// counterNames returns the names registered as counters (owned + hooks),
// plus each histogram's monotone derived series (count and sum).
func (r *Registry) counterNames() map[string]bool {
	r.mu.RLock()
	defer r.mu.RUnlock()
	out := make(map[string]bool, len(r.owned)+len(r.counters)+2*len(r.hists))
	for name := range r.owned {
		out[name] = true
	}
	for name := range r.counters {
		out[name] = true
	}
	for name := range r.hists {
		family, labels := splitLabels(name)
		out[family+"_count"+labels] = true
		out[family+"_sum"+labels] = true
	}
	return out
}

// WriteJSON writes the snapshot as an expvar-style JSON object, keys
// sorted for stable output.
func (r *Registry) WriteJSON(w io.Writer) error {
	snap := r.Snapshot()
	names := make([]string, 0, len(snap))
	for name := range snap {
		names = append(names, name)
	}
	sort.Strings(names)
	// Hand-roll the object to keep key order deterministic.
	var b strings.Builder
	b.WriteString("{")
	for i, name := range names {
		if i > 0 {
			b.WriteString(",")
		}
		key, _ := json.Marshal(name)
		fmt.Fprintf(&b, "%s:%s", key, trimJSONNumber(snap[name]))
	}
	b.WriteString("}\n")
	_, err := io.WriteString(w, b.String())
	return err
}

func trimJSONNumber(v float64) string {
	if v == float64(int64(v)) {
		return fmt.Sprintf("%d", int64(v))
	}
	return fmt.Sprintf("%g", v)
}

// WritePrometheus writes the snapshot in the Prometheus text exposition
// format (version 0.0.4). Registry names may carry a label block (e.g.
// `mpdp_lane_depth{lane="2"}`); the TYPE comment is emitted once per
// metric family. Registered histograms render as native histogram
// families (`_bucket{le=...}` cumulative series coalesced per power of
// two, `_sum`, `_count`) followed by derived quantile gauges.
func (r *Registry) WritePrometheus(w io.Writer) error {
	r.mu.RLock()
	snap := r.scalarsLocked()
	histNames := make([]string, 0, len(r.hists))
	for name := range r.hists {
		histNames = append(histNames, name)
	}
	histSnaps := make(map[string]*stats.Hist, len(r.hists))
	for name, h := range r.hists {
		histSnaps[name] = h.Snapshot()
	}
	r.mu.RUnlock()
	isCounter := r.counterNames()

	names := make([]string, 0, len(snap))
	for name := range snap {
		names = append(names, name)
	}
	sort.Strings(names)
	sort.Strings(histNames)

	var b strings.Builder
	typed := make(map[string]bool)
	for _, name := range names {
		family, labels := splitLabels(name)
		family = promSanitize(family)
		if !typed[family] {
			kind := "gauge"
			if isCounter[name] {
				kind = "counter"
			}
			fmt.Fprintf(&b, "# TYPE %s %s\n", family, kind)
			typed[family] = true
		}
		fmt.Fprintf(&b, "%s%s %s\n", family, labels, trimJSONNumber(snap[name]))
	}

	for _, name := range histNames {
		family, labels := splitLabels(name)
		family = promSanitize(family)
		s := histSnaps[name]
		if !typed[family] {
			fmt.Fprintf(&b, "# TYPE %s histogram\n", family)
			typed[family] = true
		}
		// le labels merge into an existing label block: {stage="x"} →
		// {stage="x",le="…"}.
		leLabel := func(le string) string {
			if labels == "" {
				return fmt.Sprintf("{le=%q}", le)
			}
			return fmt.Sprintf("%s,le=%q}", strings.TrimSuffix(labels, "}"), le)
		}
		for _, bk := range s.CumBuckets() {
			fmt.Fprintf(&b, "%s_bucket%s %d\n", family, leLabel(fmt.Sprintf("%d", bk.Le)), bk.Count)
		}
		fmt.Fprintf(&b, "%s_bucket%s %d\n", family, leLabel("+Inf"), s.Count())
		fmt.Fprintf(&b, "%s_sum%s %d\n", family, labels, s.Sum())
		fmt.Fprintf(&b, "%s_count%s %d\n", family, labels, s.Count())
		for _, q := range []struct {
			suffix string
			q      float64
		}{{"_p50", 0.50}, {"_p90", 0.90}, {"_p99", 0.99}, {"_p999", 0.999}} {
			qf := family + q.suffix
			if !typed[qf] {
				fmt.Fprintf(&b, "# TYPE %s gauge\n", qf)
				typed[qf] = true
			}
			fmt.Fprintf(&b, "%s%s %d\n", qf, labels, s.Percentile(q.q))
		}
	}
	_, err := io.WriteString(w, b.String())
	return err
}

// splitLabels separates a registry name into its metric family and an
// optional `{...}` label block.
func splitLabels(name string) (family, labels string) {
	if i := strings.IndexByte(name, '{'); i >= 0 {
		return name[:i], name[i:]
	}
	return name, ""
}

// promSanitize maps a family name to a legal Prometheus metric name.
func promSanitize(name string) string {
	var b strings.Builder
	for i, c := range name {
		switch {
		case c >= 'a' && c <= 'z', c >= 'A' && c <= 'Z', c == '_', c == ':':
			b.WriteRune(c)
		case c >= '0' && c <= '9' && i > 0:
			b.WriteRune(c)
		default:
			b.WriteRune('_')
		}
	}
	return b.String()
}

// Sample is one periodic reading of the registry.
type Sample struct {
	At     time.Time          `json:"at"`
	Values map[string]float64 `json:"values"`
}

// MetricsSampler polls a registry on a wall-clock ticker, keeping a
// bounded history and per-second rates for counters. It is the live
// analogue of obs.Sampler.
type MetricsSampler struct {
	reg    *Registry
	period time.Duration

	mu      sync.Mutex
	history []Sample // ring, newest last
	keep    int
	last    map[string]float64
	rates   map[string]float64

	stopOnce sync.Once
	stop     chan struct{}
	done     chan struct{}
}

// NewMetricsSampler starts sampling reg every period, keeping the last
// keep samples (default 120). Call Stop when done.
func NewMetricsSampler(reg *Registry, period time.Duration, keep int) *MetricsSampler {
	if period <= 0 {
		period = time.Second
	}
	if keep <= 0 {
		keep = 120
	}
	s := &MetricsSampler{
		reg: reg, period: period, keep: keep,
		rates: make(map[string]float64),
		stop:  make(chan struct{}),
		done:  make(chan struct{}),
	}
	go s.run()
	return s
}

func (s *MetricsSampler) run() {
	defer close(s.done)
	t := time.NewTicker(s.period)
	defer t.Stop()
	for {
		select {
		case <-s.stop:
			return
		case now := <-t.C:
			s.sample(now)
		}
	}
}

func (s *MetricsSampler) sample(now time.Time) {
	snap := s.reg.Snapshot()
	counters := s.reg.counterNames()
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.last != nil {
		secs := s.period.Seconds()
		for name := range counters {
			rate := (snap[name] - s.last[name]) / secs
			// A counter that moved backwards (source restarted or was
			// reset) yields a bogus negative delta for one period; clamp
			// so dashboards never see a negative rate.
			if rate < 0 {
				rate = 0
			}
			s.rates[name+"_per_sec"] = rate
		}
	}
	s.last = snap
	s.history = append(s.history, Sample{At: now, Values: snap})
	if len(s.history) > s.keep {
		s.history = s.history[len(s.history)-s.keep:]
	}
}

// Rates returns the latest per-second counter rates ("<name>_per_sec").
func (s *MetricsSampler) Rates() map[string]float64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make(map[string]float64, len(s.rates))
	for k, v := range s.rates {
		out[k] = v
	}
	return out
}

// History returns the retained samples, oldest first.
func (s *MetricsSampler) History() []Sample {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]Sample, len(s.history))
	copy(out, s.history)
	return out
}

// Stop halts the sampling goroutine and waits for it to exit. Safe to
// call from multiple goroutines: the close happens exactly once (a naive
// closed-check-then-close races two concurrent stoppers into a double
// close and a panic).
func (s *MetricsSampler) Stop() {
	s.stopOnce.Do(func() { close(s.stop) })
	<-s.done
}

// MetricsHandler serves the registry over HTTP:
//
//	/metrics       Prometheus text exposition
//	/metrics.json  expvar-style JSON snapshot (plus rates and history
//	               when a sampler is attached)
//
// sampler may be nil.
func MetricsHandler(reg *Registry, sampler *MetricsSampler) http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/metrics", func(w http.ResponseWriter, req *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		if err := reg.WritePrometheus(w); err != nil {
			http.Error(w, err.Error(), http.StatusInternalServerError)
		}
	})
	mux.HandleFunc("/metrics.json", func(w http.ResponseWriter, req *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		if sampler == nil {
			if err := reg.WriteJSON(w); err != nil {
				http.Error(w, err.Error(), http.StatusInternalServerError)
			}
			return
		}
		doc := struct {
			Metrics map[string]float64 `json:"metrics"`
			Rates   map[string]float64 `json:"rates"`
			History []Sample           `json:"history"`
		}{reg.Snapshot(), sampler.Rates(), sampler.History()}
		enc := json.NewEncoder(w)
		if err := enc.Encode(doc); err != nil {
			http.Error(w, err.Error(), http.StatusInternalServerError)
		}
	})
	return mux
}

// Metrics returns the engine's registry, wiring the engine's counters and
// per-lane gauges on first call.
func (e *Engine) Metrics() *Registry {
	e.metricsOnce.Do(func() {
		r := NewRegistry()
		r.CounterFunc("mpdp_offered_total", e.offered.Load)
		r.CounterFunc("mpdp_delivered_total", e.delivered.Load)
		r.CounterFunc("mpdp_tail_drops_total", e.tailDrops.Load)
		quantile := func(q float64) func() float64 {
			return func() float64 { return float64(e.latency.Snapshot().Percentile(q)) }
		}
		r.GaugeFunc("mpdp_latency_p50_ns", quantile(0.50))
		r.GaugeFunc("mpdp_latency_p99_ns", quantile(0.99))
		r.GaugeFunc("mpdp_latency_p999_ns", quantile(0.999))
		if e.spans != nil {
			e.spans.register(r)
		}
		if e.cfg.SLO != nil {
			e.cfg.SLO.Register(r)
		}
		for _, lw := range e.lanes {
			lw := lw
			r.CounterFunc(fmt.Sprintf("mpdp_lane_served_total{lane=\"%d\"}", lw.id), lw.served.Load)
			r.CounterFunc(fmt.Sprintf("mpdp_lane_drops_total{lane=\"%d\"}", lw.id), lw.drops.Load)
			r.GaugeFunc(fmt.Sprintf("mpdp_lane_depth{lane=\"%d\"}", lw.id), func() float64 { return float64(lw.depth.Load()) })
		}
		e.metricsReg = r
	})
	return e.metricsReg
}
