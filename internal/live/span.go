package live

import (
	"fmt"

	"mpdp/internal/nf"
	"mpdp/internal/stats"
)

// spanSet holds the live engine's per-stage latency histograms — the
// wall-clock analogue of internal/obs' 4-way exemplar attribution, but
// with per-NF-hop resolution and readable while the plane is running.
//
// Stages mirror a packet's path through the engine:
//
//	dispatch     ingress admission → lane enqueue (steering cost)
//	queue_wait   lane enqueue → service start (the interference signal)
//	nf<i>_<name> one chain element's wall execution time
//	service      full chain, service start → done
//	reorder_wait service done → in-order release
//	e2e          ingress → delivery (the paper's headline metric)
//
// All recorders are the sharded lock-free Histogram, so instrumentation
// adds atomic adds and clock reads but no locks to the hot path.
type spanSet struct {
	dispatch    *Histogram
	queueWait   *Histogram
	nfStages    []*Histogram
	nfNames     []string // label-ready: "nf0_fw", "nf1_nat", ...
	service     *Histogram
	reorderWait *Histogram
	e2e         *Histogram
}

// newSpanSet builds the stage histograms for a chain's element list.
// Element names repeat across chains (every lane runs a replica), so the
// set is built once from lane 0's replica and shared: stage timing
// aggregates across lanes, with shard striping absorbing the concurrency.
// The e2e stage reuses the engine's existing end-to-end histogram rather
// than allocating a second copy.
func newSpanSet(elements []nf.Element, e2e *Histogram) *spanSet {
	s := &spanSet{
		dispatch:    NewHistogram(),
		queueWait:   NewHistogram(),
		service:     NewHistogram(),
		reorderWait: NewHistogram(),
		e2e:         e2e,
	}
	for i, e := range elements {
		s.nfStages = append(s.nfStages, NewHistogram())
		s.nfNames = append(s.nfNames, fmt.Sprintf("nf%d_%s", i, e.Name()))
	}
	return s
}

// spanStage is one stage histogram under its label.
type spanStage struct {
	name string
	h    *Histogram
}

// stages lists every stage in pipeline order.
func (s *spanSet) stages() []spanStage {
	out := []spanStage{{"dispatch", s.dispatch}, {"queue_wait", s.queueWait}}
	for i, h := range s.nfStages {
		out = append(out, spanStage{s.nfNames[i], h})
	}
	return append(out, spanStage{"service", s.service}, spanStage{"reorder_wait", s.reorderWait}, spanStage{"e2e", s.e2e})
}

// register exposes every stage histogram on the registry as one labeled
// family, `mpdp_stage_latency_ns{stage="..."}`.
func (s *spanSet) register(r *Registry) {
	for _, st := range s.stages() {
		r.RegisterHistogram(fmt.Sprintf("mpdp_stage_latency_ns{stage=%q}", st.name), st.h)
	}
}

// StageSpan is one stage's snapshot for programmatic readers (Snapshot,
// mpdp-live's end-of-run report, tests).
type StageSpan struct {
	Stage   string
	Latency stats.Summary
}

// snapshot returns every stage's summary in pipeline order.
func (s *spanSet) snapshot() []StageSpan {
	var out []StageSpan
	for _, st := range s.stages() {
		out = append(out, StageSpan{Stage: st.name, Latency: st.h.Snapshot().Summarize()})
	}
	return out
}
