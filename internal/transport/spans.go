package transport

import (
	"fmt"

	"mpdp/internal/live"
)

// Spans bundles the wire path's per-stage latency histograms, recorded
// into the live metrics plane (sharded lock-free live.Histogram, the same
// recorder the in-process engine uses). Stages, in pipeline order:
//
//	encode        header+payload serialization into the path scratch buffer
//	socket_write  the sendto(2) call
//	socket_read   the recvfrom(2) call (includes waiting for the frame:
//	              under load this is inter-arrival time, idle it is idle)
//	reorder       in-order release delay after arrival
//	deliver       the application's deliver callback
//	e2e           send timestamp → in-order delivery (the wire-path
//	              analogue of the paper's last-mile latency; cross-host it
//	              inherits the two clocks' offset)
//
// A nil *Spans disables recording at every site.
//
// Two further stages exist only when wire tracing is enabled (see
// EnableWireStages) and stay entirely absent otherwise, so a traced and
// an untraced run differ by exactly the stages the trace adds:
//
//	sender_queue  packet accept → the admitted copy's socket write
//	flight        send timestamp → frame arrival (cross-clock: inherits
//	              the two endpoints' offset; the merge layer corrects it)
type Spans struct {
	Encode      *live.Histogram
	SocketWrite *live.Histogram
	SocketRead  *live.Histogram
	Reorder     *live.Histogram
	Deliver     *live.Histogram
	E2E         *live.Histogram

	// SenderQueue and Flight are nil unless EnableWireStages was called;
	// every recording site nil-checks them individually.
	SenderQueue *live.Histogram
	Flight      *live.Histogram
}

// NewSpans allocates the stage histograms and, when reg is non-nil,
// registers them as the labeled family mpdp_wire_stage_latency_ns{stage=...}
// (mirroring the live engine's mpdp_stage_latency_ns family).
func NewSpans(reg *live.Registry) *Spans {
	s := &Spans{
		Encode:      live.NewHistogram(),
		SocketWrite: live.NewHistogram(),
		SocketRead:  live.NewHistogram(),
		Reorder:     live.NewHistogram(),
		Deliver:     live.NewHistogram(),
		E2E:         live.NewHistogram(),
	}
	if reg != nil {
		for _, st := range s.stages() {
			reg.RegisterHistogram(fmt.Sprintf("mpdp_wire_stage_latency_ns{stage=%q}", st.name), st.h)
		}
	}
	return s
}

// EnableWireStages allocates the wire-trace-only stages (sender_queue,
// flight) and, when reg is non-nil, registers them on the same
// mpdp_wire_stage_latency_ns family. Call before the Spans are shared
// with a Sender/Receiver; without this call the stages do not exist and
// span output is byte-identical to an untraced run.
func (s *Spans) EnableWireStages(reg *live.Registry) {
	s.SenderQueue = live.NewHistogram()
	s.Flight = live.NewHistogram()
	if reg != nil {
		reg.RegisterHistogram(`mpdp_wire_stage_latency_ns{stage="sender_queue"}`, s.SenderQueue)
		reg.RegisterHistogram(`mpdp_wire_stage_latency_ns{stage="flight"}`, s.Flight)
	}
}

type spanStage struct {
	name string
	h    *live.Histogram
}

func (s *Spans) stages() []spanStage {
	out := []spanStage{
		{"encode", s.Encode},
		{"socket_write", s.SocketWrite},
	}
	if s.SenderQueue != nil {
		out = append(out, spanStage{"sender_queue", s.SenderQueue})
	}
	out = append(out,
		spanStage{"socket_read", s.SocketRead},
	)
	if s.Flight != nil {
		out = append(out, spanStage{"flight", s.Flight})
	}
	return append(out,
		spanStage{"reorder", s.Reorder},
		spanStage{"deliver", s.Deliver},
		spanStage{"e2e", s.E2E},
	)
}

// StageSnapshot returns every stage's summary in pipeline order, in the
// same shape the live engine reports.
func (s *Spans) StageSnapshot() []live.StageSpan {
	if s == nil {
		return nil
	}
	var out []live.StageSpan
	for _, st := range s.stages() {
		out = append(out, live.StageSpan{Stage: st.name, Latency: st.h.Snapshot().Summarize()})
	}
	return out
}
