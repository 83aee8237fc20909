package invariant

import (
	"fmt"
	"strings"
	"sync"
)

// Stream is the endpoint-independent sibling of Checker: where Checker
// attaches to one core.DataPlane's observer callbacks, Stream shadows a
// logical delivery stream whose two ends live in different components. On
// the wire path the sender notes every (flow, seq) it accepts and the
// receiver notes it surfacing (transport.Verifier is this type); in the
// mesh the client notes the send and whichever node owns the flow at
// delivery time (including a new owner after a drain/handoff) notes the
// delivery. The asserted properties are the ones hedged copies and
// ownership migration must not break:
//
//   - At-most-once: each (flow, seq) surfaces at most once, no matter
//     how many wire copies were sent or how many nodes touched the flow.
//   - In-order: each flow's delivered seqs are strictly increasing even
//     across an ownership change.
//   - No invention: every delivered (flow, seq) was actually sent.
//   - Conservation (at Finish): delivered never exceeds sent, per flow
//     and in total. Losses are legal — the wire is UDP.
//
// Safe for concurrent use: the sender and every receiving end feed the
// same checker.
type Stream struct {
	mu sync.Mutex

	nextSent map[uint64]uint64 // flow -> next unsent seq
	nextDlv  map[uint64]uint64 // flow -> last delivered seq + 1

	sent      uint64
	delivered uint64

	maxViolations int
	violations    []string
	nViolations   uint64
}

// NewStream returns an empty stream checker.
func NewStream() *Stream {
	return &Stream{
		nextSent:      make(map[uint64]uint64),
		nextDlv:       make(map[uint64]uint64),
		maxViolations: 16,
	}
}

func (s *Stream) violate(format string, args ...any) {
	s.nViolations++
	if len(s.violations) < s.maxViolations {
		s.violations = append(s.violations, fmt.Sprintf(format, args...))
	}
}

// NoteSent records that (flow, seq) entered the wire. Seqs must be
// assigned contiguously per flow; hedged wire copies count once (call it
// per application packet, not per frame).
func (s *Stream) NoteSent(flow, seq uint64) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.sent++
	if next := s.nextSent[flow]; seq != next {
		s.violate("flow %x sent seq %d, want contiguous %d", flow, seq, next)
	}
	s.nextSent[flow] = seq + 1
}

// NoteDelivered records that (flow, seq) surfaced to the application (in
// the mesh: on whichever node owned the flow at that moment).
func (s *Stream) NoteDelivered(flow, seq uint64) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.delivered++
	if next, known := s.nextSent[flow]; known && seq >= next {
		s.violate("flow %x delivered seq %d which was never sent (next unsent %d)", flow, seq, next)
	}
	if next := s.nextDlv[flow]; next > 0 && seq < next {
		if seq == next-1 {
			s.violate("flow %x delivered seq %d twice (duplicate surfaced)", flow, seq)
		} else {
			s.violate("flow %x delivered seq %d after seq %d (out of order)", flow, seq, next-1)
		}
		return
	}
	s.nextDlv[flow] = seq + 1
}

// Counts returns total packets sent and delivered.
func (s *Stream) Counts() (sent, delivered uint64) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.sent, s.delivered
}

// Violations returns the recorded messages (capped) and the exact count.
func (s *Stream) Violations() ([]string, uint64) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return append([]string(nil), s.violations...), s.nViolations
}

// Finish runs the end-of-run conservation checks and returns an error
// describing every violation, or nil.
func (s *Stream) Finish() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.delivered > s.sent {
		s.violate("over-delivery: %d delivered exceeds %d sent", s.delivered, s.sent)
	}
	for flow, next := range s.nextDlv {
		if sentNext, known := s.nextSent[flow]; known && next > sentNext {
			s.violate("flow %x delivered through seq %d but only sent through %d", flow, next-1, sentNext-1)
		}
	}
	if s.nViolations == 0 {
		return nil
	}
	var b strings.Builder
	fmt.Fprintf(&b, "stream invariant: %d violation(s):", s.nViolations)
	for _, m := range s.violations {
		b.WriteString("\n  - ")
		b.WriteString(m)
	}
	if uint64(len(s.violations)) < s.nViolations {
		fmt.Fprintf(&b, "\n  … and %d more", s.nViolations-uint64(len(s.violations)))
	}
	return fmt.Errorf("%s", b.String())
}
