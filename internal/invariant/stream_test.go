package invariant

import (
	"strings"
	"testing"
)

func TestStreamCleanRun(t *testing.T) {
	s := NewStream()
	for flow := uint64(0); flow < 3; flow++ {
		for seq := uint64(0); seq < 100; seq++ {
			s.NoteSent(flow, seq)
		}
	}
	// Deliver with losses (legal) but in order, once each.
	for flow := uint64(0); flow < 3; flow++ {
		for seq := uint64(0); seq < 100; seq += 2 {
			s.NoteDelivered(flow, seq)
		}
	}
	if err := s.Finish(); err != nil {
		t.Fatalf("clean run reported: %v", err)
	}
	sent, delivered := s.Counts()
	if sent != 300 || delivered != 150 {
		t.Fatalf("counts %d/%d, want 300/150", sent, delivered)
	}
}

// TestStreamDetects drives the checker through each fault it exists to
// catch. Every row sends flow 1's seqs in the order given, delivers in the
// order given, then runs Finish; want lists a fragment of every violation
// expected, in order, so the exact count is checked too.
func TestStreamDetects(t *testing.T) {
	const flow = 1
	for _, tc := range []struct {
		name            string
		sent, delivered []uint64
		want            []string
	}{
		{name: "duplicate", sent: []uint64{0, 1}, delivered: []uint64{0, 0},
			want: []string{"seq 0 twice"}},
		{name: "out of order", sent: []uint64{0, 1, 2, 3, 4}, delivered: []uint64{3, 1},
			want: []string{"seq 1 after seq 3 (out of order)"}},
		{name: "invention", sent: []uint64{0}, delivered: []uint64{7},
			want: []string{"seq 7 which was never sent", "delivered through seq 7 but only sent through 0"}},
		{name: "send gap", sent: []uint64{0, 2},
			want: []string{"sent seq 2, want contiguous 1"}},
		// Delivery for an unknown flow: Finish must flag conservation even
		// though the per-event checks could not.
		{name: "over-delivery of an unknown flow", delivered: []uint64{0, 1},
			want: []string{"over-delivery: 2 delivered exceeds 0 sent"}},
		// Three faults in one stream, plus the two aggregate checks they
		// trip at Finish (total and per-flow delivered-beyond-sent).
		{name: "duplicate + disorder + invention", sent: []uint64{0, 1, 2, 3}, delivered: []uint64{0, 1, 1, 3, 2, 9},
			want: []string{"seq 1 twice", "seq 2 after seq 3", "seq 9 which was never sent",
				"over-delivery: 6 delivered exceeds 4 sent", "delivered through seq 9 but only sent through 3"}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			s := NewStream()
			for _, seq := range tc.sent {
				s.NoteSent(flow, seq)
			}
			for _, seq := range tc.delivered {
				s.NoteDelivered(flow, seq)
			}
			err := s.Finish()
			if err == nil {
				t.Fatal("Finish accepted the faulty stream")
			}
			msgs, n := s.Violations()
			if n != uint64(len(tc.want)) || len(msgs) != len(tc.want) {
				t.Fatalf("violations %q (n=%d), want %d", msgs, n, len(tc.want))
			}
			for i, frag := range tc.want {
				if !strings.Contains(msgs[i], frag) {
					t.Errorf("violation %d = %q, want it to contain %q", i, msgs[i], frag)
				}
				if !strings.Contains(err.Error(), frag) {
					t.Errorf("Finish error %q omits %q", err, frag)
				}
			}
		})
	}
}

func TestStreamViolationCapKeepsExactCount(t *testing.T) {
	s := NewStream()
	s.NoteSent(1, 0)
	s.NoteDelivered(1, 0)
	for i := 0; i < 40; i++ {
		s.NoteDelivered(1, 0) // 40 duplicates
	}
	msgs, n := s.Violations()
	if n != 40 {
		t.Fatalf("exact count %d, want 40", n)
	}
	if len(msgs) != 16 {
		t.Fatalf("recorded messages %d, want capped 16", len(msgs))
	}
	// Finish adds the over-delivery conservation violation (41 delivered
	// against 1 sent), so the truncated tail reads 41-16 = 25.
	if err := s.Finish(); err == nil || !strings.Contains(err.Error(), "and 25 more") {
		t.Fatalf("Finish error %v does not surface the truncated tail", err)
	}
}

func TestStreamConcurrentUse(t *testing.T) {
	s := NewStream()
	done := make(chan struct{})
	go func() {
		defer close(done)
		for seq := uint64(0); seq < 10_000; seq++ {
			s.NoteSent(2, seq)
			s.NoteDelivered(2, seq)
		}
	}()
	for seq := uint64(0); seq < 10_000; seq++ {
		s.NoteSent(1, seq)
		s.NoteDelivered(1, seq)
	}
	<-done
	if err := s.Finish(); err != nil {
		t.Fatalf("concurrent clean run reported: %v", err)
	}
}
