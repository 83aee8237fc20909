package transport

import "testing"

func TestDedupFirstCopyWins(t *testing.T) {
	d := newDedup(256)
	if !d.Admit(1, 0) {
		t.Fatal("first copy of seq 0 refused")
	}
	if d.Admit(1, 0) {
		t.Fatal("second copy of seq 0 admitted")
	}
	if d.dupDrops != 1 {
		t.Fatalf("dupDrops = %d, want 1", d.dupDrops)
	}
	// Independent flows do not interfere.
	if !d.Admit(2, 0) {
		t.Fatal("flow 2 seq 0 refused after flow 1 claimed its own seq 0")
	}
}

func TestDedupOutOfOrderWithinWindow(t *testing.T) {
	d := newDedup(256)
	for _, seq := range []uint64{5, 3, 9, 4, 0} {
		if !d.Admit(7, seq) {
			t.Fatalf("fresh seq %d refused", seq)
		}
	}
	for _, seq := range []uint64{5, 3, 9, 4, 0} {
		if d.Admit(7, seq) {
			t.Fatalf("duplicate seq %d admitted", seq)
		}
	}
	if !d.Admit(7, 6) {
		t.Fatal("unseen seq 6 refused")
	}
}

func TestDedupWindowSlide(t *testing.T) {
	d := newDedup(64)
	if !d.Admit(1, 0) {
		t.Fatal("seq 0 refused")
	}
	// Jump far ahead: window slides, old positions scrubbed.
	if !d.Admit(1, 1000) {
		t.Fatal("seq 1000 refused")
	}
	// A copy behind the window is a duplicate by policy (too old to verify).
	if d.Admit(1, 0) {
		t.Fatal("stale seq 0 admitted after window slid past it")
	}
	// In-window predecessors of the new max are fresh: ring slots were
	// scrubbed when the window slid.
	for seq := uint64(990); seq < 1000; seq++ {
		if !d.Admit(1, seq) {
			t.Fatalf("in-window seq %d refused after slide", seq)
		}
	}
	// And they dedup properly afterwards.
	if d.Admit(1, 995) {
		t.Fatal("duplicate seq 995 admitted")
	}
}

func TestDedupModerateSlideScrubs(t *testing.T) {
	d := newDedup(64)
	for seq := uint64(0); seq < 60; seq++ {
		if !d.Admit(1, seq) {
			t.Fatalf("seq %d refused", seq)
		}
	}
	// Slide by less than the window: 60..99 reuse ring slots of 0..39.
	if !d.Admit(1, 99) {
		t.Fatal("seq 99 refused")
	}
	for seq := uint64(60); seq < 99; seq++ {
		if !d.Admit(1, seq) {
			t.Fatalf("seq %d refused: stale bit not scrubbed on slide", seq)
		}
	}
}

// BenchmarkDedupAdmit drives one flow with strictly increasing sequence
// numbers: the steady-state slide of an established window, which must not
// allocate (the per-flow bitmap is paid once at flow birth).
func BenchmarkDedupAdmit(b *testing.B) {
	d := newDedup(0)
	d.Admit(7, 0) // flow birth: window bitmap allocates here
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		d.Admit(7, uint64(i)+1)
	}
}
