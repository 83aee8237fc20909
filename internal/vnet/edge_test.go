package vnet

import (
	"strings"
	"testing"

	"mpdp/internal/nf"
	"mpdp/internal/sim"
	"mpdp/internal/xrand"
)

func TestLaneAccessors(t *testing.T) {
	s := sim.New()
	chain := nf.PresetChain(1)
	l := NewLane(7, s, DefaultLaneConfig(chain), xrand.New(1), nil)
	if l.ID() != 7 {
		t.Fatalf("ID() = %d", l.ID())
	}
	if l.Chain() != chain {
		t.Fatal("Chain() accessor broken")
	}
	if !strings.Contains(l.String(), "lane7") {
		t.Fatalf("String() = %q", l.String())
	}
	if l.Utilization() != 0 {
		t.Fatal("fresh lane utilization nonzero")
	}
}

func TestDefaultLaneConfig(t *testing.T) {
	cfg := DefaultLaneConfig(nf.PresetChain(1))
	if cfg.QueueCap != 512 || cfg.JitterSigma != 0.15 || cfg.DispatchOverhead != 150 {
		t.Fatalf("defaults drifted: %+v", cfg)
	}
}

func TestDefaultInterferenceConfig(t *testing.T) {
	cfg := DefaultInterferenceConfig()
	if cfg.SlowFactor != 4 || cfg.MeanOn != 200*sim.Microsecond {
		t.Fatalf("defaults drifted: %+v", cfg)
	}
	// Duty cycle 10%.
	duty := float64(cfg.MeanOn) / float64(cfg.MeanOn+cfg.MeanOff)
	if duty < 0.09 || duty > 0.11 {
		t.Fatalf("duty cycle %v", duty)
	}
}

func TestInterferenceStopFreezes(t *testing.T) {
	s := sim.New()
	i := NewInterference(s, xrand.New(2), DefaultInterferenceConfig())
	s.RunUntil(5 * sim.Millisecond)
	episodes := i.Episodes()
	i.Stop()
	s.RunUntil(100 * sim.Millisecond)
	if i.Episodes() != episodes {
		t.Fatalf("episodes advanced after Stop: %d -> %d", episodes, i.Episodes())
	}
	var nilI *Interference
	nilI.Stop() // nil-safe
}

func TestScriptedSlowdownWindows(t *testing.T) {
	sd := &ScriptedSlowdown{Windows: []SlowWindow{
		{Start: 100, End: 200, Factor: 4},
		{Start: 300, End: 400, Factor: 8},
		{Start: 500, End: 600, Factor: 0.5}, // invalid factor: ignored
	}}
	cases := []struct {
		now  sim.Time
		want float64
	}{
		{50, 1}, {100, 4}, {199, 4}, {200, 1}, {350, 8}, {550, 1}, {700, 1},
	}
	for _, c := range cases {
		if got := sd.Factor(c.now); got != c.want {
			t.Errorf("Factor(%d) = %v, want %v", c.now, got, c.want)
		}
	}
}

func TestStrictPriorityScanAndAccessors(t *testing.T) {
	sp := NewStrictPriority(30)
	for i := uint64(1); i <= 3; i++ {
		sp.Enqueue(classedPkt(t, i, nf.ClassBulk))
	}
	sp.Enqueue(classedPkt(t, 9, nf.ClassLatencySensitive))
	if sp.Len() != 4 {
		t.Fatalf("Len() = %d", sp.Len())
	}
	if sp.Bytes() <= 0 {
		t.Fatal("Bytes() zero")
	}
	// Scan order visits priority bands first, each head to tail.
	if seen := scanIDs(sp); len(seen) != 4 || seen[0] != 9 || seen[1] != 1 || seen[3] != 3 {
		t.Fatalf("scan order: %v", seen)
	}
}

func TestDRRScanAndDegenerateQuanta(t *testing.T) {
	d := NewDRR(30, [3]int{1, 1, 1}) // quanta far below frame size
	d.Enqueue(classedPkt(t, 1, nf.ClassLatencySensitive))
	d.Enqueue(classedPkt(t, 2, nf.ClassBulk))
	if seen := scanIDs(d); len(seen) != 2 || seen[0] != 1 || seen[1] != 2 {
		t.Fatalf("scan order: %v", seen)
	}
	// Degenerate quanta must still make progress (fallback path) —
	// deficit accumulation would need hundreds of rounds otherwise.
	got := 0
	for d.Dequeue() != nil {
		got++
	}
	if got != 2 {
		t.Fatalf("degenerate quanta drained %d of 2", got)
	}
}

func TestFIFOPanicsOnBadCapacity(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("zero capacity accepted")
		}
	}()
	NewFIFO(0)
}
