package core

import (
	"bytes"
	"math"
	"testing"

	"mpdp/internal/nf"
	"mpdp/internal/obs"
	"mpdp/internal/packet"
	"mpdp/internal/sim"
	"mpdp/internal/xrand"
)

// ---- FluctuationMonitor ----------------------------------------------------

func TestFluctuationMonitorFirstSampleAnchorsMean(t *testing.T) {
	f := NewFluctuationMonitor(0.2)
	f.Observe(1000)
	if f.Mean() != 1000 {
		t.Fatalf("mean after first sample %v, want 1000", f.Mean())
	}
	if f.Deviation() != 0 {
		t.Fatalf("deviation after first sample %v, want 0", f.Deviation())
	}
}

func TestFluctuationMonitorTracksDispersion(t *testing.T) {
	calm := NewFluctuationMonitor(0.2)
	jumpy := NewFluctuationMonitor(0.2)
	for i := 0; i < 100; i++ {
		calm.Observe(1000)
		if i%2 == 0 {
			jumpy.Observe(100)
		} else {
			jumpy.Observe(10_000)
		}
	}
	if calm.Deviation() != 0 {
		t.Fatalf("constant feed produced deviation %v", calm.Deviation())
	}
	if jumpy.Deviation() < 1000 {
		t.Fatalf("alternating feed produced deviation only %v", jumpy.Deviation())
	}
	// The estimate must widen with the margin.
	if jumpy.Estimate(3) <= jumpy.Estimate(0) {
		t.Fatalf("estimate did not grow with margin: %v vs %v",
			jumpy.Estimate(3), jumpy.Estimate(0))
	}
	if jumpy.Estimate(0) != jumpy.Mean() {
		t.Fatalf("zero-margin estimate %v != mean %v", jumpy.Estimate(0), jumpy.Mean())
	}
}

func TestFluctuationMonitorAbsorbsAdversarialInput(t *testing.T) {
	f := NewFluctuationMonitor(math.NaN()) // bad alpha takes the default
	f.Observe(-sim.Second)                 // negative clamps to zero
	f.Observe(sim.Duration(1) << 62)       // huge clamps finite
	for _, v := range []sim.Duration{f.Mean(), f.Deviation(), f.Estimate(64)} {
		if v < 0 || v > maxFiniteDur {
			t.Fatalf("monitor state escaped [0, maxFiniteDur]: %v", v)
		}
	}
}

// ---- DupBudget -------------------------------------------------------------

func TestDupBudgetStartsFullThenDenies(t *testing.T) {
	b := NewDupBudget(1000, 100)
	if !b.TrySpend(0, 60) {
		t.Fatal("first spend within burst denied")
	}
	if b.TrySpend(0, 60) {
		t.Fatal("spend past the burst granted")
	}
	if b.SpentBytes() != 60 || b.Grants() != 1 || b.Denied() != 1 {
		t.Fatalf("accounting spent=%d grants=%d denied=%d", b.SpentBytes(), b.Grants(), b.Denied())
	}
	if b.Tokens() < 0 {
		t.Fatalf("tokens went negative: %v", b.Tokens())
	}
}

func TestDupBudgetRefillsWithVirtualTime(t *testing.T) {
	b := NewDupBudget(1000, 100) // 1000 B/s
	if !b.TrySpend(0, 100) {
		t.Fatal("burst spend denied")
	}
	if b.TrySpend(sim.Time(10*sim.Millisecond), 50) {
		t.Fatal("10ms refilled only 10 bytes; 50-byte spend should deny")
	}
	if !b.TrySpend(sim.Time(sim.Second), 100) {
		t.Fatal("a full second should refill to burst")
	}
	// Refill never exceeds burst, and backwards time refills nothing.
	if b.TrySpend(sim.Time(sim.Second)/2, 1) {
		t.Fatal("time moving backwards minted tokens")
	}
}

func TestDupBudgetZeroDeniesEverything(t *testing.T) {
	b := NewDupBudget(0, 0)
	for i := 0; i < 10; i++ {
		if b.TrySpend(sim.Time(i)*sim.Second, 0) {
			t.Fatal("zero-capacity bucket granted a spend")
		}
	}
	if b.Denied() != 10 || b.SpentBytes() != 0 {
		t.Fatalf("denied=%d spent=%d", b.Denied(), b.SpentBytes())
	}
}

func TestDupBudgetSanitizesInputs(t *testing.T) {
	if b := NewDupBudget(math.NaN(), -5); b.Rate() != 0 || b.Burst() != 0 {
		t.Fatalf("NaN/negative not sanitized: rate=%v burst=%v", b.Rate(), b.Burst())
	}
	if b := NewDupBudget(math.Inf(1), math.Inf(1)); b.Rate() > 1<<50 || b.Burst() > 1<<50 {
		t.Fatalf("infinite inputs not capped: rate=%v burst=%v", b.Rate(), b.Burst())
	}
	// Zero burst with a positive rate takes the 10ms default so the bucket
	// can actually hold tokens.
	if b := NewDupBudget(1000, 0); b.Burst() != 10 {
		t.Fatalf("default burst %v, want 10", b.Burst())
	}
	if b := NewDupBudget(50, 0); b.Burst() != 1 {
		t.Fatalf("default burst floor %v, want 1", b.Burst())
	}
}

func TestDupBudgetSpendNeverExceedsAllowance(t *testing.T) {
	rng := xrand.New(11)
	b := NewDupBudget(4096, 512)
	now := sim.Time(0)
	for i := 0; i < 5000; i++ {
		now += sim.Duration(rng.Intn(int(sim.Millisecond)))
		b.TrySpend(now, rng.Intn(2000))
		if float64(b.SpentBytes()) > b.Allowance(sim.Duration(now))+1e-6 {
			t.Fatalf("spent %d exceeds allowance %v after %v",
				b.SpentBytes(), b.Allowance(sim.Duration(now)), now)
		}
		if b.Tokens() < 0 {
			t.Fatalf("tokens negative: %v", b.Tokens())
		}
	}
}

// ---- DeadlineAware ---------------------------------------------------------

// trainedCalmPaths returns n paths taught a steady ~1.2µs latency.
func trainedCalmPaths(t *testing.T, n int) []*PathState {
	t.Helper()
	_, paths := testPaths(t, n, 1000)
	for _, ps := range paths {
		for j := 0; j < 50; j++ {
			ps.observe(0, 1000, 1200)
		}
	}
	return paths
}

// trainJittery teaches a path a 1µs service time with wildly alternating
// latency, so its fluctuation estimate far exceeds its score.
func trainJittery(ps *PathState) {
	for j := 0; j < 50; j++ {
		lat := sim.Duration(100)
		if j%2 == 0 {
			lat = 10_000
		}
		ps.observe(0, 1000, lat)
	}
}

func TestDeadlineAwareSafeStaysSingle(t *testing.T) {
	paths := trainedCalmPaths(t, 4)
	d := NewDeadlineAware(DeadlineAwareConfig{
		Deadline: sim.Millisecond, Margin: 3, Budget: NewDupBudget(1<<20, 64<<10),
	})
	for i := uint64(0); i < 50; i++ {
		if got := d.Pick(0, flowPkt(i), paths); len(got) != 1 {
			t.Fatalf("safe deadline escalated: %v", got)
		}
	}
	st := d.Stats()
	if st.Safe != 50 || st.Duplicated != 0 {
		t.Fatalf("stats %+v, want 50 safe and no dups", st)
	}
	if d.Budget().SpentBytes() != 0 {
		t.Fatal("safe picks spent budget")
	}
}

func TestDeadlineAwareEscalatesWhenAtRisk(t *testing.T) {
	// Path 0 is jittery (pessimistic estimate » score), path 1 calm: the
	// 2µs deadline is at risk on 0's fluctuation estimate but comfortably
	// fits path 1's optimistic one — the textbook escalation case.
	paths := trainedCalmPaths(t, 2)
	trainJittery(paths[0])
	d := NewDeadlineAware(DeadlineAwareConfig{
		Deadline: 2 * sim.Microsecond, Margin: 3, Budget: NewDupBudget(1<<20, 64<<10),
	})
	p := flowPkt(1)
	got := d.Pick(0, p, paths)
	if len(got) != 2 || got[0] == got[1] {
		t.Fatalf("at-risk pick %v, want two distinct paths", got)
	}
	st := d.Stats()
	if st.AtRisk != 1 || st.Duplicated != 1 {
		t.Fatalf("stats %+v", st)
	}
	if spent := d.Budget().SpentBytes(); spent != uint64(p.Size()) {
		t.Fatalf("budget spent %d, want the packet size %d", spent, p.Size())
	}
}

func TestDeadlineAwareLateGetsSinglePath(t *testing.T) {
	paths := trainedCalmPaths(t, 2)
	d := NewDeadlineAware(DeadlineAwareConfig{Deadline: 100, Budget: NewDupBudget(1<<20, 64<<10)})
	p := flowPkt(1)
	p.Deadline = 5 // already blown at now=10
	if got := d.Pick(10, p, paths); len(got) != 1 {
		t.Fatalf("late packet duplicated: %v", got)
	}
	if st := d.Stats(); st.Late != 1 || st.Duplicated != 0 {
		t.Fatalf("stats %+v", st)
	}
	if d.Budget().SpentBytes() != 0 {
		t.Fatal("late packet spent budget")
	}
}

func TestDeadlineAwareDeniesUselessCopy(t *testing.T) {
	// The duplicate target is queued so deep that even its optimistic
	// estimate blows the deadline: the copy could never arrive in time, so
	// the policy must keep the bytes instead of wasting budget.
	paths := trainedCalmPaths(t, 2)
	trainJittery(paths[0])
	for i := 0; i < 5; i++ {
		paths[1].Lane.Enqueue(flowPkt(uint64(900 + i)))
	}
	d := NewDeadlineAware(DeadlineAwareConfig{
		Deadline: 2 * sim.Microsecond, Margin: 3, Budget: NewDupBudget(1<<20, 64<<10),
	})
	if got := d.Pick(0, flowPkt(1), paths); len(got) != 1 {
		t.Fatalf("bought a copy that cannot make the deadline: %v", got)
	}
	if st := d.Stats(); st.Denied != 1 {
		t.Fatalf("stats %+v, want 1 denied", st)
	}
	if d.Budget().SpentBytes() != 0 {
		t.Fatal("useless copy spent budget")
	}
}

func TestDeadlineAwareNoDeadlineNoEscalation(t *testing.T) {
	paths := trainedCalmPaths(t, 2)
	d := NewDeadlineAware(DeadlineAwareConfig{Deadline: 0, Budget: NewDupBudget(1<<20, 64<<10)})
	for i := uint64(0); i < 20; i++ {
		if got := d.Pick(0, flowPkt(i), paths); len(got) != 1 {
			t.Fatalf("deadline-free packet duplicated: %v", got)
		}
	}
	if st := d.Stats(); st.Duplicated != 0 || st.AtRisk != 0 {
		t.Fatalf("stats %+v", st)
	}
}

// TestDeadlineAwareZeroBudgetMatchesNoDup is the pick-level core of the P3
// degradation property: a zero-capacity budget and no budget at all must make
// byte-for-byte identical path choices (the engine then produces identical
// runs — the stream-level check lives in the experiment package).
func TestDeadlineAwareZeroBudgetMatchesNoDup(t *testing.T) {
	mk := func(budget *DupBudget) (*DeadlineAware, []*PathState) {
		paths := trainedCalmPaths(t, 4)
		// Skew the paths identically in both worlds.
		for i := 0; i < 3; i++ {
			paths[2].Lane.Enqueue(flowPkt(uint64(800 + i)))
		}
		return NewDeadlineAware(DeadlineAwareConfig{Deadline: 100, Budget: budget}), paths
	}
	dZero, pZero := mk(NewDupBudget(0, 0))
	dNil, pNil := mk(nil)
	for i := uint64(0); i < 200; i++ {
		a := dZero.Pick(sim.Time(i)*100, flowPkt(i), pZero)
		b := dNil.Pick(sim.Time(i)*100, flowPkt(i), pNil)
		if len(a) != 1 || len(b) != 1 || a[0] != b[0] {
			t.Fatalf("pick %d diverged: budget-zero %v vs no-budget %v", i, a, b)
		}
	}
}

// ---- engine integration: deadline stamping + DupBytes accounting -----------

// TestDupBytesAccounting: a policy that duplicates every packet must bill
// exactly one extra copy's bytes per offered packet, and a single-path policy
// must bill none — the fix for hedge/redundant previously not accounting
// duplicated bytes at all.
func TestDupBytesAccounting(t *testing.T) {
	run := func(policy Policy) Metrics {
		s := sim.New()
		dp := New(s, Config{
			NumPaths:     2,
			ChainFactory: func(i int) *nf.Chain { return passChain(1 * sim.Microsecond) },
			Policy:       policy,
			QueueCap:     256,
			Seed:         3,
		}, func(p *packet.Packet) {})
		obsInject(dp, 300, 2*sim.Microsecond)
		return *dp.Metrics()
	}
	m := run(&Redundant{K: 2})
	if m.DupBytes() == 0 {
		t.Fatal("redundant duplication billed no bytes")
	}
	if m.DupBytes() != m.OfferedBytes() {
		t.Fatalf("dup bytes %d != offered bytes %d (one extra copy per packet)",
			m.DupBytes(), m.OfferedBytes())
	}
	if s := run(&SinglePath{}); s.DupBytes() != 0 {
		t.Fatalf("single-path run billed %d dup bytes", s.DupBytes())
	}
}

// TestDeadlineTraceStreamByteIdentical extends the determinism acceptance
// check to the deadline policy: two runs of the same seed, with DeadlineAware
// actively duplicating out of its budget, must record byte-identical
// flight-recorder streams.
func TestDeadlineTraceStreamByteIdentical(t *testing.T) {
	run := func() ([]byte, DeadlineAwareStats) {
		s := sim.New()
		rec := obs.NewRecorder(1 << 18)
		cfg := obsRunConfig(rec)
		da := NewDeadlineAware(DeadlineAwareConfig{
			Deadline: 5 * sim.Microsecond, // tight: forces at-risk escalations
			Margin:   3,
			Budget:   NewDupBudget(1<<20, 8<<10),
		})
		cfg.Policy = da
		cfg.Deadline = 5 * sim.Microsecond
		dp := New(s, cfg, func(p *packet.Packet) {})
		obsInject(dp, 600, 300*sim.Nanosecond)
		if rec.Overwritten() != 0 {
			t.Fatalf("ring overwrote %d events; raise capacity", rec.Overwritten())
		}
		var buf bytes.Buffer
		if _, err := rec.WriteTo(&buf); err != nil {
			t.Fatalf("WriteTo: %v", err)
		}
		return buf.Bytes(), da.Stats()
	}
	a, stA := run()
	b, stB := run()
	if !bytes.Equal(a, b) {
		t.Fatal("same-seed deadline runs recorded different event streams")
	}
	if stA != stB {
		t.Fatalf("same-seed decision counters diverged: %+v vs %+v", stA, stB)
	}
	// The run must actually exercise the escalation path, or this test
	// proves nothing about the new code.
	if stA.AtRisk == 0 || stA.Duplicated == 0 {
		t.Fatalf("deterministic run never escalated (stats %+v); tighten the deadline", stA)
	}
}

// ---- fuzz: adversarial telemetry and budget accounting ---------------------

// FuzzDeadlinePolicy feeds the fluctuation monitor and budget accounting
// adversarial RTT/loss telemetry — including lying telemetry via the tamper
// hook — and asserts the safety invariants: no panic, the budget never goes
// negative or past its allowance, and every risk estimate stays finite.
func FuzzDeadlinePolicy(f *testing.F) {
	f.Add(uint64(1), int64(2000), 3.0, 1e6, 64e3)
	f.Add(uint64(7), int64(-5), math.NaN(), math.Inf(1), -1.0)
	f.Add(uint64(42), int64(1)<<62, 1e308, 0.0, 0.0)
	f.Add(uint64(9), int64(100), -2.5, 50.0, 0.5)
	f.Fuzz(func(t *testing.T, seed uint64, deadlineNs int64, margin, rate, burst float64) {
		rng := xrand.New(seed | 1)
		_, paths := testPaths(t, 1+int(seed%4), 1000)
		d := NewDeadlineAware(DeadlineAwareConfig{
			Deadline: sim.Duration(deadlineNs),
			Margin:   margin,
			Budget:   NewDupBudget(rate, burst),
		})
		// Lying telemetry: every path's feed is rewritten — huge values,
		// negatives, or suppressed samples.
		for _, ps := range paths {
			r := rng.Split()
			ps.SetTelemetryTamper(func(now sim.Time, svc, lat sim.Duration) (sim.Duration, sim.Duration, bool) {
				switch r.Intn(5) {
				case 0:
					return svc, lat, true // honest
				case 1:
					return maxFiniteDur * 2, maxFiniteDur * 2, true // absurdly slow
				case 2:
					return -lat, -svc, true // negative
				case 3:
					return 0, 0, false // suppressed
				default:
					return sim.Duration(r.Uint64()), sim.Duration(r.Uint64()), true // garbage
				}
			})
		}
		now := sim.Time(0)
		for i := 0; i < 300; i++ {
			ps := paths[rng.Intn(len(paths))]
			ps.observe(now, sim.Duration(rng.Int63n(int64(sim.Millisecond))),
				sim.Duration(rng.Int63n(int64(sim.Millisecond))))
			now += sim.Duration(rng.Intn(int(sim.Microsecond)))

			p := flowPkt(uint64(i))
			if rng.Bool(0.3) {
				p.Deadline = sim.Time(rng.Uint64()) // arbitrary, possibly negative
			}
			picks := d.Pick(now, p, paths)
			if len(picks) < 1 || len(picks) > 2 {
				t.Fatalf("pick returned %d paths", len(picks))
			}
			for _, idx := range picks {
				if idx < 0 || idx >= len(paths) {
					t.Fatalf("pick out of range: %v", picks)
				}
			}
			if len(picks) == 2 && picks[0] == picks[1] {
				t.Fatalf("duplicated to the same path: %v", picks)
			}
			for _, ps := range paths {
				if est := d.estimate(ps); est < 0 || est > maxFiniteDur {
					t.Fatalf("estimate escaped finite range: %v", est)
				}
			}
			b := d.Budget()
			if tok := b.Tokens(); tok < 0 || tok != tok {
				t.Fatalf("budget tokens invalid: %v", tok)
			}
			if float64(b.SpentBytes()) > b.Allowance(sim.Duration(now))+1e-6 {
				t.Fatalf("spent %d past allowance %v", b.SpentBytes(), b.Allowance(sim.Duration(now)))
			}
		}
	})
}
