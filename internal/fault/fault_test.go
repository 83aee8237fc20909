package fault

import (
	"encoding/json"
	"reflect"
	"testing"

	"mpdp/internal/core"
	"mpdp/internal/nf"
	"mpdp/internal/packet"
	"mpdp/internal/sim"
	"mpdp/internal/vnet"
)

func validPlan() *Plan {
	return &Plan{
		Seed: 9,
		Lanes: []LaneFailure{
			{Path: 0, At: 2 * sim.Millisecond, Mode: ModeBlackhole, RepairAfter: 1 * sim.Millisecond},
		},
		Flaps: []Flap{
			{Path: 1, Start: 1 * sim.Millisecond, Down: 100 * sim.Microsecond, Up: 400 * sim.Microsecond, Count: 3, Mode: ModeFailStop},
		},
		NFErrors: []NFError{
			{Path: 2, Start: 0, Stop: 5 * sim.Millisecond, DropFrac: 0.5, CorruptFrac: 0.1},
		},
		Telemetry: []TelemetryFault{
			{Path: 3, Start: 0, Mode: TelemetryStale},
		},
	}
}

func TestPlanValidate(t *testing.T) {
	if err := validPlan().Validate(4); err != nil {
		t.Fatalf("valid plan rejected: %v", err)
	}
	var nilPlan *Plan
	if err := nilPlan.Validate(4); err != nil {
		t.Fatalf("nil plan rejected: %v", err)
	}
	if !nilPlan.Empty() || !(&Plan{}).Empty() {
		t.Fatal("empty plans not recognized")
	}
	if validPlan().Empty() {
		t.Fatal("non-empty plan reported empty")
	}

	bad := []*Plan{
		{Lanes: []LaneFailure{{Path: 4, Mode: ModeFailStop}}},             // path out of range
		{Lanes: []LaneFailure{{Path: 0, Mode: "explode"}}},                // unknown mode
		{Flaps: []Flap{{Path: 0, Mode: ModeFailStop, Count: 0, Down: 1}}}, // no cycles
		{Flaps: []Flap{{Path: 0, Mode: ModeFailStop, Count: 1, Down: 0}}}, // zero downtime
		{NFErrors: []NFError{{Path: -2}}},                                 // -1 is "all", -2 is junk
		{NFErrors: []NFError{{Path: 0, DropFrac: 1.5}}},                   // fraction out of range
		{Telemetry: []TelemetryFault{{Path: 0, Mode: "gaslight"}}},        // unknown telemetry mode
	}
	for i, pl := range bad {
		if err := pl.Validate(4); err == nil {
			t.Errorf("bad plan %d accepted", i)
		}
	}
	// NFError path -1 means "every lane" and must validate.
	all := &Plan{NFErrors: []NFError{{Path: -1, DropFrac: 0.1}}}
	if err := all.Validate(4); err != nil {
		t.Fatalf("path -1 rejected: %v", err)
	}
}

func TestPlanJSONRoundTrip(t *testing.T) {
	pl := validPlan()
	data, err := json.Marshal(pl)
	if err != nil {
		t.Fatal(err)
	}
	back, err := ParsePlan(data)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(pl, back) {
		t.Fatalf("round trip changed the plan:\n  in:  %+v\n  out: %+v", pl, back)
	}
	if _, err := ParsePlan([]byte("{nope")); err == nil {
		t.Fatal("garbage accepted")
	}
}

func TestElementForSelectsLanes(t *testing.T) {
	pl := &Plan{
		Seed: 3,
		NFErrors: []NFError{
			{Path: 1, DropFrac: 0.5},
			{Path: -1, CorruptFrac: 0.25},
		},
	}
	if el := pl.ElementFor(0); el == nil {
		t.Fatal("path -1 window should cover lane 0")
	}
	if el := pl.ElementFor(1); el == nil || len(el.windows) != 2 {
		t.Fatal("lane 1 should get its own window plus the catch-all")
	}
	only := &Plan{NFErrors: []NFError{{Path: 1, DropFrac: 0.5}}}
	if el := only.ElementFor(0); el != nil {
		t.Fatal("lane 0 has no scheduled error but got an element")
	}
	var nilPlan *Plan
	if el := nilPlan.ElementFor(0); el != nil {
		t.Fatal("nil plan produced an element")
	}
}

func mkPkt() *packet.Packet {
	return &packet.Packet{Data: []byte{1, 2, 3, 4}}
}

func TestFaultyElementWindows(t *testing.T) {
	pl := &Plan{
		Seed:     5,
		NFErrors: []NFError{{Path: 0, Start: 1 * sim.Millisecond, Stop: 2 * sim.Millisecond, DropFrac: 1}},
	}
	el := pl.ElementFor(0)

	// Before the window and after it: a zero-cost pass.
	for _, at := range []sim.Time{0, sim.Time(2 * sim.Millisecond), sim.Time(3 * sim.Millisecond)} {
		if res := el.Process(at, mkPkt()); res.Verdict != packet.Pass || res.Cost != 0 {
			t.Fatalf("element active outside its window at t=%d: %+v", at, res)
		}
	}
	// Inside: DropFrac 1 drops everything.
	p := mkPkt()
	if res := el.Process(sim.Time(1500*sim.Microsecond), p); res.Verdict != packet.Drop {
		t.Fatalf("DropFrac=1 passed a packet: %+v", res)
	}
	if p.Dropped != packet.DropPolicy {
		t.Fatalf("drop reason %v, want DropPolicy (indistinguishable from an ACL deny)", p.Dropped)
	}
	if el.Dropped() != 1 {
		t.Fatalf("Dropped() = %d", el.Dropped())
	}
}

func TestFaultyElementCorruptsAndIsDeterministic(t *testing.T) {
	pl := &Plan{
		Seed:     11,
		NFErrors: []NFError{{Path: 0, DropFrac: 0.3, CorruptFrac: 0.3}},
	}
	run := func() (verdicts []packet.Verdict, tail []byte) {
		el := pl.ElementFor(0)
		for i := 0; i < 200; i++ {
			p := mkPkt()
			res := el.Process(sim.Time(i)*sim.Time(sim.Microsecond), p)
			verdicts = append(verdicts, res.Verdict)
			tail = append(tail, p.Data[len(p.Data)-1])
		}
		return
	}
	v1, t1 := run()
	v2, t2 := run()
	if !reflect.DeepEqual(v1, v2) || !reflect.DeepEqual(t1, t2) {
		t.Fatal("same plan seed produced different fault sequences")
	}
	var drops, corrupts int
	for i := range v1 {
		if v1[i] == packet.Drop {
			drops++
		} else if t1[i] != 4 {
			corrupts++ // last payload byte garbled
		}
	}
	if drops < 30 || drops > 90 {
		t.Fatalf("%d/200 drops for DropFrac 0.3", drops)
	}
	if corrupts < 30 || corrupts > 90 {
		t.Fatalf("%d/200 corruptions for CorruptFrac 0.3", corrupts)
	}
	// Different lanes must not share a die.
	elA := pl.ElementFor(0)
	other := &Plan{Seed: 11, NFErrors: []NFError{{Path: -1, DropFrac: 0.3, CorruptFrac: 0.3}}}
	lane1 := other.ElementFor(1)
	same := true
	for i := 0; i < 50; i++ {
		a := elA.Process(0, mkPkt()).Verdict
		b := lane1.Process(0, mkPkt()).Verdict
		if a != b {
			same = false
		}
	}
	if same {
		t.Fatal("lane 0 and lane 1 rolled identical dice")
	}
}

func testDP(t *testing.T) (*sim.Simulator, *core.DataPlane) {
	t.Helper()
	s := sim.New()
	dp := core.New(s, core.Config{
		NumPaths: 4,
		ChainFactory: func(i int) *nf.Chain {
			return nf.NewChain("pass", nf.Func{
				ElemName: "pass",
				Fn: func(now sim.Time, p *packet.Packet) nf.Result {
					return nf.Result{Verdict: packet.Pass, Cost: 1 * sim.Microsecond}
				},
			})
		},
		Policy:   &core.JSQ{},
		QueueCap: 64,
		Seed:     7,
	}, func(p *packet.Packet) {})
	return s, dp
}

func TestInstallSchedulesFailureAndRepair(t *testing.T) {
	s, dp := testDP(t)
	pl := &Plan{Lanes: []LaneFailure{{
		Path: 2, At: 1 * sim.Millisecond, Mode: ModeFailStop, RepairAfter: 1 * sim.Millisecond,
	}}}
	if err := pl.Install(dp); err != nil {
		t.Fatal(err)
	}
	var during, after vnet.FailMode
	s.At(sim.Time(1500*sim.Microsecond), func() { during = dp.Paths()[2].Lane.FailState() })
	s.At(sim.Time(2500*sim.Microsecond), func() { after = dp.Paths()[2].Lane.FailState() })
	s.Run()
	if during != vnet.LaneFailStop {
		t.Fatalf("lane state %v during scheduled failure, want fail-stop", during)
	}
	if after != vnet.LaneHealthy {
		t.Fatalf("lane state %v after scheduled repair, want healthy", after)
	}
}

func TestInstallFlapCycles(t *testing.T) {
	s, dp := testDP(t)
	pl := &Plan{Flaps: []Flap{{
		Path: 1, Start: 1 * sim.Millisecond,
		Down: 200 * sim.Microsecond, Up: 300 * sim.Microsecond,
		Count: 3, Mode: ModeFailStop,
	}}}
	if err := pl.Install(dp); err != nil {
		t.Fatal(err)
	}
	// Sample mid-down and mid-up of each of the three cycles.
	downs := make([]vnet.FailMode, 3)
	ups := make([]vnet.FailMode, 3)
	for k := 0; k < 3; k++ {
		k := k
		cycle := sim.Time(1*sim.Millisecond) + sim.Time(k)*sim.Time(500*sim.Microsecond)
		s.At(cycle+sim.Time(100*sim.Microsecond), func() { downs[k] = dp.Paths()[1].Lane.FailState() })
		s.At(cycle+sim.Time(350*sim.Microsecond), func() { ups[k] = dp.Paths()[1].Lane.FailState() })
	}
	s.Run()
	for k := 0; k < 3; k++ {
		if downs[k] != vnet.LaneFailStop {
			t.Fatalf("cycle %d: lane up mid-downtime (%v)", k, downs[k])
		}
		if ups[k] != vnet.LaneHealthy {
			t.Fatalf("cycle %d: lane down mid-uptime (%v)", k, ups[k])
		}
	}
}

func TestInstallRejectsInvalidPlan(t *testing.T) {
	_, dp := testDP(t)
	pl := &Plan{Lanes: []LaneFailure{{Path: 9, Mode: ModeFailStop}}}
	if err := pl.Install(dp); err == nil {
		t.Fatal("out-of-range path installed")
	}
	var nilPlan *Plan
	if err := nilPlan.Install(dp); err != nil {
		t.Fatalf("nil plan should install as a no-op: %v", err)
	}
}
