package sim

import (
	"testing"
	"testing/quick"
)

func TestScheduleOrder(t *testing.T) {
	s := New()
	var order []int
	s.Schedule(30, func() { order = append(order, 3) })
	s.Schedule(10, func() { order = append(order, 1) })
	s.Schedule(20, func() { order = append(order, 2) })
	s.Run()
	if len(order) != 3 || order[0] != 1 || order[1] != 2 || order[2] != 3 {
		t.Fatalf("events fired out of order: %v", order)
	}
	if s.Now() != 30 {
		t.Fatalf("final clock = %v, want 30", s.Now())
	}
}

func TestSimultaneousEventsFIFO(t *testing.T) {
	s := New()
	var order []int
	for i := 0; i < 10; i++ {
		i := i
		s.Schedule(5, func() { order = append(order, i) })
	}
	s.Run()
	for i, v := range order {
		if v != i {
			t.Fatalf("simultaneous events not FIFO: %v", order)
		}
	}
}

func TestClockAdvancesMonotonically(t *testing.T) {
	s := New()
	var last Time = -1
	for i := 0; i < 100; i++ {
		d := Duration(i * 7 % 50)
		s.Schedule(d, func() {
			if s.Now() < last {
				t.Fatalf("clock went backwards: %v < %v", s.Now(), last)
			}
			last = s.Now()
		})
	}
	s.Run()
}

func TestNegativeDelayPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("negative delay did not panic")
		}
	}()
	New().Schedule(-1, func() {})
}

func TestNilFuncPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("nil fn did not panic")
		}
	}()
	New().Schedule(1, nil)
}

func TestAtBeforeNowPanics(t *testing.T) {
	s := New()
	s.Schedule(100, func() {})
	s.Run()
	defer func() {
		if recover() == nil {
			t.Fatal("At in the past did not panic")
		}
	}()
	s.At(50, func() {})
}

func TestCancel(t *testing.T) {
	s := New()
	fired := false
	e := s.Schedule(10, func() { fired = true })
	e.Cancel()
	s.Run()
	if fired {
		t.Fatal("cancelled event fired")
	}
	if e.Pending() {
		t.Fatal("Pending() = true after Cancel")
	}
}

// The handle contract: a handle goes inert once its event has fired or its
// cancelled entry has left the heap, and a stale handle must never reach
// the event that reuses its slot.
func TestStaleHandleIsInert(t *testing.T) {
	s := New()
	var inCallback bool
	var first Event
	first = s.Schedule(10, func() { inCallback = first.Pending() })
	if !first.Pending() {
		t.Fatal("Pending() = false before the event fired")
	}
	s.Run()
	if inCallback {
		t.Fatal("Pending() = true inside the event's own callback")
	}
	if first.Pending() {
		t.Fatal("Pending() = true after the event fired")
	}

	// The freed slot is reused; the old handle must not cancel the new event.
	fired := false
	second := s.Schedule(10, func() { fired = true })
	if second.slot != first.slot {
		t.Fatalf("slot not recycled: first %d, second %d", first.slot, second.slot)
	}
	first.Cancel()
	if !second.Pending() {
		t.Fatal("stale handle cancelled the event that reused its slot")
	}
	s.Run()
	if !fired {
		t.Fatal("event sharing a recycled slot did not fire")
	}

	// Same after a cancel: the cancelled entry drains, the slot is reused.
	third := s.Schedule(10, func() { t.Fatal("cancelled event fired") })
	third.Cancel()
	s.Run()
	fired = false
	fourth := s.Schedule(10, func() { fired = true })
	third.Cancel()
	s.Run()
	if !fired || fourth.Pending() {
		t.Fatalf("after cancel+reuse: fired=%v pending=%v", fired, fourth.Pending())
	}
	if len(s.slots) != 1 {
		t.Fatalf("one event at a time used %d slots, want 1", len(s.slots))
	}
}

func TestCancelIsIdempotent(t *testing.T) {
	s := New()
	e := s.Schedule(10, func() {})
	e.Cancel()
	e.Cancel() // must not panic
	var zero Event
	zero.Cancel() // the zero handle is "no event"
	s.Run()
}

func TestCancelOneOfMany(t *testing.T) {
	s := New()
	var fired []int
	evs := make([]Event, 5)
	for i := 0; i < 5; i++ {
		i := i
		evs[i] = s.Schedule(Duration(i+1), func() { fired = append(fired, i) })
	}
	evs[2].Cancel()
	s.Run()
	want := []int{0, 1, 3, 4}
	if len(fired) != len(want) {
		t.Fatalf("fired %v, want %v", fired, want)
	}
	for i := range want {
		if fired[i] != want[i] {
			t.Fatalf("fired %v, want %v", fired, want)
		}
	}
}

func TestEventSchedulesEvent(t *testing.T) {
	s := New()
	var times []Time
	s.Schedule(10, func() {
		times = append(times, s.Now())
		s.Schedule(5, func() { times = append(times, s.Now()) })
	})
	s.Run()
	if len(times) != 2 || times[0] != 10 || times[1] != 15 {
		t.Fatalf("nested scheduling produced %v", times)
	}
}

func TestRunUntil(t *testing.T) {
	s := New()
	count := 0
	for i := 1; i <= 10; i++ {
		s.Schedule(Duration(i*10), func() { count++ })
	}
	s.RunUntil(50)
	if count != 5 {
		t.Fatalf("RunUntil(50) fired %d events, want 5", count)
	}
	if s.Now() != 50 {
		t.Fatalf("clock = %v, want 50", s.Now())
	}
	s.Run()
	if count != 10 {
		t.Fatalf("remaining events lost: fired %d total", count)
	}
}

func TestRunUntilAdvancesIdleClock(t *testing.T) {
	s := New()
	s.RunUntil(1000)
	if s.Now() != 1000 {
		t.Fatalf("idle RunUntil left clock at %v", s.Now())
	}
}

func TestRunUntilInclusive(t *testing.T) {
	s := New()
	fired := false
	s.Schedule(100, func() { fired = true })
	s.RunUntil(100)
	if !fired {
		t.Fatal("event exactly at boundary did not fire")
	}
}

func TestRunFor(t *testing.T) {
	s := New()
	s.Schedule(100, func() {})
	s.Run()
	s.RunFor(50)
	if s.Now() != 150 {
		t.Fatalf("RunFor: clock = %v, want 150", s.Now())
	}
}

func TestStepReturnsFalseWhenEmpty(t *testing.T) {
	s := New()
	if s.Step() {
		t.Fatal("Step on empty queue returned true")
	}
	e := s.Schedule(1, func() {})
	e.Cancel()
	if s.Step() {
		t.Fatal("Step with only cancelled events returned true")
	}
}

func TestFiredCounter(t *testing.T) {
	s := New()
	for i := 0; i < 7; i++ {
		s.Schedule(Duration(i), func() {})
	}
	s.Run()
	if s.Fired() != 7 {
		t.Fatalf("Fired() = %d, want 7", s.Fired())
	}
}

func TestPending(t *testing.T) {
	s := New()
	s.Schedule(1, func() {})
	s.Schedule(2, func() {})
	if s.Pending() != 2 {
		t.Fatalf("Pending() = %d, want 2", s.Pending())
	}
	s.Run()
	if s.Pending() != 0 {
		t.Fatalf("Pending() after Run = %d", s.Pending())
	}
}

func TestTimeString(t *testing.T) {
	cases := []struct {
		t    Time
		want string
	}{
		{500, "500ns"},
		{1500, "1.500us"},
		{2500000, "2.500ms"},
		{3 * Second, "3.000s"},
	}
	for _, c := range cases {
		if got := c.t.String(); got != c.want {
			t.Errorf("Time(%d).String() = %q, want %q", int64(c.t), got, c.want)
		}
	}
}

func TestTimeConversions(t *testing.T) {
	if (2 * Second).Seconds() != 2 {
		t.Fatal("Seconds conversion wrong")
	}
	if (3 * Microsecond).Micros() != 3 {
		t.Fatal("Micros conversion wrong")
	}
}

func TestTicker(t *testing.T) {
	s := New()
	var ticks []Time
	tk := NewTicker(s, 10, func(now Time) { ticks = append(ticks, now) })
	s.RunUntil(35)
	tk.Stop()
	s.RunUntil(100)
	if len(ticks) != 3 {
		t.Fatalf("got %d ticks %v, want 3", len(ticks), ticks)
	}
	for i, tm := range ticks {
		if want := Time(10 * (i + 1)); tm != want {
			t.Fatalf("tick %d at %v, want %v", i, tm, want)
		}
	}
}

func TestTickerStopInsideCallback(t *testing.T) {
	s := New()
	count := 0
	var tk *Ticker
	tk = NewTicker(s, 5, func(Time) {
		count++
		if count == 2 {
			tk.Stop()
		}
	})
	s.Run()
	if count != 2 {
		t.Fatalf("ticker fired %d times after in-callback Stop, want 2", count)
	}
}

func TestTickerZeroPeriodPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("zero-period ticker did not panic")
		}
	}()
	NewTicker(New(), 0, func(Time) {})
}

// Property: any batch of scheduled delays fires in non-decreasing time order.
func TestQuickEventOrdering(t *testing.T) {
	f := func(delays []uint16) bool {
		s := New()
		var fired []Time
		for _, d := range delays {
			s.Schedule(Duration(d), func() { fired = append(fired, s.Now()) })
		}
		s.Run()
		for i := 1; i < len(fired); i++ {
			if fired[i] < fired[i-1] {
				return false
			}
		}
		return len(fired) == len(delays)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// Property: heap never loses events — fired count equals scheduled count.
func TestQuickNoEventLoss(t *testing.T) {
	f := func(delays []uint8) bool {
		s := New()
		count := 0
		for _, d := range delays {
			s.Schedule(Duration(d), func() { count++ })
		}
		s.Run()
		return count == len(delays)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkScheduleAndRun(b *testing.B) {
	s := New()
	for i := 0; i < b.N; i++ {
		s.Schedule(Duration(i%1000), func() {})
		if i%1024 == 1023 {
			s.Run()
		}
	}
	s.Run()
}

func BenchmarkHeap10k(b *testing.B) {
	for i := 0; i < b.N; i++ {
		s := New()
		for j := 0; j < 10000; j++ {
			s.Schedule(Duration(j*7919%10000), func() {})
		}
		s.Run()
	}
}

// BenchmarkSimSchedule is the steady state of a running simulation: every
// iteration schedules one event with a pre-bound func and fires one, and
// every fourth iteration also schedules and cancels one, so cancelled
// entries drain and their slots are reused. The //mpdp:hotpath gate holds
// At at 0 allocs/op.
func BenchmarkSimSchedule(b *testing.B) {
	s := New()
	fired := 0
	fn := func() { fired++ }
	for i := 0; i < 64; i++ { // a standing population, as lanes and timers keep one
		s.Schedule(Duration(i), fn)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.Schedule(64, fn)
		if i%4 == 0 {
			s.Schedule(32, fn).Cancel()
		}
		s.Step()
	}
	if fired != b.N {
		b.Fatalf("fired %d of %d events", fired, b.N)
	}
}

// BenchmarkSimStep measures the dispatch loop alone: every event is
// scheduled before the timer starts.
func BenchmarkSimStep(b *testing.B) {
	s := New()
	fired := 0
	fn := func() { fired++ }
	for i := 0; i < b.N; i++ {
		s.At(Time(i), fn)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.Step()
	}
	if fired != b.N {
		b.Fatalf("fired %d of %d events", fired, b.N)
	}
}
