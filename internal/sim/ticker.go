package sim

// Ticker invokes a callback at a fixed virtual-time period until stopped.
// It is the building block for poll-mode loops and periodic telemetry.
type Ticker struct {
	sim    *Simulator
	period Duration
	fn     func(now Time)
	tick   func() // bound once, so re-arming allocates nothing
	ev     Event
	stop   bool
}

// NewTicker starts a ticker on s firing every period, first at now+period.
// It panics if period <= 0.
func NewTicker(s *Simulator, period Duration, fn func(now Time)) *Ticker {
	if period <= 0 {
		panic("sim: NewTicker with non-positive period")
	}
	t := &Ticker{sim: s, period: period, fn: fn}
	t.tick = func() {
		t.fn(t.sim.Now())
		if !t.stop {
			t.ev = t.sim.Schedule(t.period, t.tick)
		}
	}
	t.ev = s.Schedule(period, t.tick)
	return t
}

// Stop halts the ticker; subsequent ticks are cancelled.
func (t *Ticker) Stop() {
	t.stop = true
	t.ev.Cancel()
}
