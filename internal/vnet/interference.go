package vnet

import (
	"mpdp/internal/sim"
	"mpdp/internal/xrand"
)

// Interference models a noisy neighbor sharing the lane's physical core: an
// ON/OFF renewal process with exponentially distributed episode lengths.
// While ON, the lane's service times are multiplied by SlowFactor — the
// co-located tenant is stealing cycles, trashing caches, or triggering the
// hypervisor scheduler. This is the root cause of "last-mile" stragglers
// the paper's multipath data plane routes around.
//
// Episodes are per-lane and independent across lanes (each core has its own
// neighbor), which is precisely what makes path diversity valuable: when
// one lane is ON, its siblings usually are not.
type Interference struct {
	sim *sim.Simulator
	rng *xrand.Rand
	cfg InterferenceConfig
	// toggleFn is i.toggle bound once: a method value built at every
	// scheduleToggle would allocate per episode edge.
	toggleFn func()

	active      bool
	stopped     bool
	episodes    uint64
	activeSince sim.Time
	activeTotal sim.Duration
}

// InterferenceConfig parameterizes the ON/OFF process.
type InterferenceConfig struct {
	// SlowFactor multiplies service time while ON (e.g. 4.0). 1.0 is a
	// no-op neighbor.
	SlowFactor float64
	// MeanOn is the mean length of a slow episode.
	MeanOn sim.Duration
	// MeanOff is the mean gap between episodes. Duty cycle is
	// MeanOn/(MeanOn+MeanOff).
	MeanOff sim.Duration
	// StartActive starts the process in the ON state.
	StartActive bool
}

// DefaultInterferenceConfig is the moderate noisy neighbor used across the
// experiment suite: 4× slowdown, 200 µs episodes, ~10% duty cycle. These
// magnitudes follow public measurements of VM CPU steal and LLC thrashing.
func DefaultInterferenceConfig() InterferenceConfig {
	return InterferenceConfig{
		SlowFactor: 4.0,
		MeanOn:     200 * sim.Microsecond,
		MeanOff:    1800 * sim.Microsecond,
	}
}

// NewInterference starts the process on s. A nil return for zero-effect
// configs keeps callers branch-free: passing factor<=1 or MeanOn<=0 yields
// nil, and a nil *Interference is valid (Factor always 1).
func NewInterference(s *sim.Simulator, rng *xrand.Rand, cfg InterferenceConfig) *Interference {
	if cfg.SlowFactor <= 1 || cfg.MeanOn <= 0 || cfg.MeanOff <= 0 {
		return nil
	}
	i := &Interference{sim: s, rng: rng, cfg: cfg, active: cfg.StartActive}
	i.toggleFn = i.toggle
	if i.active {
		i.activeSince = s.Now()
		i.episodes++
	}
	i.scheduleToggle()
	return i
}

func (i *Interference) scheduleToggle() {
	var mean sim.Duration
	if i.active {
		mean = i.cfg.MeanOn
	} else {
		mean = i.cfg.MeanOff
	}
	d := sim.Duration(i.rng.ExpFloat64(1 / float64(mean)))
	if d < 1 {
		d = 1
	}
	i.sim.Schedule(d, i.toggleFn)
}

// Stop freezes the process in its current state; no further toggles fire.
// Harness code uses it to let the event queue drain after the measurement
// window. Safe on nil.
func (i *Interference) Stop() {
	if i != nil {
		i.stopped = true
	}
}

func (i *Interference) toggle() {
	if i.stopped {
		return
	}
	now := i.sim.Now()
	if i.active {
		i.activeTotal += now - i.activeSince
		i.active = false
	} else {
		i.active = true
		i.activeSince = now
		i.episodes++
	}
	i.scheduleToggle()
}

// Factor returns the current service-time multiplier. Safe on nil.
func (i *Interference) Factor(now sim.Time) float64 {
	if i == nil || !i.active {
		return 1
	}
	return i.cfg.SlowFactor
}

// Active reports whether a slow episode is in progress. Safe on nil.
func (i *Interference) Active() bool { return i != nil && i.active }

// Episodes returns how many slow episodes have started. Safe on nil.
func (i *Interference) Episodes() uint64 {
	if i == nil {
		return 0
	}
	return i.episodes
}

// ActiveFraction returns the fraction of virtual time spent ON so far.
func (i *Interference) ActiveFraction() float64 {
	if i == nil {
		return 0
	}
	now := i.sim.Now()
	if now == 0 {
		return 0
	}
	total := i.activeTotal
	if i.active {
		total += now - i.activeSince
	}
	return float64(total) / float64(now)
}
