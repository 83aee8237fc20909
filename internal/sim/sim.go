// Package sim implements the discrete-event simulation kernel underneath the
// MPDP virtual data plane.
//
// All of MPDP runs in virtual time: a simulated nanosecond clock advanced
// only by the event loop. This substitutes for the paper's wall-clock
// DPDK/Click testbed (see DESIGN.md §2) and makes every experiment
// deterministic and bit-reproducible for a given seed.
//
// The kernel is intentionally minimal: a monotonic clock, a binary-heap
// event queue with stable FIFO ordering for simultaneous events, and
// cancellable event handles. Events are values in the heap, so scheduling
// and firing allocate nothing. Everything else (queues, cores, NICs) is built
// on top in the vnet package.
package sim

import (
	"fmt"
	"math"
)

// Time is a point in virtual time, in nanoseconds since simulation start.
type Time int64

// Duration spans between two virtual-time points, in nanoseconds.
type Duration = Time

// Convenient virtual-time units.
const (
	Nanosecond  Duration = 1
	Microsecond          = 1000 * Nanosecond
	Millisecond          = 1000 * Microsecond
	Second               = 1000 * Millisecond
)

// String formats a Time with an adaptive unit, for logs and tables.
func (t Time) String() string {
	switch {
	case t >= Second:
		return fmt.Sprintf("%.3fs", float64(t)/float64(Second))
	case t >= Millisecond:
		return fmt.Sprintf("%.3fms", float64(t)/float64(Millisecond))
	case t >= Microsecond:
		return fmt.Sprintf("%.3fus", float64(t)/float64(Microsecond))
	default:
		return fmt.Sprintf("%dns", int64(t))
	}
}

// Seconds returns the time as floating-point seconds.
func (t Time) Seconds() float64 { return float64(t) / float64(Second) }

// Micros returns the time as floating-point microseconds.
func (t Time) Micros() float64 { return float64(t) / float64(Microsecond) }

// Event is a handle on one scheduled callback — a slot and the generation
// it had when the event was scheduled — and a value, not a pointer. The zero
// Event is "no event". A handle is live from At until its event fires or its
// cancelled entry leaves the heap; the slot then moves to its next generation
// and every copy of the old handle goes inert (Cancel does nothing, Pending
// is false), so a stale handle never reaches the event reusing its slot.
type Event struct {
	s    *Simulator
	slot uint32
	gen  uint32
}

// Cancel prevents the event from firing. Cancelling an already-fired,
// already-cancelled or zero event is a no-op. Cancel is O(1); the heap
// entry is dropped lazily when it reaches the top.
func (e Event) Cancel() {
	if e.Pending() {
		e.s.slots[e.slot].cancelled = true
	}
}

// Pending reports whether the event is still going to fire: scheduled,
// not yet fired, not cancelled. It is already false inside the event's own
// callback.
func (e Event) Pending() bool {
	if e.s == nil {
		return false
	}
	sl := e.s.slots[e.slot]
	return sl.gen == e.gen && !sl.cancelled
}

// entry is one pending event, held by value in the heap.
type entry struct {
	at   Time
	seq  uint64 // tiebreaker: FIFO among simultaneous events
	fn   func()
	slot uint32
}

// slot is the cancellable state of one pending event, addressed by the
// handle. gen advances every time the slot is recycled.
type slot struct {
	gen       uint32
	cancelled bool
}

// Simulator owns the virtual clock and the pending-event heap.
// The zero value is a simulator at time 0 with no events, ready to use.
//
// Scheduling allocates nothing once the heap and slot slices have grown to
// the peak number of pending events. The caller's func is the caller's cost:
// a literal that captures variables allocates, so per-packet callers bind one
// func per long-lived object and keep the arguments in its fields.
type Simulator struct {
	now    Time
	events eventHeap
	slots  []slot
	free   []uint32 // recycled slot indices
	seq    uint64
	fired  uint64
}

// New returns a simulator at virtual time zero.
func New() *Simulator { return &Simulator{} }

// Now returns the current virtual time.
func (s *Simulator) Now() Time { return s.now }

// Pending returns the number of queued (possibly cancelled) events.
func (s *Simulator) Pending() int { return len(s.events) }

// Fired returns the total number of events executed so far.
func (s *Simulator) Fired() uint64 { return s.fired }

// Schedule queues fn to run after delay. A negative delay panics: the
// simulator's clock is monotonic and the past cannot be rewritten.
func (s *Simulator) Schedule(delay Duration, fn func()) Event {
	if delay < 0 {
		panic(fmt.Sprintf("sim: Schedule with negative delay %d", delay))
	}
	t := s.now + delay
	if t < s.now { // int64 overflow: clamp to the end of virtual time
		t = math.MaxInt64
	}
	return s.At(t, fn)
}

// At queues fn to run at absolute virtual time t (>= Now). Events at the
// same time fire in the order they were scheduled.
//
//mpdp:hotpath bench=BenchmarkSimSchedule
func (s *Simulator) At(t Time, fn func()) Event {
	if t < s.now {
		//lint:allow hotalloc formats the message of a panic; never runs in a correct program
		panic(fmt.Sprintf("sim: At(%v) is before now (%v)", t, s.now))
	}
	if fn == nil {
		panic("sim: nil event function")
	}
	var i uint32
	if n := len(s.free); n > 0 {
		i = s.free[n-1]
		s.free = s.free[:n-1]
	} else {
		i = uint32(len(s.slots))
		//lint:allow hotalloc grows to the peak number of pending events, then every slot is recycled
		s.slots = append(s.slots, slot{})
	}
	s.events.push(entry{at: t, seq: s.seq, fn: fn, slot: i})
	s.seq++
	return Event{s: s, slot: i, gen: s.slots[i].gen}
}

// take pops the earliest entry and recycles its slot, reporting whether the
// event is live (not cancelled). The slot is released before the callback
// runs, so the callback's own handle is already inert and its At calls can
// reuse the slot.
func (s *Simulator) take() (entry, bool) {
	e := s.events.pop()
	sl := &s.slots[e.slot]
	live := !sl.cancelled
	sl.gen++
	sl.cancelled = false
	//lint:allow hotalloc free never holds more than len(slots) indices; capacity settles at the peak
	s.free = append(s.free, e.slot)
	return e, live
}

// Step fires the single earliest event. It returns false when no runnable
// event remains. Neither dispatch nor scheduling allocates.
//
//mpdp:hotpath bench=BenchmarkSimStep
func (s *Simulator) Step() bool {
	for len(s.events) > 0 {
		e, live := s.take()
		if !live {
			continue
		}
		s.now = e.at
		s.fired++
		e.fn()
		return true
	}
	return false
}

// Run drains the event queue completely, advancing virtual time as it goes.
func (s *Simulator) Run() {
	for s.Step() {
	}
}

// RunUntil fires events up to and including time t, then sets the clock to
// t even if the queue drained earlier. Events scheduled after t stay queued.
func (s *Simulator) RunUntil(t Time) {
	for {
		at, ok := s.peekRunnable()
		if !ok || at > t {
			break
		}
		s.Step()
	}
	if s.now < t {
		s.now = t
	}
}

// RunFor advances the clock by d, firing all events in the window.
func (s *Simulator) RunFor(d Duration) { s.RunUntil(s.now + d) }

// peekRunnable discards cancelled events at the top of the heap and returns
// the time of the next live one.
func (s *Simulator) peekRunnable() (Time, bool) {
	for len(s.events) > 0 {
		e := &s.events[0]
		if !s.slots[e.slot].cancelled {
			return e.at, true
		}
		s.take()
	}
	return 0, false
}

// eventHeap is a binary min-heap of entries ordered by (time, seq). A
// hand-rolled heap (rather than container/heap) avoids interface boxing on
// the hottest path of the simulator; holding entries by value keeps
// scheduling off the allocator.
type eventHeap []entry

// before orders entries by (time, seq).
func (a *entry) before(b *entry) bool {
	if a.at != b.at {
		return a.at < b.at
	}
	return a.seq < b.seq
}

func (h *eventHeap) push(e entry) {
	*h = append(*h, e) // grows to the peak number of pending events and stays there
	h.up(len(*h) - 1)
}

func (h *eventHeap) pop() entry {
	old := *h
	n := len(old) - 1
	top, last := old[0], old[n]
	old[n] = entry{} // drop the func reference
	*h = old[:n]
	if n > 0 {
		old[:n].down(last)
	}
	return top
}

// up sifts the entry at i towards the root. Like down it moves a hole
// rather than swapping: each level costs one 32-byte copy, not two.
func (h eventHeap) up(i int) {
	e := h[i]
	for i > 0 {
		parent := (i - 1) / 2
		if !e.before(&h[parent]) {
			break
		}
		h[i] = h[parent]
		i = parent
	}
	h[i] = e
}

// down places e, starting from a hole at the root.
func (h eventHeap) down(e entry) {
	i, n := 0, len(h)
	for {
		c := 2*i + 1
		if c >= n {
			break
		}
		if r := c + 1; r < n && h[r].before(&h[c]) {
			c = r
		}
		if !h[c].before(&e) {
			break
		}
		h[i] = h[c]
		i = c
	}
	h[i] = e
}
