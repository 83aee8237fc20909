package transport

import (
	"sync/atomic"
	"time"

	"mpdp/internal/core"
	"mpdp/internal/obs"
	"mpdp/internal/packet"
	"mpdp/internal/sim"
)

// reorderDriver funnels received frames through the existing core.Reorder
// buffer — hole punching, gap timeouts, late-straggler accounting and all —
// by running a private discrete-event simulator whose clock is advanced to
// wall time. One goroutine owns the simulator, the reorder buffer, and the
// dedup state, so none of core's single-threaded machinery needs locks:
// frames flow in over a channel, gap timers fire whenever the clock is
// advanced past them (each submit, plus an idle tick so a silent wire still
// releases stragglers).
type reorderDriver struct {
	clock   func() sim.Time // receiver's monotone unix-nano clock
	sim     *sim.Simulator
	rb      *core.Reorder
	dedup   *dedup
	in      chan *packet.Packet
	free    rxPackets // spent packets on their way back to the readers
	stats   chan chan driverStats
	stopped chan struct{}
	tick    time.Duration
	trace   *obs.WireRecorder // nil = wire tracing off

	// gapSkipped mirrors the reorder buffer's abandoned-seq counter after
	// every driver step, so callers applying backpressure (the loopback
	// harness) can treat timed-out losses as resolved without a stats
	// round trip per packet.
	gapSkipped atomic.Uint64

	final driverStats // valid after close()
}

// rxPackets carries spent packets from the driver back to the path
// readers, so the receive path allocates a packet, and its payload buffer,
// only while the number in flight is still growing. Readers take with get;
// the driver gives back with put once the packet's fate is decided (dropped
// as a hedged sibling, or delivered or declared lost and the application's
// callback has returned). A channel, not a packet.Pool, because taker and
// giver are different goroutines. An empty channel means a fresh packet and
// a full one leaves the surplus to the collector, as does a copy that
// core.Reorder itself discards as a duplicate.
type rxPackets chan *packet.Packet

func (c rxPackets) get() *packet.Packet {
	select {
	case p := <-c:
		return p
	default:
		return new(packet.Packet)
	}
}

func (c rxPackets) put(p *packet.Packet) {
	select {
	case c <- p:
	default:
	}
}

// driverStats is the driver-owned state a snapshot can safely expose.
type driverStats struct {
	Reorder  core.ReorderStats
	DupDrops uint64 // hedged siblings dropped by first-copy-wins dedup
}

// newReorderDriver wires a core.Reorder with the given gap timeout (wall
// nanoseconds) to a wall-clock pump. deliver and onLost run on the driver
// goroutine.
func newReorderDriver(clock func() sim.Time, timeout time.Duration, dedupWindow uint64,
	deliver core.DeliverFunc, onLost core.DeliverFunc, queue int,
	trace *obs.WireRecorder) *reorderDriver {
	s := sim.New()
	// Anchor the simulator at the current wall clock so the first gap
	// timer is scheduled relative to "now", not to 1970.
	s.RunUntil(clock())
	rb := core.NewReorder(s, sim.Duration(timeout.Nanoseconds()), deliver)
	if onLost != nil {
		rb.OnLost(onLost)
	}
	tick := timeout / 4
	if tick <= 0 || tick > 10*time.Millisecond {
		tick = 10 * time.Millisecond
	}
	if tick < time.Millisecond {
		tick = time.Millisecond
	}
	return &reorderDriver{
		clock:   clock,
		sim:     s,
		rb:      rb,
		dedup:   newDedup(dedupWindow),
		in:      make(chan *packet.Packet, queue),
		free:    make(rxPackets, queue),
		stats:   make(chan chan driverStats),
		stopped: make(chan struct{}),
		tick:    tick,
		trace:   trace,
	}
}

func (d *reorderDriver) start() { go d.run() }

func (d *reorderDriver) run() {
	defer close(d.stopped)
	ticker := time.NewTicker(d.tick) //lint:allow determinism wall-clock pump for the reorder gap timers
	defer ticker.Stop()
	for {
		select {
		case p, ok := <-d.in:
			if !ok {
				// Drain: advance past every armed timer, then flush what
				// remains in per-flow sequence order.
				d.sim.RunUntil(d.clock())
				d.rb.Flush()
				d.final = d.snapshot()
				d.gapSkipped.Store(d.final.Reorder.GapSkipped)
				return
			}
			d.sim.RunUntil(d.clock())
			if !d.dedup.Admit(p.FlowID, p.Seq) {
				// A hedged sibling already claimed this seq. A=0 marks the
				// flow-level dedup verdict (vs 1 for a wire duplicate).
				if tr := d.trace; tr != nil && tr.Sampled(p.FlowID, p.Seq) {
					tr.Emit(obs.WireEvent{Nanos: int64(d.clock()), Kind: obs.WireDedup,
						Path: int32(p.PathID), FlowID: p.FlowID, Seq: p.Seq,
						PathSeq: p.PathSeq})
				}
				d.free.put(p)
				continue
			}
			d.rb.Submit(p)
			d.gapSkipped.Store(d.rb.Stats().GapSkipped)
		case reply := <-d.stats:
			reply <- d.snapshot()
		case <-ticker.C:
			d.sim.RunUntil(d.clock())
			d.gapSkipped.Store(d.rb.Stats().GapSkipped)
		}
	}
}

func (d *reorderDriver) snapshot() driverStats {
	return driverStats{Reorder: d.rb.Stats(), DupDrops: d.dedup.dupDrops}
}

// snapshotStats returns driver-owned counters, answered by the driver
// goroutine itself while running (race-free by construction) and from the
// final snapshot after close.
func (d *reorderDriver) snapshotStats() driverStats {
	reply := make(chan driverStats, 1)
	select {
	case d.stats <- reply:
		return <-reply
	case <-d.stopped:
		return d.final
	}
}

// close stops the driver and waits for the final flush.
func (d *reorderDriver) close() {
	close(d.in)
	<-d.stopped
}
