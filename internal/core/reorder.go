// Package core implements the paper's contribution: the multipath data
// plane (MPDP). It schedules packets across multiple lanes (queue × core ×
// chain-replica paths built from internal/vnet), steering flowlets away
// from slow paths and selectively duplicating latency-critical packets,
// then restores per-flow ordering in a bounded reorder buffer before
// delivery to the guest.
package core

import (
	"sort"

	"mpdp/internal/obs"
	"mpdp/internal/packet"
	"mpdp/internal/sim"
)

// DeliverFunc receives packets released in order by the reorder buffer.
type DeliverFunc func(p *packet.Packet)

// Reorder is the in-order delivery stage. Packets of one flow (keyed by the
// immutable FlowID) are released in ingress sequence order. Two mechanisms
// keep a lost packet from stalling its successors:
//
//   - Hole punching: when the engine knows a sequence will never arrive
//     (queue-full drop, policy drop of every copy), it calls Skip, which
//     fills the hole with a tombstone so successors flow immediately.
//   - Gap timeout: any packet still blocked after Timeout is released
//     anyway, together with everything else that has waited at least that
//     long. This is the safety net for losses the engine cannot see.
//
// The buffer also deduplicates: when the redundancy policy sends two copies
// of a sequence number, the first to finish service wins and the second is
// discarded here.
//
// Ownership: Submit takes the packet over. It leaves again through the
// deliver callback, or — for a duplicate or a straggler dropped here — goes
// back to the pool after the onLost callback (if any) returns.
type Reorder struct {
	sim     *sim.Simulator
	timeout sim.Duration
	deliver DeliverFunc
	onLost  DeliverFunc  // a real packet discarded for good (late drop)
	trace   obs.Sink     // optional flight-recorder hook (nil = off)
	pool    *packet.Pool // where packets dropped here go back (nil = nowhere)

	flows map[uint64]*flowOrder

	// Counters for the E8 reordering-cost table.
	inOrder      uint64
	outOfOrder   uint64
	dupDrops     uint64
	lateDrops    uint64
	timeoutRel   uint64
	holesPunched uint64
	gapSkipped   uint64 // sequence numbers abandoned by a gap timeout
	occupancy    int    // buffered entries, tombstones included
	pktOccupancy int    // buffered real packets only
	maxOccupancy int
}

type pendingPkt struct {
	p  *packet.Packet // nil for a tombstone (punched hole)
	at sim.Time       // when it entered the buffer
}

type flowOrder struct {
	next    uint64 // lowest sequence not yet released
	pending map[uint64]pendingPkt
	timer   sim.Event // gap timer, armed while pending is non-empty
	fire    func()    // the timer's callback, bound once per flow
}

// NewReorder builds the stage. timeout <= 0 disables gap timeouts (wait
// forever — only sensible when the caller guarantees hole punching covers
// every loss).
func NewReorder(s *sim.Simulator, timeout sim.Duration, deliver DeliverFunc) *Reorder {
	if deliver == nil {
		panic("core: NewReorder with nil deliver")
	}
	return &Reorder{
		sim:     s,
		timeout: timeout,
		deliver: deliver,
		flows:   make(map[uint64]*flowOrder),
	}
}

// OnLost registers a callback for packets the buffer discards for good — a
// straggler arriving after its gap was declared lost. Duplicate copies
// (their original was or will be delivered by a sibling) do not fire it.
func (r *Reorder) OnLost(fn DeliverFunc) { r.onLost = fn }

// emit records a reorder-stage lifecycle event when a recorder is attached.
func (r *Reorder) emit(kind obs.Kind, p *packet.Packet, a, b int64) {
	if r.trace == nil || p == nil {
		return
	}
	r.trace.Emit(obs.Event{Time: r.sim.Now(), Kind: kind, PktID: p.ID, OrigID: p.OrigID,
		FlowID: p.FlowID, Seq: p.Seq, Path: int32(p.PathID), A: a, B: b})
}

func (r *Reorder) flow(id uint64) *flowOrder {
	f, ok := r.flows[id]
	if !ok {
		f = &flowOrder{pending: make(map[uint64]pendingPkt)}
		f.fire = func() { r.onTimeout(f) }
		r.flows[id] = f
	}
	return f
}

// Submit hands the buffer a service-completed packet.
func (r *Reorder) Submit(p *packet.Packet) {
	f := r.flow(p.FlowID)

	switch {
	case p.Seq < f.next:
		// Predecessor of an already-released sequence: either a duplicate
		// copy losing the race, or a straggler that missed its timeout.
		if p.IsDup || p.Cancelled {
			r.dupDrops++
			p.Dropped = packet.DropCancelled
		} else {
			r.lateDrops++
			p.Dropped = packet.DropReorder
			if r.onLost != nil {
				r.onLost(p)
			}
		}
		r.pool.Put(p)
	case p.Seq == f.next:
		r.inOrder++
		r.release(f, p)
		r.drain(f)
	default:
		// Early: a predecessor is still in flight somewhere.
		if _, dup := f.pending[p.Seq]; dup {
			r.dupDrops++
			p.Dropped = packet.DropCancelled
			r.pool.Put(p)
			return
		}
		r.outOfOrder++
		r.emit(obs.KindReorderEnter, p, 0, 0)
		f.pending[p.Seq] = pendingPkt{p: p, at: r.sim.Now()}
		r.occupancy++
		r.pktOccupancy++
		if r.occupancy > r.maxOccupancy {
			r.maxOccupancy = r.occupancy
		}
		r.armTimer(f)
	}
}

// Skip punches a hole: sequence seq of the flow will never arrive (the
// engine dropped every copy of it), so successors must not wait for it.
func (r *Reorder) Skip(flowID, seq uint64) {
	f := r.flow(flowID)
	if seq < f.next {
		return
	}
	r.holesPunched++
	if seq == f.next {
		f.next = seq + 1
		r.drain(f)
		return
	}
	if _, exists := f.pending[seq]; exists {
		return
	}
	f.pending[seq] = pendingPkt{p: nil, at: r.sim.Now()}
	r.occupancy++
	if r.occupancy > r.maxOccupancy {
		r.maxOccupancy = r.occupancy
	}
	r.armTimer(f)
}

// release delivers p (or swallows a tombstone) and advances the cursor.
func (r *Reorder) release(f *flowOrder, p *packet.Packet) {
	if p != nil {
		f.next = p.Seq + 1
		p.Delivered = r.sim.Now()
		r.deliver(p)
		return
	}
	f.next++
}

// drain releases consecutive pending successors.
func (r *Reorder) drain(f *flowOrder) {
	for {
		e, ok := f.pending[f.next]
		if !ok {
			break
		}
		delete(f.pending, f.next)
		r.occupancy--
		if e.p != nil {
			r.pktOccupancy--
			r.emit(obs.KindReorderRelease, e.p, int64(e.at), 0)
			r.release(f, e.p)
		} else {
			f.next++
		}
	}
	if len(f.pending) == 0 {
		f.timer.Cancel()
	} else {
		r.armTimer(f)
	}
}

// armTimer arms the flow's gap timer for its oldest pending entry.
func (r *Reorder) armTimer(f *flowOrder) {
	if r.timeout <= 0 || f.timer.Pending() || len(f.pending) == 0 {
		return
	}
	oldest := r.oldestPending(f)
	fireIn := oldest + r.timeout - r.sim.Now()
	if fireIn < 1 {
		fireIn = 1
	}
	f.timer = r.sim.Schedule(fireIn, f.fire)
}

func (r *Reorder) oldestPending(f *flowOrder) sim.Time {
	var oldest sim.Time = 1<<63 - 1
	for _, e := range f.pending {
		if e.at < oldest {
			oldest = e.at
		}
	}
	return oldest
}

// onTimeout releases, in sequence order, every pending entry that has
// waited at least the timeout (declaring the gaps before them lost), then
// re-arms for the oldest survivor.
func (r *Reorder) onTimeout(f *flowOrder) {
	cutoff := r.sim.Now() - r.timeout
	for len(f.pending) > 0 {
		// Find the smallest pending sequence.
		min := ^uint64(0)
		for seq := range f.pending {
			if seq < min {
				min = seq
			}
		}
		e := f.pending[min]
		if e.at > cutoff {
			break // youngest-first survivors keep waiting
		}
		delete(f.pending, min)
		r.occupancy--
		r.gapSkipped += min - f.next // seqs the timeout declares lost
		if e.p != nil {
			r.pktOccupancy--
			r.timeoutRel++
			f.next = min // skip the gap
			r.emit(obs.KindReorderRelease, e.p, int64(e.at), 1)
			r.release(f, e.p)
		} else {
			f.next = min + 1
		}
		r.drain(f)
	}
	r.armTimer(f)
}

// ReorderStats is the E8 cost snapshot.
type ReorderStats struct {
	InOrder      uint64 // packets released immediately
	OutOfOrder   uint64 // packets that had to wait for a predecessor
	DupDrops     uint64 // duplicate copies discarded
	LateDrops    uint64 // stragglers arriving after a timeout skip
	TimeoutFires uint64 // packets force-released by the gap timeout
	HolesPunched uint64 // losses the engine reported via Skip
	GapSkipped   uint64 // sequence numbers abandoned by a gap timeout
	MaxOccupancy int    // peak buffered entries
	Pending      int    // currently buffered (tombstones included)
	PendingPkts  int    // currently buffered real packets
}

// Stats returns a snapshot of the buffer's counters.
func (r *Reorder) Stats() ReorderStats {
	return ReorderStats{
		InOrder:      r.inOrder,
		OutOfOrder:   r.outOfOrder,
		DupDrops:     r.dupDrops,
		LateDrops:    r.lateDrops,
		TimeoutFires: r.timeoutRel,
		HolesPunched: r.holesPunched,
		GapSkipped:   r.gapSkipped,
		MaxOccupancy: r.maxOccupancy,
		Pending:      r.occupancy,
		PendingPkts:  r.pktOccupancy,
	}
}

// OOOFraction returns the fraction of released packets that arrived out of
// order.
func (s ReorderStats) OOOFraction() float64 {
	total := s.InOrder + s.OutOfOrder
	if total == 0 {
		return 0
	}
	return float64(s.OutOfOrder) / float64(total)
}

// Flush force-releases everything still pending (end of measurement run),
// in per-flow sequence order. Flows are visited in ascending flow-ID order
// so the release sequence — and any attached event recorder's stream — is
// identical across same-seed runs.
func (r *Reorder) Flush() {
	ids := make([]uint64, 0, len(r.flows))
	for id := range r.flows {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	for _, id := range ids {
		f := r.flows[id]
		f.timer.Cancel()
		for len(f.pending) > 0 {
			min := ^uint64(0)
			for seq := range f.pending {
				if seq < min {
					min = seq
				}
			}
			e := f.pending[min]
			delete(f.pending, min)
			r.occupancy--
			if e.p != nil {
				r.pktOccupancy--
				f.next = min
				r.emit(obs.KindReorderRelease, e.p, int64(e.at), 1)
				r.release(f, e.p)
			} else {
				f.next = min + 1
			}
		}
	}
}
