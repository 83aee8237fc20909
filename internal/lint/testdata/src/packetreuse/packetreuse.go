// Package packetreuse exercises the use-after-hand-off analyzer: touching
// a *packet.Packet after unconditionally enqueueing it must be flagged;
// checked hand-offs and reassignment must not.
package packetreuse

import "mpdp/internal/packet"

type lane struct{ q []*packet.Packet }

func (l *lane) Enqueue(p *packet.Packet) bool {
	l.q = append(l.q, p)
	return true
}

// badReadAfter reads a packet field after ownership moved to the lane.
func badReadAfter(l *lane, p *packet.Packet) int {
	l.Enqueue(p)
	return p.Size()
}

// badDoubleHandoff enqueues the same packet twice.
func badDoubleHandoff(a, b *lane, p *packet.Packet) {
	a.Enqueue(p)
	b.Enqueue(p)
}

// goodChecked inspects the result: the rejection path legitimately still
// owns the packet.
func goodChecked(l *lane, p *packet.Packet, drops *int) {
	if !l.Enqueue(p) {
		*drops += p.Size()
	}
}

// goodReassigned points p at a fresh packet before reuse.
func goodReassigned(l *lane, p *packet.Packet) int {
	l.Enqueue(p)
	p = &packet.Packet{}
	return p.Size()
}

// goodBeforeHandoff reads first, hands off last.
func goodBeforeHandoff(l *lane, p *packet.Packet) int {
	n := p.Size()
	l.Enqueue(p)
	return n
}

// badReadAfterPut reads a packet the pool may already have handed out again.
func badReadAfterPut(pl *packet.Pool, p *packet.Packet) uint64 {
	pl.Put(p)
	return p.ID
}

// badDoublePut returns the same packet twice.
func badDoublePut(pl *packet.Pool, p *packet.Packet) {
	pl.Put(p)
	pl.Put(p)
}

// goodPutLast reads what it needs, then lets go.
func goodPutLast(pl *packet.Pool, p *packet.Packet) int {
	n := p.Size()
	pl.Put(p)
	return n
}

// allowed documents a deliberate exception.
func allowed(l *lane, p *packet.Packet) uint64 {
	l.Enqueue(p)
	//lint:allow packetreuse single-threaded test helper, lane does not mutate
	return p.ID
}
