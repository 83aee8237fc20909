package packet

import "math"

// Pool is a free list of packets, each with a frame buffer it keeps across
// uses. It is single-threaded — one simulator, one pool — and never
// pre-sized: it holds what has been handed out and returned, so it grows to
// the peak number of packets in flight and no further.
//
// Ownership: Get and Clone mint a packet for the caller; whoever holds it
// when its fate is decided returns it with Put exactly once, and must not
// touch it afterwards — the next Get may hand the same struct and the same
// bytes to someone else. Packets built any other way (a literal, a trace
// record, a workload that keeps its own frames) are ignored by Put, so a
// pipeline can return everything it finishes without knowing where each
// packet came from. The mark is one byte, not a pointer to the pool: a
// pipeline is fed from the pool it returns to (core.DataPlane.Packets).
//
// The zero Pool is ready to use, and a nil *Pool mints plain heap packets
// and ignores Put.
type Pool struct {
	free             []*Packet
	minted, released uint64
	poison           bool
}

// Packet.pooled values of a pool-minted packet.
const (
	pooledOut  = 1 // handed out, not yet returned
	pooledFree = 2 // back in the free list
)

// Get returns a packet whose Data is size zero bytes and whose every other
// field is zero.
func (pl *Pool) Get(size int) *Packet {
	p := pl.take(size)
	clear(p.Data)
	return p
}

// take is Get without the zeroing, for callers that overwrite all of Data.
func (pl *Pool) take(size int) *Packet {
	if pl == nil {
		return &Packet{Data: make([]byte, size)}
	}
	pl.minted++
	n := len(pl.free)
	if n == 0 {
		return &Packet{Data: make([]byte, size), pooled: pooledOut}
	}
	p := pl.free[n-1]
	pl.free[n-1] = nil
	pl.free = pl.free[:n-1]
	buf := p.Data
	if cap(buf) < size {
		buf = make([]byte, size)
	}
	*p = Packet{Data: buf[:size], pooled: pooledOut}
	return p
}

// Clone deep-copies p into a packet of this pool (its own Data buffer) and
// assigns the given new ID, preserving OrigID lineage. Used by the
// duplication policy.
func (pl *Pool) Clone(p *Packet, newID uint64) *Packet {
	q := pl.take(len(p.Data))
	data, mark := q.Data, q.pooled
	*q = *p
	q.Data, q.pooled = data, mark
	copy(data, p.Data)
	q.ID = newID
	q.IsDup = true
	return q
}

// Put returns p to the pool. Packets no pool minted are ignored; returning
// the same packet twice panics, since the second holder would otherwise
// share it with whoever Get handed it to in between.
func (pl *Pool) Put(p *Packet) {
	if pl == nil || p.pooled == 0 {
		return
	}
	if p.pooled == pooledFree {
		panic("packet: Put of a packet that is already back in its pool")
	}
	pl.released++
	if pl.poison {
		*p = poisoned
	}
	p.pooled = pooledFree
	pl.free = append(pl.free, p)
}

// poisoned is what a released packet looks like in poison mode: identity
// all ones, no frame, an undefined drop reason, a path index that panics,
// and timestamps that make every derived duration absurd.
var poisoned = Packet{
	ID: ^uint64(0), OrigID: ^uint64(0), FlowID: ^uint64(0), Seq: ^uint64(0),
	Ingress: math.MaxInt64 / 2, Enqueued: math.MaxInt64 / 2, ServiceAt: math.MaxInt64 / 2,
	Done: math.MinInt64 / 2, Delivered: math.MinInt64 / 2,
	PathID: math.MinInt32, Dropped: 0xff,
}

// Counts returns how many packets the pool has handed out and how many have
// come back; the difference is what its users still hold.
func (pl *Pool) Counts() (minted, released uint64) { return pl.minted, pl.released }

// Poison is for tests: from now on a released packet is overwritten with
// values no live packet has, so a read after release shows up in whatever
// checks identity, frame bytes, latency or drop accounting instead of
// passing on stale but plausible data.
func (pl *Pool) Poison() { pl.poison = true }
