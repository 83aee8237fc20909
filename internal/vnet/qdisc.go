package vnet

import (
	"mpdp/internal/packet"
)

// Qdisc is a lane's queueing discipline. Implementations are single-
// threaded (driven by one simulated core) and bounded by a capacity set at
// construction.
//
// Cancelled packets are not removed eagerly; disciplines skip them at
// dequeue (the lane counts the skips).
type Qdisc interface {
	// Enqueue admits a packet; false means the discipline dropped it
	// (caller stamps the drop reason).
	Enqueue(p *packet.Packet) bool
	// Dequeue returns the next packet to serve, or nil when empty.
	Dequeue() *packet.Packet
	// Len returns the number of queued packets (including cancelled ones
	// not yet skipped).
	Len() int
	// Bytes returns the queued byte backlog.
	Bytes() int
	// Peek returns the i-th queued packet in scan order (0 = first), or
	// nil when i >= Len. Scan order is fixed per discipline — head to tail,
	// band by band — because cancellation marks the first match it finds.
	Peek(i int) *packet.Packet
}

// FIFO is the default drop-tail discipline: a fixed ring of capacity
// slots, so a steady enqueue/dequeue stream never touches the allocator
// and a dequeued packet is unreachable from the queue at once.
type FIFO struct {
	ring  []*packet.Packet
	head  int // index of the oldest packet
	n     int // queued packets
	bytes int
}

// NewFIFO builds a FIFO with the given capacity (packets).
func NewFIFO(capacity int) *FIFO {
	if capacity <= 0 {
		panic("vnet: NewFIFO with non-positive capacity")
	}
	return &FIFO{ring: make([]*packet.Packet, capacity)}
}

// Enqueue implements Qdisc.
func (f *FIFO) Enqueue(p *packet.Packet) bool {
	if f.n == len(f.ring) {
		return false
	}
	f.ring[f.slot(f.n)] = p
	f.n++
	f.bytes += p.Size()
	return true
}

// Dequeue implements Qdisc.
func (f *FIFO) Dequeue() *packet.Packet {
	if f.n == 0 {
		return nil
	}
	p := f.ring[f.head]
	f.ring[f.head] = nil
	f.head = f.slot(1)
	f.n--
	f.bytes -= p.Size()
	return p
}

// slot maps an offset from the head to a ring index.
func (f *FIFO) slot(i int) int {
	i += f.head
	if i >= len(f.ring) {
		i -= len(f.ring)
	}
	return i
}

// Len implements Qdisc.
func (f *FIFO) Len() int { return f.n }

// Bytes implements Qdisc.
func (f *FIFO) Bytes() int { return f.bytes }

// Peek implements Qdisc.
func (f *FIFO) Peek(i int) *packet.Packet {
	if i >= f.n {
		return nil
	}
	return f.ring[f.slot(i)]
}

// peekBands is Peek over a band array: band 0 head to tail, then band 1,
// then band 2.
func peekBands(bands *[3]*FIFO, i int) *packet.Packet {
	for _, b := range bands {
		if i < b.n {
			return b.Peek(i)
		}
		i -= b.n
	}
	return nil
}

// classOf maps a packet to a band via the DSCP bits the classifier stamps
// (see nf.Classifier): 1 = latency-sensitive, 0 = default, 2 = bulk.
// Unparseable frames go to the default band.
func classBand(p *packet.Packet) int {
	pr, err := packet.ParseFrame(p.Data)
	if err != nil || !pr.IsIP {
		return 1
	}
	switch pr.IP.TOS >> 2 {
	case 1: // latency-sensitive
		return 0
	case 2: // bulk
		return 2
	default:
		return 1
	}
}

// StrictPriority serves three bands in strict order: latency-sensitive
// first, then default, then bulk. Each band gets an equal share of the
// total capacity, so bulk floods cannot starve admission of the other
// bands.
type StrictPriority struct {
	bands [3]*FIFO
}

// NewStrictPriority builds the discipline with a total capacity split
// across the three bands.
func NewStrictPriority(capacity int) *StrictPriority {
	if capacity < 3 {
		capacity = 3
	}
	per := capacity / 3
	return &StrictPriority{bands: [3]*FIFO{NewFIFO(per), NewFIFO(per), NewFIFO(per)}}
}

// Enqueue implements Qdisc.
func (sp *StrictPriority) Enqueue(p *packet.Packet) bool {
	return sp.bands[classBand(p)].Enqueue(p)
}

// Dequeue implements Qdisc.
func (sp *StrictPriority) Dequeue() *packet.Packet {
	for _, b := range sp.bands {
		if p := b.Dequeue(); p != nil {
			return p
		}
	}
	return nil
}

// Len implements Qdisc.
func (sp *StrictPriority) Len() int {
	return sp.bands[0].Len() + sp.bands[1].Len() + sp.bands[2].Len()
}

// Bytes implements Qdisc.
func (sp *StrictPriority) Bytes() int {
	return sp.bands[0].Bytes() + sp.bands[1].Bytes() + sp.bands[2].Bytes()
}

// Peek implements Qdisc.
func (sp *StrictPriority) Peek(i int) *packet.Packet { return peekBands(&sp.bands, i) }

// DRR is a three-band deficit round robin: bands share the core in
// proportion to their quanta (bytes per round) instead of strictly, so
// bulk traffic keeps a guaranteed floor while latency-sensitive traffic
// gets most of the bandwidth.
type DRR struct {
	bands    [3]*FIFO
	quanta   [3]int
	deficit  [3]int
	active   int  // round-robin cursor
	credited bool // whether the active band received this visit's quantum
}

// NewDRR builds the discipline. quanta are bytes per round per band
// (index: 0 latency-sensitive, 1 default, 2 bulk); zero takes {3000,
// 1500, 750}.
func NewDRR(capacity int, quanta [3]int) *DRR {
	if capacity < 3 {
		capacity = 3
	}
	for i, q := range quanta {
		if q <= 0 {
			quanta[i] = []int{3000, 1500, 750}[i]
		}
	}
	per := capacity / 3
	return &DRR{
		bands:  [3]*FIFO{NewFIFO(per), NewFIFO(per), NewFIFO(per)},
		quanta: quanta,
	}
}

// Enqueue implements Qdisc.
func (d *DRR) Enqueue(p *packet.Packet) bool {
	return d.bands[classBand(p)].Enqueue(p)
}

// Dequeue implements Qdisc. Textbook DRR: a band receives its quantum only
// when the round-robin pointer arrives at it; once its deficit cannot cover
// the head frame, the pointer moves on (the residual deficit persists, so
// every non-empty band is served eventually regardless of quantum size).
func (d *DRR) Dequeue() *packet.Packet {
	if d.Len() == 0 {
		return nil
	}
	// Deficit grows by one quantum per full round, so the number of rounds
	// needed is bounded by maxFrame/minQuantum; 64 visits is ample for any
	// sane configuration and the Len() check above guarantees progress.
	for visit := 0; visit < 64; visit++ {
		band := d.bands[d.active]
		if band.Len() == 0 {
			d.deficit[d.active] = 0
			d.advance()
			continue
		}
		if !d.credited {
			d.deficit[d.active] += d.quanta[d.active]
			d.credited = true
		}
		head := band.Peek(0)
		if d.deficit[d.active] >= head.Size() {
			d.deficit[d.active] -= head.Size()
			return band.Dequeue()
		}
		d.advance()
	}
	// Degenerate quanta: serve any head to guarantee progress.
	for i := range d.bands {
		if p := d.bands[i].Dequeue(); p != nil {
			return p
		}
	}
	return nil
}

func (d *DRR) advance() {
	d.active = (d.active + 1) % 3
	d.credited = false
}

// Len implements Qdisc.
func (d *DRR) Len() int {
	return d.bands[0].Len() + d.bands[1].Len() + d.bands[2].Len()
}

// Bytes implements Qdisc.
func (d *DRR) Bytes() int {
	return d.bands[0].Bytes() + d.bands[1].Bytes() + d.bands[2].Bytes()
}

// Peek implements Qdisc.
func (d *DRR) Peek(i int) *packet.Packet { return peekBands(&d.bands, i) }
