package vnet

import (
	"testing"

	"mpdp/internal/nf"
	"mpdp/internal/packet"
	"mpdp/internal/sim"
	"mpdp/internal/xrand"
)

// classedPkt builds a packet stamped with the given traffic class via the
// real classifier path (TOS bits).
func classedPkt(t testing.TB, id uint64, class nf.TrafficClass) *packet.Packet {
	t.Helper()
	dstPort := uint16(8080) // default class
	switch class {
	case nf.ClassLatencySensitive:
		dstPort = 80
	case nf.ClassBulk:
		dstPort = 55001
	}
	key := packet.FlowKey{
		SrcIP: packet.IP4(10, 0, 0, byte(id%200+1)), DstIP: packet.IP4(10, 1, 0, 5),
		SrcPort: uint16(20000 + id), DstPort: dstPort, Proto: packet.ProtoUDP,
	}
	p := &packet.Packet{
		ID: id, OrigID: id,
		Data: packet.BuildUDP(key, make([]byte, 200), packet.BuildOpts{}),
		Flow: key, FlowID: key.Hash64(),
	}
	cls := nf.PresetClassifier()
	cls.Process(0, p)
	if got := nf.ClassOf(p); got != class {
		t.Fatalf("test packet classed %v, want %v", got, class)
	}
	return p
}

func TestFIFOOrderAndBounds(t *testing.T) {
	f := NewFIFO(2)
	a := classedPkt(t, 1, nf.ClassDefault)
	b := classedPkt(t, 2, nf.ClassDefault)
	c := classedPkt(t, 3, nf.ClassDefault)
	if !f.Enqueue(a) || !f.Enqueue(b) {
		t.Fatal("admission failed")
	}
	if f.Enqueue(c) {
		t.Fatal("over-capacity admission")
	}
	if f.Len() != 2 || f.Bytes() != a.Size()+b.Size() {
		t.Fatalf("len=%d bytes=%d", f.Len(), f.Bytes())
	}
	if f.Dequeue() != a || f.Dequeue() != b || f.Dequeue() != nil {
		t.Fatal("FIFO order broken")
	}
	if f.Bytes() != 0 {
		t.Fatal("bytes not drained")
	}
}

// scanIDs walks a discipline in Peek order, as Lane.CancelQueued does.
func scanIDs(q Qdisc) []uint64 {
	var ids []uint64
	for i := 0; q.Peek(i) != nil; i++ {
		ids = append(ids, q.Peek(i).ID)
	}
	return ids
}

// The FIFO is a fixed ring: it must keep head-to-tail order and exact
// capacity across any number of wrap-arounds, drop its reference to a
// dequeued packet at once, and never allocate in steady state.
func TestFIFORingWrapsInOrder(t *testing.T) {
	const capacity = 5
	f := NewFIFO(capacity)
	next, want := uint64(1), uint64(1)
	for round := 0; round < 40; round++ {
		for f.Enqueue(classedPkt(t, next, nf.ClassDefault)) {
			next++
		}
		if f.Len() != capacity {
			t.Fatalf("round %d: full ring holds %d, want %d", round, f.Len(), capacity)
		}
		ids := scanIDs(f)
		for i, id := range ids {
			if id != want+uint64(i) {
				t.Fatalf("round %d: scan order %v, want ascending from %d", round, ids, want)
			}
		}
		if f.Peek(capacity) != nil || f.Peek(capacity+3) != nil {
			t.Fatal("Peek past the tail returned a packet")
		}
		for k := 0; k < 1+round%capacity; k++ { // a varying amount, so head lands on every slot
			if p := f.Dequeue(); p.ID != want {
				t.Fatalf("round %d: dequeued %d, want %d", round, p.ID, want)
			}
			want++
		}
	}
	for f.Dequeue() != nil {
	}
	if f.Len() != 0 || f.Bytes() != 0 {
		t.Fatalf("drained ring reports len %d bytes %d", f.Len(), f.Bytes())
	}
	for i, p := range f.ring {
		if p != nil {
			t.Fatalf("slot %d still references packet %d after drain", i, p.ID)
		}
	}

	p := classedPkt(t, 99, nf.ClassDefault)
	if avg := testing.AllocsPerRun(1000, func() {
		f.Enqueue(p)
		f.Dequeue()
	}); avg != 0 {
		t.Fatalf("steady enqueue/dequeue allocates %.1f times per pair", avg)
	}
}

func TestStrictPriorityOrdering(t *testing.T) {
	sp := NewStrictPriority(30)
	bulk := classedPkt(t, 1, nf.ClassBulk)
	def := classedPkt(t, 2, nf.ClassDefault)
	lat := classedPkt(t, 3, nf.ClassLatencySensitive)
	sp.Enqueue(bulk)
	sp.Enqueue(def)
	sp.Enqueue(lat)
	// Dequeue order: latency-sensitive, default, bulk — regardless of
	// arrival order.
	if sp.Dequeue() != lat || sp.Dequeue() != def || sp.Dequeue() != bulk {
		t.Fatal("strict priority order broken")
	}
}

func TestStrictPriorityPerBandCapacity(t *testing.T) {
	sp := NewStrictPriority(6) // 2 per band
	for i := uint64(0); i < 2; i++ {
		if !sp.Enqueue(classedPkt(t, i, nf.ClassBulk)) {
			t.Fatal("bulk admission failed")
		}
	}
	if sp.Enqueue(classedPkt(t, 9, nf.ClassBulk)) {
		t.Fatal("bulk band over capacity")
	}
	// The latency band is unaffected by bulk pressure.
	if !sp.Enqueue(classedPkt(t, 10, nf.ClassLatencySensitive)) {
		t.Fatal("latency band starved of admission")
	}
}

func TestDRRServesProportionally(t *testing.T) {
	d := NewDRR(300, [3]int{3000, 1500, 750})
	// Fill latency and bulk bands heavily.
	for i := uint64(0); i < 40; i++ {
		d.Enqueue(classedPkt(t, i, nf.ClassLatencySensitive))
		d.Enqueue(classedPkt(t, 100+i, nf.ClassBulk))
	}
	counts := map[int]int{}
	for i := 0; i < 40; i++ {
		p := d.Dequeue()
		if p == nil {
			t.Fatal("premature empty")
		}
		counts[classBand(p)]++
	}
	// Quanta 3000:750 => roughly 4:1 service ratio.
	if counts[0] < counts[2]*2 {
		t.Fatalf("DRR ratio off: latency %d vs bulk %d", counts[0], counts[2])
	}
	if counts[2] == 0 {
		t.Fatal("DRR starved bulk entirely")
	}
}

func TestDRRDrainsEverything(t *testing.T) {
	d := NewDRR(300, [3]int{0, 0, 0}) // defaults applied
	total := 0
	for i := uint64(0); i < 30; i++ {
		class := []nf.TrafficClass{nf.ClassLatencySensitive, nf.ClassDefault, nf.ClassBulk}[i%3]
		if d.Enqueue(classedPkt(t, i, class)) {
			total++
		}
	}
	got := 0
	for d.Dequeue() != nil {
		got++
	}
	if got != total {
		t.Fatalf("drained %d of %d", got, total)
	}
	if d.Len() != 0 || d.Bytes() != 0 {
		t.Fatal("residual state after drain")
	}
}

func TestLaneWithStrictPriorityProtectsLatencyClass(t *testing.T) {
	// A lane flooded with bulk packets: with FIFO the latency-sensitive
	// packet waits behind everything; with strict priority it jumps the
	// line.
	run := func(q Qdisc) sim.Duration {
		s := sim.New()
		var latDone sim.Duration
		cfg := LaneConfig{Qdisc: q, Chain: fixedChain(1000), QueueCap: 512}
		l := NewLane(0, s, cfg, xrand.New(1), func(p *packet.Packet, v packet.Verdict) {
			if nf.ClassOf(p) == nf.ClassLatencySensitive {
				latDone = p.QueueWait()
			}
		})
		for i := uint64(0); i < 50; i++ {
			l.Enqueue(classedPkt(t, i, nf.ClassBulk))
		}
		l.Enqueue(classedPkt(t, 99, nf.ClassLatencySensitive))
		s.Run()
		return latDone
	}
	fifoWait := run(NewFIFO(512))
	prioWait := run(NewStrictPriority(1536))
	if prioWait >= fifoWait/10 {
		t.Fatalf("priority wait %v not well below FIFO wait %v", prioWait, fifoWait)
	}
}

func TestLaneCancelQueuedThroughQdisc(t *testing.T) {
	s := sim.New()
	l := NewLane(0, s, LaneConfig{
		Qdisc: NewStrictPriority(30), Chain: fixedChain(1000), QueueCap: 30,
	}, xrand.New(1), nil)
	l.Enqueue(classedPkt(t, 1, nf.ClassDefault)) // serving
	l.Enqueue(classedPkt(t, 2, nf.ClassBulk))
	if !l.CancelQueued(2) {
		t.Fatal("cancel through priority qdisc failed")
	}
	s.Run()
	if l.Stats().CancelSkip != 1 {
		t.Fatal("cancelled packet not skipped")
	}
}
