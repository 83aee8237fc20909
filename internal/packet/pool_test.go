package packet

import (
	"bytes"
	"testing"
	"unsafe"
)

// The wire receiver and the live benchmark allocate one Packet per frame, so
// its size class is part of their allocation cost: the pool's mark lives in
// the struct's tail padding, and nothing else may push it past 144 bytes.
func TestPacketSizeClass(t *testing.T) {
	if got := unsafe.Sizeof(Packet{}); got > 144 {
		t.Fatalf("Packet is %d bytes; more than 144 moves every per-frame allocation up a size class", got)
	}
}

func TestPoolRecyclesStructAndBuffer(t *testing.T) {
	pl := new(Pool)
	p := pl.Get(100)
	if len(p.Data) != 100 || p.ID != 0 || p.PathID != 0 {
		t.Fatalf("fresh packet not zero: %+v", p)
	}
	for i := range p.Data {
		p.Data[i] = 0xee
	}
	p.ID, p.Seq, p.IsDup, p.Dropped = 7, 9, true, DropPolicy
	buf := &p.Data[0]
	pl.Put(p)

	q := pl.Get(60)
	if q != p || &q.Data[0] != buf {
		t.Fatal("Get after Put did not reuse the struct and its buffer")
	}
	if q.ID != 0 || q.Seq != 0 || q.IsDup || q.Dropped != NotDropped {
		t.Fatalf("recycled packet carries old metadata: %+v", q)
	}
	if len(q.Data) != 60 || !bytes.Equal(q.Data, make([]byte, 60)) {
		t.Fatalf("recycled frame not zeroed: % x", q.Data)
	}
	pl.Put(q)

	// A request beyond the buffer's capacity gets a new one of the right size.
	big := pl.Get(1500)
	if big != p || len(big.Data) != 1500 {
		t.Fatalf("grown packet: same struct %v, len %d", big == p, len(big.Data))
	}
	if minted, released := pl.Counts(); minted != 3 || released != 2 {
		t.Fatalf("counts = %d minted, %d released; want 3, 2", minted, released)
	}
}

func TestPoolIgnoresUnpooledPackets(t *testing.T) {
	pl := new(Pool)
	lit := &Packet{Data: []byte{1}} // a literal: no pool minted it
	pl.Put(lit)
	var none *Pool
	orphan := none.Get(10) // a nil pool mints plain heap packets...
	none.Put(orphan)       // ...and takes nothing back
	pl.Put(orphan)
	copied := *pl.Get(10) // a value copy of a live pooled packet is still the holder's business
	if _, released := pl.Counts(); released != 0 {
		t.Fatalf("pool took in %d packets it did not mint", released)
	}
	if got := pl.Get(10); got == orphan || got == lit || got == &copied {
		t.Fatal("pool handed out a packet it never owned")
	}
}

func TestPoolDoublePutPanics(t *testing.T) {
	pl := new(Pool)
	p := pl.Get(10)
	pl.Put(p)
	defer func() {
		if recover() == nil {
			t.Fatal("second Put of the same packet did not panic")
		}
	}()
	pl.Put(p)
}

func TestCloneDrawsFromThePool(t *testing.T) {
	pl := new(Pool)
	p := pl.Get(64)
	spare := pl.Get(200)
	spareBuf := &spare.Data[0]
	pl.Put(spare)

	p.ID, p.OrigID, p.FlowID, p.Seq = 5, 5, 77, 3
	p.Data[0] = 0xab
	c := pl.Clone(p, 6)
	if c != spare || &c.Data[0] != spareBuf {
		t.Fatal("Clone did not draw the free packet and its buffer")
	}
	if c.ID != 6 || c.OrigID != 5 || c.FlowID != 77 || c.Seq != 3 || !c.IsDup {
		t.Fatalf("clone metadata: %+v", c)
	}
	if !bytes.Equal(c.Data, p.Data) || &c.Data[0] == &p.Data[0] {
		t.Fatal("clone must copy the frame into its own buffer")
	}
	// Both go back independently, exactly once each.
	pl.Put(p)
	pl.Put(c)
	if minted, released := pl.Counts(); minted != 3 || released != 3 {
		t.Fatalf("counts = %d minted, %d released; want 3, 3", minted, released)
	}

	// A hand-built original clones into the pool all the same, and a nil
	// pool clones onto the heap.
	lit := &Packet{ID: 1, Data: []byte{1, 2, 3}}
	d := pl.Clone(lit, 2)
	if d != c || d.ID != 2 || !bytes.Equal(d.Data, lit.Data) {
		t.Fatalf("pooled clone of a literal: %+v", d)
	}
	var none *Pool
	if h := none.Clone(lit, 3); h.ID != 3 || !bytes.Equal(h.Data, lit.Data) || &h.Data[0] == &lit.Data[0] {
		t.Fatalf("heap clone: %+v", h)
	}
}

func TestPoolPoison(t *testing.T) {
	pl := new(Pool)
	pl.Poison()
	p := pl.Get(32)
	p.ID = 1
	pl.Put(p)
	if p.ID != ^uint64(0) || p.Data != nil || p.Dropped != 0xff || p.Latency() >= 0 {
		t.Fatalf("released packet not poisoned: %+v", p)
	}
	q := pl.Get(32)
	if q != p || q.ID != 0 || len(q.Data) != 32 || q.Dropped != NotDropped {
		t.Fatalf("packet after poison not restored: %+v", q)
	}
}

func TestPoolSteadyStateAllocatesNothing(t *testing.T) {
	pl := new(Pool)
	pl.Put(pl.Get(1500))
	if avg := testing.AllocsPerRun(1000, func() {
		p := pl.Get(700)
		c := pl.Clone(p, 2)
		pl.Put(c)
		pl.Put(p)
	}); avg > 0 {
		// The clone's first buffer is the one warm-up allocation.
		t.Fatalf("Get/Clone/Release allocates %.2f times per cycle in steady state", avg)
	}
}
