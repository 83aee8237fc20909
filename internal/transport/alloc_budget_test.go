package transport

import (
	"runtime"
	"testing"
	"time"

	"mpdp/internal/packet"
)

// wireMallocsPerPacket runs a sender and a receiver over two loopback
// paths as a closed loop of 64 packets in flight and returns heap
// allocations per packet over the steady state (set-up and a warm-up that
// grows the receiver's recycled packets to the peak in flight excluded).
func wireMallocsPerPacket(t *testing.T, sched SchedulerName, payload int) float64 {
	t.Helper()
	const window, warm, measured = 64, 2000, 20000
	tokens := make(chan struct{}, window)
	recv, err := Listen(ReceiverConfig{
		Addrs: []string{"127.0.0.1:0", "127.0.0.1:0"},
		Deliver: func(*packet.Packet) {
			select {
			case tokens <- struct{}{}:
			default: // a token written off below came back late
			}
		},
	})
	if err != nil {
		t.Fatalf("Listen: %v", err)
	}
	defer recv.Close()
	var paths []PathConfig
	for _, a := range recv.Addrs() {
		paths = append(paths, PathConfig{RemoteAddr: a})
	}
	send, err := Dial(SenderConfig{Paths: paths, Scheduler: sched, Health: wireHealth()})
	if err != nil {
		t.Fatalf("Dial: %v", err)
	}
	defer send.Close()

	for i := 0; i < window; i++ {
		tokens <- struct{}{}
	}
	data := make([]byte, payload)
	timer := time.NewTimer(time.Hour)
	defer timer.Stop()
	var before, after runtime.MemStats
	for i := 0; i < warm+measured; i++ {
		if i == warm {
			runtime.ReadMemStats(&before)
		}
		timer.Reset(time.Second)
		select {
		case <-tokens:
		case <-timer.C: // a datagram the kernel dropped: write its token off
		}
		if _, err := send.Send(uint64(1+i%8), data); err != nil {
			t.Fatalf("Send: %v", err)
		}
	}
	runtime.ReadMemStats(&after)
	return float64(after.Mallocs-before.Mallocs) / measured
}

// TestWireAllocBudget holds the wire path's allocation cost inside go test
// ./...: hedged 64 B packets (two frames each, one absorbed by dedup) and
// round-robin 1200 B packets. The budget of 0.25 per packet is loose
// against today's figure (about 0.01: acks, the sweeper and the runtime)
// and tight against any reintroduced per-frame allocation — a heap source
// address, a fresh packet or payload copy, an escaping header — each of
// which costs one or two per packet (10 and 5 per packet before the
// receiver recycled its packets).
func TestWireAllocBudget(t *testing.T) {
	for _, tc := range []struct {
		sched   SchedulerName
		payload int
	}{{SchedHedge, 64}, {SchedRoundRobin, 1200}} {
		got := wireMallocsPerPacket(t, tc.sched, tc.payload)
		t.Logf("%s/%dB: %.3f mallocs/packet (budget 0.25)", tc.sched, tc.payload, got)
		if got > 0.25 {
			t.Errorf("%s/%dB: %.3f mallocs per packet, budget 0.25", tc.sched, tc.payload, got)
		}
	}
}

// The receiver takes a delivered packet back once Deliver returns: a long
// run circulates about as many Packet structs as were ever in flight, not
// one per frame, and every payload still arrives intact.
func TestReceiverRecyclesPackets(t *testing.T) {
	seen := map[*packet.Packet]bool{} // Deliver runs on the driver goroutine only
	bad := 0
	rep, err := RunLoopback(LoopbackConfig{
		Paths:   2,
		Packets: 5000,
		Payload: 64,
		Window:  32,
		Health:  wireHealth(),
		OnDeliver: func(p *packet.Packet) {
			seen[p] = true
			if len(p.Data) != 64 {
				bad++
				return
			}
			for i, b := range p.Data {
				if b != byte(i) {
					bad++
					return
				}
			}
		},
	})
	if err != nil {
		t.Fatalf("RunLoopback: %v", err)
	}
	if err := rep.Verify(); err != nil {
		t.Fatalf("invariants: %v", err)
	}
	if bad != 0 {
		t.Fatalf("%d recycled packets arrived corrupted", bad)
	}
	if len(seen) == 0 || len(seen) > int(rep.Delivered)/4 {
		t.Fatalf("%d distinct packets for %d deliveries: the receiver is not recycling", len(seen), rep.Delivered)
	}
}
