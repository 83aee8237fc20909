package main

import (
	"sync/atomic"
	"time"

	"mpdp/internal/core"
	"mpdp/internal/packet"
	"mpdp/internal/sim"
	"mpdp/internal/transport"
	"mpdp/internal/xrand"
)

type wireParams struct {
	sched   transport.SchedulerName
	payload int
	flows   int
	clients int
}

// flowRing slots per flow outlast any window used here (at most 256 in flight).
const flowRing = 1024

// flowClock remembers when each in-flight (flow, seq) was sent. The sender
// numbers a flow's packets 0, 1, 2, ... in submission order, so the
// generator knows a packet's seq before Send assigns it and can stamp
// sent_at first.
type flowClock struct {
	next   []uint64
	sentAt [][flowRing]atomic.Int64
}

func newFlowClock(flows int) *flowClock {
	return &flowClock{next: make([]uint64, flows), sentAt: make([][flowRing]atomic.Int64, flows)}
}

func (fc *flowClock) stamp(flow int, t int64) {
	fc.sentAt[flow][fc.next[flow]%flowRing].Store(t)
	fc.next[flow]++
}

func (fc *flowClock) sent(flow int, seq uint64) int64 { return fc.sentAt[flow][seq%flowRing].Load() }

// flowOrder is the seeded sequence of flow indices the generator cycles.
func flowOrder(rng *xrand.Rand, flows int) []int {
	order := make([]int, 4096)
	for i := range order {
		order[i] = rng.Intn(flows)
	}
	return order
}

func seededPayload(rng *xrand.Rand, n int) []byte {
	b := make([]byte, n)
	for i := range b {
		b[i] = byte(rng.Intn(256))
	}
	return b
}

// wireHealth is mpdp-gateway's health tuning for a real wire, so the
// benchmark runs the sender the way the binary does: the core defaults
// (1 ms suspect timeout) quarantine healthy loopback paths on every
// scheduler stall or GC pause, and hedging then flaps between 1 and 2 copies.
func wireHealth() core.HealthConfig {
	return core.HealthConfig{
		SuspectTimeout:    sim.Duration(200 * time.Millisecond),
		QuarantineBackoff: sim.Duration(50 * time.Millisecond),
		ProbeSuccesses:    8,
		DropWindowMin:     64,
	}
}

// runWire drives a transport Sender/Receiver pair over two loopback UDP
// paths with the Verifier armed. Flow IDs are 1..flows.
func runWire(m *meter, p wireParams) error {
	rng := xrand.New(m.rc.Seed)
	order := flowOrder(rng, p.flows)
	payload := seededPayload(rng, p.payload)
	clock := newFlowClock(p.flows)

	var spans *transport.Spans
	if m.rc.taps() {
		spans = transport.NewSpans(nil)
	}
	verifier := transport.NewVerifier()
	var loop closedLoop
	rec := newRecorder()
	recv, err := transport.Listen(transport.ReceiverConfig{
		Addrs:    []string{"127.0.0.1:0", "127.0.0.1:0"},
		Spans:    spans,
		Verifier: verifier,
		Deliver: func(pk *packet.Packet) {
			loop.delivered(rec, clock.sent(int(pk.FlowID-1), pk.Seq))
		},
	})
	if err != nil {
		return err
	}
	var paths []transport.PathConfig
	for _, a := range recv.Addrs() {
		paths = append(paths, transport.PathConfig{RemoteAddr: a})
	}
	send, err := transport.Dial(transport.SenderConfig{
		Paths: paths, Scheduler: p.sched, HedgeK: 2, Health: wireHealth(), Spans: spans, Verifier: verifier,
	})
	if err != nil {
		recv.Close() // teardown on the error path: the dial error is the one to report
		return err
	}

	res := m.res
	var ss0 transport.SenderStats
	var rs0 transport.ReceiverStats
	loop.onBegin = func() { ss0, rs0 = send.Stats(), recv.Stats() }
	var sendErrs uint64
	i := 0
	loop.run(m, p.clients, func(t int64) {
		flow := order[i%len(order)]
		i++
		clock.stamp(flow, t)
		if _, err := send.Send(uint64(flow+1), payload); err != nil {
			sendErrs++
		}
	})
	ss1, rs1 := send.Stats(), recv.Stats()
	if err := send.Close(); err != nil {
		return err
	}
	if err := recv.Close(); err != nil {
		return err
	}

	m.latency(rec)
	pkts := float64(ss1.Packets - ss0.Packets)
	res.E2E["tx_bytes_ratio"] = 1 + float64(ss1.DupBytes-ss0.DupBytes)/(pkts*float64(p.payload))
	m.finish(res.Delivered)

	if err := verifier.Finish(); err != nil {
		res.fail("%v", err)
	}
	if sendErrs > 0 {
		res.fail("%d sends returned an error", sendErrs)
	}
	res.Layer["transport.frames_per_pkt"] = float64(ss1.Frames-ss0.Frames) / pkts
	res.Layer["transport.dup_drops_per_pkt"] = float64(rs1.DupDrops-rs0.DupDrops) / pkts
	res.Layer["transport.lost_per_mpkt"] = float64(rs1.Reorder.GapSkipped-rs0.Reorder.GapSkipped) / pkts * 1e6
	if m.rc.taps() {
		sc := nanosToMicros(loop.sendSpans.samples, 0.50, 0.99)
		res.Layer["transport.send_call_p50_us"], res.Layer["transport.send_call_p99_us"] = sc[0], sc[1]
		for _, sp := range spans.StageSnapshot() {
			p50, p99 := float64(sp.Latency.P50)/1e3, float64(sp.Latency.P99)/1e3
			switch sp.Stage {
			case "socket_write":
				res.Layer["transport.socket_write_p50_us"] = p50
				fallthrough
			case "encode", "socket_read", "reorder", "deliver":
				res.Layer["transport."+sp.Stage+"_p99_us"] = p99
			}
		}
	}
	return nil
}
