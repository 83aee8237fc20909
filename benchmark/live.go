package main

import (
	"sync/atomic"

	"mpdp/internal/live"
	"mpdp/internal/nf"
	"mpdp/internal/packet"
	"mpdp/internal/workload"
	"mpdp/internal/xrand"
)

const (
	liveFrames  = 65536 // pre-built frames, cycled
	liveFlows   = 64
	liveClients = 64
)

// runLive drives the goroutine engine: pre-built IMIX frames over 64 flows
// pushed through live.Engine.Ingress by 64 closed-loop clients.
func runLive(m *meter) error {
	rng := xrand.New(m.rc.Seed)
	gen := workload.NewTraffic(workload.TrafficConfig{
		Arrival: workload.CBR{Gap: 1}, // unused: the window paces
		Size:    workload.IMIX{Rng: rng.Split()},
		Flows:   liveFlows,
		Rng:     rng.Split(),
	})
	// The chain mutates frames (the router decrements TTL) and the engine
	// owns a packet until it delivers it, so every send is a fresh copy of a
	// pristine frame — what an RX ring hands a data plane. The copy is the
	// generator's constant 2 mallocs per packet.
	pristine := make([]packet.Packet, liveFrames)
	for i := range pristine {
		pristine[i] = *gen.NextPacket()
		pristine[i].ID = uint64(i)
	}
	sentAt := make([]atomic.Int64, liveFrames)

	var loop closedLoop
	rec := newRecorder()
	eng, err := live.Start(live.Config{
		Paths:        2,
		ChainFactory: func(int) *nf.Chain { return nf.PresetChain(3) },
		Policy:       live.PolicyFlowlet,
		DisableSpans: !m.rc.taps(),
	}, func(p *packet.Packet) {
		loop.delivered(rec, sentAt[p.ID].Load())
	})
	if err != nil {
		return err
	}

	next := 0
	loop.run(m, liveClients, func(t int64) {
		p := new(packet.Packet)
		*p = pristine[next]
		p.Data = append([]byte(nil), p.Data...)
		sentAt[next].Store(t)
		eng.Ingress(p)
		next = (next + 1) % liveFrames
	})
	eng.Close()

	res := m.res
	m.latency(rec)
	res.E2E["tx_bytes_ratio"] = 1 // the live engine does not duplicate
	m.finish(res.Delivered)

	st := eng.Snapshot()
	var served uint64
	for _, n := range st.PerLane {
		served += n
	}
	if served+st.TailDrops != st.Offered {
		res.fail("conservation: served %d + tail drops %d != offered %d", served, st.TailDrops, st.Offered)
	}
	if m.rc.taps() {
		p := nanosToMicros(loop.sendSpans.samples, 0.50)
		res.Layer["live.ingress_call_p50_us"] = p[0]
		for _, sp := range eng.StageSnapshot() {
			switch sp.Stage {
			case "dispatch", "queue_wait", "service", "reorder_wait":
				res.Layer["live."+sp.Stage+"_p99_us"] = float64(sp.Latency.P99) / 1e3
			}
		}
	}
	return nil
}
