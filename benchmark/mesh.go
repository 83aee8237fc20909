package main

import (
	"math"
	"sync/atomic"
	"time"

	"mpdp/internal/invariant"
	"mpdp/internal/mesh"
	"mpdp/internal/transport"
	"mpdp/internal/xrand"
)

const (
	meshFlows   = 32
	meshClients = 64
	meshPayload = 256
)

// runMesh drives two mesh nodes and one steering client over loopback UDP,
// hedged, with one shared stream checker, and gracefully drains node 2
// half-way through the measured window so half the flows change owner
// while traffic keeps flowing. Flow IDs are 0..31.
func runMesh(m *meter) error {
	rng := xrand.New(m.rc.Seed)
	order := flowOrder(rng, meshFlows)
	payload := seededPayload(rng, meshPayload)
	clock := newFlowClock(meshFlows)
	checker := invariant.NewStream()

	var loop closedLoop
	var drainAt atomic.Int64 // sent_at threshold: later packets saw the drain
	drainAt.Store(math.MaxInt64)
	// Each node's OnDeliver runs under that node's lock, so one pair of
	// recorders per node needs no lock of its own.
	type nodeRecs struct{ pre, post *recorder }
	var recs []nodeRecs
	var nodes []*mesh.Node
	closeNodes := func() {
		for _, n := range nodes {
			n.Close() // teardown: nothing to do about a failed close; idempotent after Drain
		}
	}
	for id := 1; id <= 2; id++ {
		nr := nodeRecs{newRecorder(), newRecorder()}
		recs = append(recs, nr)
		n, err := mesh.NewNode(mesh.NodeConfig{
			ID: mesh.NodeID(id), DataPaths: 2, Checker: checker,
			OnDeliver: func(flow, seq uint64, _ int64) {
				sentAt := clock.sent(int(flow), seq)
				if sentAt < drainAt.Load() {
					loop.delivered(nr.pre, sentAt)
				} else {
					loop.delivered(nr.post, sentAt)
				}
			},
		})
		if err != nil {
			closeNodes()
			return err
		}
		nodes = append(nodes, n)
	}
	client, err := mesh.NewClient(mesh.ClientConfig{
		ID: 1000, Scheduler: transport.SchedHedge, HedgeK: 2, Health: wireHealth(), Checker: checker,
	})
	if err != nil {
		closeNodes()
		return err
	}
	seed := []mesh.Member{nodes[0].Member(), nodes[1].Member(), client.Member()}
	for _, n := range nodes {
		n.Start(seed)
	}
	if err := client.Start(seed); err != nil {
		closeNodes()
		return err
	}

	res := m.res
	var dupBytes0, packets0 uint64
	loop.onBegin = func() { packets0, dupBytes0 = meshSenderTotals(client) }
	drained := make(chan struct{})
	var drainErr error
	var drainTook time.Duration
	startDrain := func(t int64) {
		drainAt.Store(t)
		go func() {
			defer close(drained)
			t0 := time.Now()
			drainErr = nodes[1].Drain()
			drainTook = time.Since(t0)
		}()
	}
	var sendErrs uint64
	i := 0
	loop.run(m, meshClients, func(t int64) {
		if drainAt.Load() == math.MaxInt64 && t-loop.start.Load() >= int64(m.rc.Measure/2) {
			startDrain(t)
		}
		flow := order[i%len(order)]
		i++
		clock.stamp(flow, t)
		if _, _, err := client.Send(uint64(flow), payload); err != nil {
			sendErrs++
		}
	})
	if drainAt.Load() == math.MaxInt64 {
		startDrain(now())
	}
	<-drained
	packets1, dupBytes1 := meshSenderTotals(client)
	resteers := client.Resteers()
	if err := client.Close(); err != nil {
		closeNodes()
		return err
	}
	closeNodes()

	m.latency(recs[0].pre, recs[0].post, recs[1].pre, recs[1].post)
	pkts := float64(packets1 - packets0)
	res.E2E["tx_bytes_ratio"] = 1 + float64(dupBytes1-dupBytes0)/(pkts*float64(meshPayload+mesh.EnvelopeLen))
	m.finish(res.Delivered)

	var handoffFlows, handoffTimeouts, forwarded uint64
	for _, n := range nodes {
		st := n.Stats()
		handoffFlows += st.HandoffFlowsOut
		handoffTimeouts += st.HandoffTimeouts + st.HandoffUnacked
		forwarded += st.ForwardedOut
	}
	if err := checker.Finish(); err != nil {
		res.fail("%v", err)
	}
	if drainErr != nil {
		res.fail("drain: %v", drainErr)
	}
	if handoffFlows == 0 {
		res.fail("the drain moved no flow state")
	}
	if handoffTimeouts > 0 {
		res.fail("%d handoff records timed out or went unacked", handoffTimeouts)
	}
	if sendErrs > 0 {
		res.fail("%d sends returned an error", sendErrs)
	}
	pre := append(append([]int32(nil), recs[0].pre.samples...), recs[1].pre.samples...)
	res.Layer["mesh.lat_p99_pre_drain_us"] = nanosToMicros(pre, 0.99)[0]
	res.Layer["mesh.resteers"] = float64(resteers)
	res.Layer["mesh.forwarded_per_mpkt"] = float64(forwarded) / pkts * 1e6
	res.Layer["mesh.handoff_flows"] = float64(handoffFlows)
	res.Layer["mesh.drain_ms"] = drainTook.Seconds() * 1e3
	if m.rc.taps() {
		sc := nanosToMicros(loop.sendSpans.samples, 0.50, 0.99)
		res.Layer["mesh.send_call_p50_us"], res.Layer["mesh.send_call_p99_us"] = sc[0], sc[1]
	}
	return nil
}

// meshSenderTotals sums the client's per-node transport senders.
func meshSenderTotals(c *mesh.Client) (packets, dupBytes uint64) {
	for _, st := range c.SenderStats() {
		packets += st.Packets
		dupBytes += st.DupBytes
	}
	return packets, dupBytes
}
