package mesh

import (
	"fmt"
	"net"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"mpdp/internal/core"
	"mpdp/internal/invariant"
	"mpdp/internal/live"
	"mpdp/internal/packet"
	"mpdp/internal/sim"
	"mpdp/internal/stats"
	"mpdp/internal/transport"
)

// NodeConfig parameterizes one mesh gateway node.
type NodeConfig struct {
	// ID is the node's mesh identity (must be unique; < NodeNone).
	ID NodeID
	// DataPaths is the number of UDP data paths to listen on (default 2).
	DataPaths int
	// ControlAddr is the gossip/handoff socket bind address
	// (default 127.0.0.1:0).
	ControlAddr string
	// GossipInterval paces anti-entropy pushes (default 25ms).
	GossipInterval time.Duration
	// SuspectAfter marks a quiet data peer suspect (default 40 gossip
	// intervals); DeadAfter declares it left (default 0 = never — the
	// hermetic harness drains gracefully, so unilateral declarations
	// stay opt-in).
	SuspectAfter time.Duration
	DeadAfter    time.Duration
	// ReorderTimeout is the transport receiver's gap timeout (default 5ms).
	ReorderTimeout time.Duration
	// HandoffTimeout promotes a flow whose handoff record never arrived
	// (default 500ms). Promotion is safe — see flowtable.go — but counted,
	// because in a graceful drain it should never fire.
	HandoffTimeout time.Duration
	// DrainSettle is how long Drain waits between announcing departure
	// and serializing state, covering gossip propagation to the client
	// plus in-flight frames and reorder flushes
	// (default 4×ReorderTimeout + 3×GossipInterval, floor 150ms).
	DrainSettle time.Duration
	// Deadline, when > 0, scores every delivery hit/miss against this
	// per-packet budget; the residue counters ride the handoff record.
	Deadline time.Duration
	// Health tunes the per-data-path health machines (receive-driven:
	// each delivered frame feeds its path's tracker, and Maintain runs
	// on the gossip tick, so a path that goes quiet walks the
	// up→quarantined→probing machine and the state counts are gossiped).
	Health core.HealthConfig
	// SLO, when non-empty, attaches a burn-rate tracker (live.ParseSLO
	// syntax) whose state and fastest burn are gossiped for per-mesh
	// aggregation.
	SLO string
	// Checker, when non-nil, is the shared mesh-wide stream invariant
	// checker; every local delivery is noted.
	Checker *invariant.Stream
	// OnDeliver, when non-nil, observes every in-order mesh delivery.
	// Called with the node's internal lock held: keep it cheap and do
	// not call back into the node.
	OnDeliver func(flow, seq uint64, latencyNanos int64)
}

func (c *NodeConfig) fillDefaults() {
	if c.DataPaths == 0 {
		c.DataPaths = 2
	}
	if c.ControlAddr == "" {
		c.ControlAddr = "127.0.0.1:0"
	}
	if c.GossipInterval == 0 {
		c.GossipInterval = 25 * time.Millisecond
	}
	if c.SuspectAfter == 0 {
		c.SuspectAfter = 40 * c.GossipInterval
	}
	if c.ReorderTimeout == 0 {
		c.ReorderTimeout = 5 * time.Millisecond
	}
	if c.HandoffTimeout == 0 {
		c.HandoffTimeout = 500 * time.Millisecond
	}
	if c.DrainSettle == 0 {
		c.DrainSettle = 4*c.ReorderTimeout + 3*c.GossipInterval
		if c.DrainSettle < 150*time.Millisecond {
			c.DrainSettle = 150 * time.Millisecond
		}
	}
}

// Node is one mesh gateway: a transport receiver for owned-flow data, a
// control socket for gossip and handoff, the flow table, and the view.
type Node struct {
	cfg  NodeConfig
	ctrl *net.UDPConn
	recv *transport.Receiver
	e2e  *live.Histogram
	slo  *live.SLOTracker

	mu         sync.Mutex
	view       *View
	steer      *Steering
	table      *flowTable
	fwdTo      map[uint64]NodeID // flows handed off: later arrivals relay here
	peerAddr   map[NodeID]*net.UDPAddr
	health     []*core.HealthTracker // one per data path, receive-driven
	acked      map[uint64]bool       // handoff record seqs acked by their target
	leaving    bool
	recvClosed bool
	ticks      uint64

	delivered         atomic.Uint64
	gaps              atomic.Uint64
	dupSuppressed     atomic.Uint64
	staleSteers       atomic.Uint64
	forwardedOut      atomic.Uint64
	forwardedIn       atomic.Uint64
	handoffFlowsOut   atomic.Uint64
	handoffFlowsIn    atomic.Uint64
	handoffRecords    atomic.Uint64
	handoffTimeouts   atomic.Uint64
	handoffUnacked    atomic.Uint64
	overflowDropped   atomic.Uint64
	migratedDelivered atomic.Uint64
	deadlineHits      atomic.Uint64
	deadlineMisses    atomic.Uint64

	stop      chan struct{}
	wg        sync.WaitGroup
	closeOnce sync.Once
	closeErr  error
}

// NewNode binds the node's sockets (ephemeral addresses are readable via
// DataAddrs/ControlAddr afterwards) but does not join a mesh yet — call
// Start with the seed membership.
func NewNode(cfg NodeConfig) (*Node, error) {
	cfg.fillDefaults()
	if cfg.ID == NodeNone {
		return nil, fmt.Errorf("mesh: node ID %d is the reserved sentinel", cfg.ID)
	}
	n := &Node{
		cfg:      cfg,
		e2e:      live.NewHistogram(),
		view:     NewView(cfg.ID),
		table:    newFlowTable(),
		fwdTo:    make(map[uint64]NodeID),
		peerAddr: make(map[NodeID]*net.UDPAddr),
		acked:    make(map[uint64]bool),
		stop:     make(chan struct{}),
	}
	if cfg.SLO != "" {
		obj, err := live.ParseSLO(cfg.SLO)
		if err != nil {
			return nil, fmt.Errorf("mesh: node %d: %w", cfg.ID, err)
		}
		n.slo = live.NewSLOTracker(obj, nil)
	}
	laddr, err := net.ResolveUDPAddr("udp", cfg.ControlAddr)
	if err != nil {
		return nil, fmt.Errorf("mesh: node %d control addr: %w", cfg.ID, err)
	}
	n.ctrl, err = net.ListenUDP("udp", laddr)
	if err != nil {
		return nil, fmt.Errorf("mesh: node %d control socket: %w", cfg.ID, err)
	}
	addrs := make([]string, cfg.DataPaths)
	for i := range addrs {
		addrs[i] = "127.0.0.1:0"
	}
	n.health = make([]*core.HealthTracker, cfg.DataPaths)
	for i := range n.health {
		n.health[i] = core.NewHealthTracker(cfg.Health)
	}
	n.recv, err = transport.Listen(transport.ReceiverConfig{
		Addrs:          addrs,
		ReorderTimeout: cfg.ReorderTimeout,
		Deliver:        n.onTransportDeliver,
		OnLost:         n.onTransportLost,
	})
	if err != nil {
		n.ctrl.Close() //lint:allow erroreat teardown on the error path
		return nil, fmt.Errorf("mesh: node %d data receiver: %w", cfg.ID, err)
	}
	return n, nil
}

// DataAddrs returns the bound data-path addresses.
func (n *Node) DataAddrs() []string { return n.recv.Addrs() }

// ControlAddr returns the bound control socket address.
func (n *Node) ControlAddr() string { return n.ctrl.LocalAddr().String() }

// ID returns the node's mesh identity.
func (n *Node) ID() NodeID { return n.cfg.ID }

// Member returns this node's self-describing membership row.
func (n *Node) Member() Member {
	return Member{
		ID:          n.cfg.ID,
		State:       MemberAlive,
		Role:        RoleData,
		ControlAddr: n.ControlAddr(),
		DataAddrs:   n.DataAddrs(),
	}
}

// Start seeds the membership view and launches the control loops.
func (n *Node) Start(seed []Member) {
	n.mu.Lock()
	n.view.Seed(seed, transport.NowNanos())
	n.steer = n.view.Steering()
	n.mu.Unlock()
	n.wg.Add(2)
	go n.ctrlLoop()
	go n.gossipLoop()
}

// Epoch returns the node's current membership epoch.
func (n *Node) Epoch() uint64 {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.view.Epoch()
}

// onTransportDeliver is the transport receiver's in-order delivery
// callback (reorder driver goroutine).
func (n *Node) onTransportDeliver(p *packet.Packet) {
	env, payload, err := DecodeEnvelope(p.Data)
	if err != nil {
		return // not mesh traffic; drop
	}
	pathID := p.PathID
	sendNanos := int64(p.Ingress)
	target, datagram := n.arrive(env.Seq, p.FlowID, sendNanos, payload, env.Epoch, env.PrevOwner, pathID)
	n.relay(target, datagram)
}

// onTransportLost feeds wire-level conclusive losses to the SLO tracker.
func (n *Node) onTransportLost(p *packet.Packet) {
	if n.slo != nil {
		n.slo.ObserveLoss()
	}
}

// arrive runs one mesh frame through the ownership decision tree and
// returns a relay action (target + encoded datagram) to perform outside
// the lock, or (NodeNone, nil).
func (n *Node) arrive(seq, flow uint64, sendNanos int64, payload []byte, epoch uint64, prev NodeID, pathID int) (NodeID, []byte) {
	now := transport.NowNanos()
	n.mu.Lock()
	defer n.mu.Unlock()

	if pathID >= 0 && pathID < len(n.health) {
		// Receive-driven health: a frame on path i is one unit of proven
		// liveness for it; Maintain (gossip tick) walks quiet paths down.
		t := n.health[pathID]
		t.ObserveSent(sim.Time(now), 1)
		t.ObserveAck(sim.Time(now), 1, 0)
	}

	// 1. Handed off: this node no longer owns the flow; relay to the
	// inheritor. A frame that also carries a stale epoch is a stale
	// steering decision (the client hadn't seen the new view yet).
	if target, ok := n.fwdTo[flow]; ok {
		if epoch < n.view.Epoch() {
			n.staleSteers.Add(1)
		}
		n.forwardedOut.Add(1)
		return target, n.encodeForward(flow, seq, sendNanos, payload)
	}

	// 2. Known flow: straight through the cursor — unless we have
	// announced leave. After the epoch bump the client re-steers and the
	// flow's new owner may lawfully start delivering (its buffer can
	// overflow-drop or its HandoffTimeout can promote) before our export
	// lands, so a draining owner surfacing backlog here would deliver
	// behind the successor — the exact cross-node reordering E25 forbids.
	// Park the frame instead; it rides the export as a forward.
	if e, ok := n.table.entries[flow]; ok {
		if n.leaving {
			n.parkLocked(e, seq, sendNanos, payload)
			return NodeNone, nil
		}
		n.deliverLocked(e, flow, seq, sendNanos, now)
		return NodeNone, nil
	}

	// 3. Already buffering for this flow's inbound handoff record.
	if _, ok := n.table.pending[flow]; ok {
		n.bufferLocked(flow, prev, seq, sendNanos, payload, now)
		return NodeNone, nil
	}

	// 4. Stale steer: the frame was steered under an older epoch and this
	// node is not the owner under the current one — detected, not
	// silently delivered; relay to the true owner.
	if owner := n.steer.Owner(flow); owner != n.cfg.ID && owner != NodeNone && epoch < n.steer.Epoch() {
		n.staleSteers.Add(1)
		n.forwardedOut.Add(1)
		return owner, n.encodeForward(flow, seq, sendNanos, payload)
	}

	// 5. Re-steered flow announcing a previous owner: state is in flight
	// from it; buffer until the handoff record installs the cursor.
	if prev != NodeNone && prev != n.cfg.ID {
		n.bufferLocked(flow, prev, seq, sendNanos, payload, now)
		return NodeNone, nil
	}

	// 6. New flow: the first-seen seq opens the cursor (parked, not
	// delivered, when we are already leaving — see step 2).
	e := &flowEntry{next: seq}
	n.table.entries[flow] = e
	if n.leaving {
		n.parkLocked(e, seq, sendNanos, payload)
		return NodeNone, nil
	}
	n.deliverLocked(e, flow, seq, sendNanos, now)
	return NodeNone, nil
}

// parkLocked holds a post-announce arrival on a draining owner's entry
// until the export forwards it to the flow's inheritor. Bounded like the
// pending buffer; overflow drops the frame (a legal wire loss).
func (n *Node) parkLocked(e *flowEntry, seq uint64, sendNanos int64, payload []byte) {
	if len(e.parked) >= maxPendingFrames {
		n.overflowDropped.Add(1)
		return
	}
	cp := make([]byte, len(payload))
	copy(cp, payload)
	e.parked = append(e.parked, pendingFrame{seq: seq, sendNanos: sendNanos, payload: cp})
}

// bufferLocked holds a frame for a pending handoff. A full buffer drops
// the frame — a bounded, legal wire loss — rather than promoting: the
// record's origin may merely be slow, and a promotion racing an owner
// that still surfaces backlog would reorder the flow across nodes.
// Promotion is reserved for the HandoffTimeout sweep, by which point the
// origin has either parked everything behind its announce or died.
func (n *Node) bufferLocked(flow uint64, from NodeID, seq uint64, sendNanos int64, payload []byte, now int64) {
	if !n.table.buffer(flow, from, seq, sendNanos, payload, now) {
		n.overflowDropped.Add(1)
	}
}

// promoteLocked gives up waiting for a handoff record: the flow's cursor
// opens at the smallest buffered seq (safe — see flowtable.go) and the
// buffer drains through it.
func (n *Node) promoteLocked(flow uint64, now int64) {
	frames := n.table.takePending(flow)
	if len(frames) == 0 {
		return
	}
	e := &flowEntry{next: frames[0].seq}
	n.table.entries[flow] = e
	for i := range frames {
		n.deliverLocked(e, flow, frames[i].seq, frames[i].sendNanos, now)
	}
}

// deliverLocked surfaces one frame through the cursor: dedup below it,
// in-order delivery and gap accounting at or above it.
func (n *Node) deliverLocked(e *flowEntry, flow, seq uint64, sendNanos, now int64) {
	deliver, gap := e.admit(seq)
	if !deliver {
		n.dupSuppressed.Add(1)
		return
	}
	if gap > 0 {
		n.gaps.Add(gap)
	}
	n.delivered.Add(1)
	if e.migrated {
		n.migratedDelivered.Add(1)
	}
	lat := now - sendNanos
	n.e2e.Record(lat)
	if n.slo != nil {
		n.slo.ObserveDelivery(lat)
	}
	if d := n.cfg.Deadline; d > 0 {
		if lat <= d.Nanoseconds() {
			e.deadlineHits++
			n.deadlineHits.Add(1)
		} else {
			e.deadlineMisses++
			n.deadlineMisses.Add(1)
		}
	}
	if n.cfg.Checker != nil {
		n.cfg.Checker.NoteDelivered(flow, seq)
	}
	if n.cfg.OnDeliver != nil {
		n.cfg.OnDeliver(flow, seq, lat)
	}
}

// encodeForward builds the relay datagram. Caller holds n.mu.
func (n *Node) encodeForward(flow, seq uint64, sendNanos int64, payload []byte) []byte {
	buf, err := AppendForward(nil, &Forward{
		Origin:    n.cfg.ID,
		Epoch:     n.view.Epoch(),
		FlowID:    flow,
		Seq:       seq,
		SendNanos: sendNanos,
		Payload:   payload,
	})
	if err != nil {
		return nil
	}
	return buf
}

// relay sends one control datagram to a peer's control socket.
func (n *Node) relay(target NodeID, datagram []byte) {
	if target == NodeNone || datagram == nil {
		return
	}
	addr := n.resolvePeer(target)
	if addr == nil {
		return
	}
	n.ctrl.WriteToUDP(datagram, addr) //lint:allow erroreat best-effort relay; the cursor makes retries unnecessary
}

// resolvePeer returns a peer's control address, caching resolutions.
func (n *Node) resolvePeer(id NodeID) *net.UDPAddr {
	n.mu.Lock()
	if a, ok := n.peerAddr[id]; ok {
		n.mu.Unlock()
		return a
	}
	m, ok := n.view.Get(id)
	n.mu.Unlock()
	if !ok || m.ControlAddr == "" {
		return nil
	}
	a, err := net.ResolveUDPAddr("udp", m.ControlAddr)
	if err != nil {
		return nil
	}
	n.mu.Lock()
	n.peerAddr[id] = a
	n.mu.Unlock()
	return a
}

// ctrlLoop reads and dispatches control datagrams until Close.
func (n *Node) ctrlLoop() {
	defer n.wg.Done()
	buf := make([]byte, 64<<10)
	for {
		select {
		case <-n.stop:
			return
		default:
		}
		n.ctrl.SetReadDeadline(transport.Deadline(100 * time.Millisecond)) //lint:allow erroreat deadline set on a live socket cannot fail meaningfully
		sz, _, err := n.ctrl.ReadFromUDPAddrPort(buf)
		if err != nil {
			if ne, ok := err.(net.Error); ok && ne.Timeout() {
				continue
			}
			select {
			case <-n.stop:
				return
			default:
				continue
			}
		}
		n.handleControl(buf[:sz])
	}
}

// handleControl dispatches one datagram by magic.
func (n *Node) handleControl(b []byte) {
	if len(b) < 8 {
		return
	}
	switch [8]byte(b[0:8]) {
	case MagicGossip:
		if msg, err := DecodeGossip(b); err == nil {
			n.mergeGossip(msg)
		}
	case MagicHandoff:
		if rec, err := DecodeHandoff(b); err == nil {
			n.installHandoff(rec)
		}
	case MagicHandoffAck:
		if ack, err := DecodeHandoffAck(b); err == nil {
			n.mu.Lock()
			n.acked[ack.Seq] = true
			n.mu.Unlock()
		}
	case MagicForward:
		if f, err := DecodeForward(b); err == nil {
			n.forwardedIn.Add(1)
			target, datagram := n.arrive(f.Seq, f.FlowID, f.SendNanos, f.Payload, f.Epoch, NodeNone, -1)
			n.relay(target, datagram)
		}
	}
}

// mergeGossip folds a peer's view into ours, rebuilding steering when
// the eligible set moved.
func (n *Node) mergeGossip(msg *GossipMessage) {
	n.mu.Lock()
	if n.view.Merge(msg, transport.NowNanos()) {
		n.steer = n.view.Steering()
	}
	n.mu.Unlock()
}

// installHandoff adopts the serialized flow state from a draining owner,
// drains any frames buffered while the record was in flight, and acks.
func (n *Node) installHandoff(rec *HandoffRecord) {
	now := transport.NowNanos()
	n.mu.Lock()
	if rec.Epoch > n.view.Epoch() {
		// The record proves a newer membership; gossip will catch us up,
		// but adopt the epoch now so our stamps are not behind.
		n.view.epoch = rec.Epoch
		n.steer = n.view.Steering()
	}
	n.handoffRecords.Add(1)
	for i := range rec.Flows {
		fr := &rec.Flows[i]
		e := n.table.install(fr)
		n.handoffFlowsIn.Add(1)
		for _, pf := range n.table.takePending(fr.FlowID) {
			n.deliverLocked(e, fr.FlowID, pf.seq, pf.sendNanos, now)
		}
	}
	n.mu.Unlock()
	ack := AppendHandoffAck(nil, &HandoffAck{Origin: n.cfg.ID, Seq: rec.Seq})
	n.relay(rec.Origin, ack)
}

// gossipLoop pushes the full view to every peer each interval, sweeps
// the failure detector, refreshes the health summary, ticks the SLO
// tracker, and promotes expired pending flows.
func (n *Node) gossipLoop() {
	defer n.wg.Done()
	ticker := time.NewTicker(n.cfg.GossipInterval) //lint:allow determinism wall-clock pump for the gossip control plane
	defer ticker.Stop()
	for {
		select {
		case <-n.stop:
			return
		case <-ticker.C:
			n.gossipTick()
		}
	}
}

// gossipTick is one control-plane heartbeat.
func (n *Node) gossipTick() {
	now := transport.NowNanos()
	n.mu.Lock()
	n.ticks++
	// SLO windows advance about once a second regardless of gossip pace.
	if n.slo != nil && n.ticks%uint64(max64(1, int64(time.Second/n.cfg.GossipInterval))) == 0 {
		n.slo.Tick()
	}
	for _, t := range n.health {
		t.Maintain(sim.Time(now))
	}
	n.view.SetSummary(n.summaryLocked())
	if n.view.SweepLiveness(now, n.cfg.SuspectAfter.Nanoseconds(), n.cfg.DeadAfter.Nanoseconds()) {
		n.steer = n.view.Steering()
	}
	for _, flow := range n.table.expiredPending(now, n.cfg.HandoffTimeout.Nanoseconds()) {
		n.handoffTimeouts.Add(1)
		n.promoteLocked(flow, now)
	}
	msg := &GossipMessage{Origin: n.cfg.ID, Epoch: n.view.Epoch(), Members: n.view.Members()}
	n.mu.Unlock()
	n.broadcast(msg)
}

// summaryLocked distills the health trackers and SLO tracker into the
// gossiped self-summary. Caller holds n.mu.
func (n *Node) summaryLocked() HealthSummary {
	var s HealthSummary
	for _, t := range n.health {
		switch t.State() {
		case core.HealthUp:
			s.PathsUp++
		case core.HealthDegraded:
			s.PathsDegraded++
		case core.HealthQuarantined:
			s.PathsQuarantined++
		case core.HealthProbing:
			s.PathsProbing++
		}
	}
	s.Delivered = n.delivered.Load()
	s.Lost = n.gaps.Load()
	if n.slo != nil {
		st, _ := n.slo.State()
		s.SLOState = uint8(st)
		for _, b := range n.slo.Status().Burns {
			if b.Rate > s.BurnRate {
				s.BurnRate = b.Rate
			}
		}
	}
	return s
}

// broadcast pushes one gossip message to every known peer.
func (n *Node) broadcast(msg *GossipMessage) {
	buf, err := AppendGossip(nil, msg)
	if err != nil {
		return
	}
	for i := range msg.Members {
		id := msg.Members[i].ID
		if id == n.cfg.ID {
			continue
		}
		if addr := n.resolvePeer(id); addr != nil {
			n.ctrl.WriteToUDP(buf, addr) //lint:allow erroreat gossip is best-effort; the next tick repeats it
		}
	}
}

// Drain is the graceful shutdown path: announce departure (epoch bump),
// let the client re-steer and in-flight frames settle, flush the
// receiver, serialize the flow table into handoff records for the new
// HRW owners, transfer until acked, then close.
func (n *Node) Drain() error {
	n.mu.Lock()
	if n.leaving {
		n.mu.Unlock()
		return nil
	}
	n.leaving = true
	n.view.Leave()
	n.steer = n.view.Steering()
	msg := &GossipMessage{Origin: n.cfg.ID, Epoch: n.view.Epoch(), Members: n.view.Members()}
	n.mu.Unlock()

	// Announce immediately (and thrice — gossip is UDP) instead of
	// waiting for the next tick; the settle window starts now.
	for i := 0; i < 3; i++ {
		n.broadcast(msg)
	}
	select {
	case <-time.After(n.cfg.DrainSettle): //lint:allow determinism wall-clock settle window for a real-wire drain
	case <-n.stop:
	}

	// Flush: no new frames are coming (the client re-steered); closing
	// the receiver releases everything still in the reorder buffers
	// through the normal delivery path into the flow table.
	n.mu.Lock()
	n.recvClosed = true
	n.mu.Unlock()
	if err := n.recv.Close(); err != nil {
		return fmt.Errorf("mesh: node %d drain: receiver close: %w", n.cfg.ID, err)
	}

	// Serialize and transfer. Steering already excludes us (we left), so
	// Owner names each flow's inheritor directly.
	n.mu.Lock()
	steer := n.steer
	type outRecord struct {
		target NodeID
		buf    []byte
		seq    uint64
	}
	// Everything that arrived since the announce was parked, never
	// surfaced (see arrive step 2); relay it to each flow's inheritor
	// ahead of the flow's record. The new owner either buffers these for
	// the install or dedups them below an already-promoted cursor — in
	// both cases the flow stays in order across the handoff.
	var relays []outRecord
	parkedFlows := make([]uint64, 0, len(n.table.entries))
	for f, e := range n.table.entries {
		if len(e.parked) > 0 {
			parkedFlows = append(parkedFlows, f)
		}
	}
	sort.Slice(parkedFlows, func(i, j int) bool { return parkedFlows[i] < parkedFlows[j] })
	for _, flow := range parkedFlows {
		target := steer.Owner(flow)
		e := n.table.entries[flow]
		frames := e.parked
		e.parked = nil
		if target == NodeNone {
			continue // last node standing: nowhere to relay
		}
		sort.Slice(frames, func(i, j int) bool { return frames[i].seq < frames[j].seq })
		for _, pf := range frames {
			if buf := n.encodeForward(flow, pf.seq, pf.sendNanos, pf.payload); buf != nil {
				relays = append(relays, outRecord{target: target, buf: buf})
			}
		}
	}
	byOwner := n.table.export(steer.Owner)
	owners := make([]NodeID, 0, len(byOwner))
	for id := range byOwner {
		owners = append(owners, id)
	}
	for i := 1; i < len(owners); i++ { // insertion sort; tiny set
		for j := i; j > 0 && owners[j] < owners[j-1]; j-- {
			owners[j], owners[j-1] = owners[j-1], owners[j]
		}
	}
	var hseq uint64
	var out []outRecord
	for _, target := range owners {
		flows := byOwner[target]
		for off := 0; off < len(flows); off += MaxHandoffFlows {
			end := off + MaxHandoffFlows
			if end > len(flows) {
				end = len(flows)
			}
			hseq++
			rec := &HandoffRecord{
				Origin: n.cfg.ID, Target: target,
				Epoch: n.view.Epoch(), Seq: hseq,
				Flows: flows[off:end],
			}
			buf, err := AppendHandoff(nil, rec)
			if err != nil {
				continue
			}
			for i := range rec.Flows {
				n.fwdTo[rec.Flows[i].FlowID] = target
			}
			n.handoffFlowsOut.Add(uint64(len(rec.Flows)))
			out = append(out, outRecord{target: target, buf: buf, seq: hseq})
		}
	}
	// Anything buffered for a never-installed handoff record relays to
	// its current owner rather than dying with us.
	pendingFlows := n.table.expiredPending(1<<62, 0)
	for _, flow := range pendingFlows {
		target := steer.Owner(flow)
		if target == NodeNone {
			continue
		}
		for _, pf := range n.table.takePending(flow) {
			if buf := n.encodeForward(flow, pf.seq, pf.sendNanos, pf.payload); buf != nil {
				relays = append(relays, outRecord{target: target, buf: buf})
			}
		}
	}
	n.mu.Unlock()

	for _, r := range relays {
		n.relay(r.target, r.buf)
	}
	// Transfer with retry-until-acked: 5 attempts, 150ms ack wait each.
	for _, r := range out {
		acked := false
		for attempt := 0; attempt < 5 && !acked; attempt++ {
			n.relay(r.target, r.buf)
			deadline := transport.NowNanos() + (150 * time.Millisecond).Nanoseconds()
			for transport.NowNanos() < deadline {
				time.Sleep(5 * time.Millisecond) //lint:allow determinism ack polling during a real-wire drain
				n.mu.Lock()
				acked = n.acked[r.seq]
				n.mu.Unlock()
				if acked {
					break
				}
			}
		}
		if !acked {
			n.handoffUnacked.Add(1)
		}
		n.handoffRecords.Add(1)
	}

	// Final departure gossip, then full teardown.
	n.mu.Lock()
	msg = &GossipMessage{Origin: n.cfg.ID, Epoch: n.view.Epoch(), Members: n.view.Members()}
	n.mu.Unlock()
	n.broadcast(msg)
	return n.Close()
}

// Close stops the loops and closes both sockets. Idempotent; Drain calls
// it after the handoff completes.
func (n *Node) Close() error {
	n.closeOnce.Do(func() {
		close(n.stop)
		n.mu.Lock()
		needRecvClose := !n.recvClosed
		n.recvClosed = true
		n.mu.Unlock()
		if needRecvClose {
			if err := n.recv.Close(); err != nil {
				n.closeErr = err
			}
		}
		if err := n.ctrl.Close(); err != nil && n.closeErr == nil {
			n.closeErr = err
		}
		n.wg.Wait()
	})
	return n.closeErr
}

// NodeStats is one node's counters, snapshot for reports and metrics.
type NodeStats struct {
	ID                NodeID  `json:"id"`
	Epoch             uint64  `json:"epoch"`
	Delivered         uint64  `json:"delivered"`
	Gaps              uint64  `json:"gaps"`
	DupSuppressed     uint64  `json:"dup_suppressed"`
	StaleSteers       uint64  `json:"stale_steers"`
	ForwardedOut      uint64  `json:"forwarded_out"`
	ForwardedIn       uint64  `json:"forwarded_in"`
	HandoffFlowsOut   uint64  `json:"handoff_flows_out"`
	HandoffFlowsIn    uint64  `json:"handoff_flows_in"`
	HandoffRecords    uint64  `json:"handoff_records"`
	HandoffTimeouts   uint64  `json:"handoff_timeouts"`
	HandoffUnacked    uint64  `json:"handoff_unacked"`
	OverflowDropped   uint64  `json:"overflow_dropped"`
	MigratedDelivered uint64  `json:"migrated_delivered"`
	DeadlineHits      uint64  `json:"deadline_hits,omitempty"`
	DeadlineMisses    uint64  `json:"deadline_misses,omitempty"`
	PathsUp           int     `json:"paths_up"`
	PathsDegraded     int     `json:"paths_degraded"`
	PathsQuarantined  int     `json:"paths_quarantined"`
	PathsProbing      int     `json:"paths_probing"`
	SLOState          string  `json:"slo_state,omitempty"`
	BurnRate          float64 `json:"burn_rate,omitempty"`
	P99Nanos          int64   `json:"p99_nanos"`
}

// Stats snapshots the node.
func (n *Node) Stats() NodeStats {
	n.mu.Lock()
	epoch := n.view.Epoch()
	sum := n.summaryLocked()
	n.mu.Unlock()
	st := NodeStats{
		ID:                n.cfg.ID,
		Epoch:             epoch,
		Delivered:         n.delivered.Load(),
		Gaps:              n.gaps.Load(),
		DupSuppressed:     n.dupSuppressed.Load(),
		StaleSteers:       n.staleSteers.Load(),
		ForwardedOut:      n.forwardedOut.Load(),
		ForwardedIn:       n.forwardedIn.Load(),
		HandoffFlowsOut:   n.handoffFlowsOut.Load(),
		HandoffFlowsIn:    n.handoffFlowsIn.Load(),
		HandoffRecords:    n.handoffRecords.Load(),
		HandoffTimeouts:   n.handoffTimeouts.Load(),
		HandoffUnacked:    n.handoffUnacked.Load(),
		OverflowDropped:   n.overflowDropped.Load(),
		MigratedDelivered: n.migratedDelivered.Load(),
		DeadlineHits:      n.deadlineHits.Load(),
		DeadlineMisses:    n.deadlineMisses.Load(),
		PathsUp:           int(sum.PathsUp),
		PathsDegraded:     int(sum.PathsDegraded),
		PathsQuarantined:  int(sum.PathsQuarantined),
		PathsProbing:      int(sum.PathsProbing),
		BurnRate:          sum.BurnRate,
		P99Nanos:          n.e2e.Snapshot().Percentile(0.99),
	}
	if n.slo != nil {
		state, _ := n.slo.State()
		st.SLOState = state.String()
	}
	return st
}

// E2ESnapshot returns the node's end-to-end latency histogram snapshot.
func (n *Node) E2ESnapshot() *stats.Hist { return n.e2e.Snapshot() }

// EligibleCount returns the node's view of the flow-owning member count.
func (n *Node) EligibleCount() int {
	n.mu.Lock()
	defer n.mu.Unlock()
	return len(n.view.EligibleIDs())
}

// pathCounts returns just the per-path health-state counts.
func (n *Node) pathCounts() HealthSummary {
	n.mu.Lock()
	defer n.mu.Unlock()
	var s HealthSummary
	for _, t := range n.health {
		switch t.State() {
		case core.HealthUp:
			s.PathsUp++
		case core.HealthDegraded:
			s.PathsDegraded++
		case core.HealthQuarantined:
			s.PathsQuarantined++
		case core.HealthProbing:
			s.PathsProbing++
		}
	}
	return s
}

// burnRate returns the node's fastest SLO burn rate (0 without a tracker).
func (n *Node) burnRate() float64 {
	if n.slo == nil {
		return 0
	}
	var max float64
	for _, b := range n.slo.Status().Burns {
		if b.Rate > max {
			max = b.Rate
		}
	}
	return max
}

// sloCritical reports whether the node's burn tracker is critical.
func (n *Node) sloCritical() bool {
	if n.slo == nil {
		return false
	}
	st, _ := n.slo.State()
	return st == live.SLOCritical
}

func max64(a, b int64) int64 {
	if a > b {
		return a
	}
	return b
}
