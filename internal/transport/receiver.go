package transport

import (
	"fmt"
	"net"
	"net/netip"
	"sync"
	"sync/atomic"
	"time"

	"mpdp/internal/core"
	"mpdp/internal/obs"
	"mpdp/internal/packet"
	"mpdp/internal/sim"
)

// ReceiverConfig configures a multipath Receiver.
type ReceiverConfig struct {
	// Addrs are the listen addresses, one per path (use "127.0.0.1:0" for
	// ephemeral loopback ports and read them back with Addrs()).
	Addrs []string
	// ReorderTimeout is the gap timeout of the reorder stage: how long a
	// hole blocks successors before being declared lost (default 5 ms).
	ReorderTimeout time.Duration
	// DedupWindow is the per-flow first-copy-wins window in sequence
	// numbers (default DefaultDedupWindow).
	DedupWindow uint64
	// Queue is the depth of the socket→reorder channel (default 4096).
	Queue int
	// AckEvery sends a cumulative ack after this many data frames on a
	// path (default 32).
	AckEvery int
	// AckInterval bounds ack latency on a quiet path: a sweeper acks any
	// path with unreported progress at this period (default 2 ms). The
	// sweep is also what lets the sender's gap accounting conclude losses
	// on a path that went quiet mid-burst.
	AckInterval time.Duration
	// EchoBack reflects every data frame to its source with FlagEcho set
	// (header only), giving the sender per-frame RTT samples.
	EchoBack bool
	// Spans, when non-nil, records socket-read/reorder/deliver/e2e stages.
	Spans *Spans
	// Deliver receives packets in per-flow order on the reorder driver
	// goroutine. The receiver recycles the packet, Data included, once the
	// callback returns: a callback that keeps either must copy it.
	Deliver func(p *packet.Packet)
	// OnLost is invoked (driver goroutine) for stragglers that arrive
	// after their sequence was timed out past. Same ownership as Deliver.
	OnLost func(p *packet.Packet)
	// Verifier, when non-nil, is fed every in-order delivery.
	Verifier *Verifier
	// Trace, when non-nil, records sampled per-frame lifecycle events
	// (rx, dedup verdicts, deliver, loss, ack emission) into a wire flight
	// recorder. The sampling predicate is shared with the sender's
	// recorder, so both endpoints capture the same packets. Nil disables
	// every capture site: an untraced receiver behaves byte-identically.
	Trace *obs.WireRecorder
}

// recvPath is one listening socket plus its ack bookkeeping, shared between
// the path's reader goroutine and the ack sweeper under mu.
type recvPath struct {
	id   uint16
	conn *net.UDPConn

	mu        sync.Mutex
	src       netip.AddrPort // last data source: where acks go (invalid until one arrives)
	wire      *dedupWindow   // per-path wire dedup on PathSeq
	high      uint64         // highest PathSeq seen
	recv      uint64         // distinct frames received
	lastSend  int64          // SendNanos of the newest data frame (RTT echo)
	sinceAck  int
	ackedRecv uint64 // recv as of the last ack sent

	frames   uint64 // raw datagrams that decoded as data frames
	wireDups uint64 // wire-level duplicates (same PathSeq twice)
	badFrame uint64 // datagrams DecodeFrame rejected
}

// Receiver listens on N UDP paths, acknowledges per-path receipt (feeding
// the sender's loss detection), deduplicates hedged copies, and funnels
// everything through the core reorder buffer for in-order delivery.
type Receiver struct {
	cfg    ReceiverConfig
	paths  []*recvPath
	driver *reorderDriver

	delivered atomic.Uint64
	lost      atomic.Uint64

	wg      sync.WaitGroup
	sweepWG sync.WaitGroup
	stop    chan struct{}
}

// Listen binds every path and starts the readers, the reorder driver, and
// the ack sweeper.
func Listen(cfg ReceiverConfig) (*Receiver, error) {
	if len(cfg.Addrs) == 0 {
		return nil, fmt.Errorf("transport: no listen addresses")
	}
	if cfg.ReorderTimeout == 0 {
		cfg.ReorderTimeout = 5 * time.Millisecond
	}
	if cfg.Queue == 0 {
		cfg.Queue = 4096
	}
	if cfg.AckEvery == 0 {
		cfg.AckEvery = 32
	}
	if cfg.AckInterval == 0 {
		cfg.AckInterval = 2 * time.Millisecond
	}
	r := &Receiver{cfg: cfg, stop: make(chan struct{})}
	for i, addr := range cfg.Addrs {
		laddr, err := net.ResolveUDPAddr("udp", addr)
		if err != nil {
			r.closeConns()
			return nil, fmt.Errorf("transport: path %d listen %q: %w", i, addr, err)
		}
		conn, err := net.ListenUDP("udp", laddr)
		if err != nil {
			r.closeConns()
			return nil, fmt.Errorf("transport: path %d listen: %w", i, err)
		}
		// Best-effort: a deep kernel buffer absorbs sender bursts that
		// outrun the reader goroutine (loss here is indistinguishable from
		// wire loss, so buy as much headroom as the host allows).
		conn.SetReadBuffer(4 << 20) //lint:allow erroreat best-effort socket buffer sizing
		r.paths = append(r.paths, &recvPath{
			id:   uint16(i),
			conn: conn,
			wire: newDedupWindow(DefaultDedupWindow),
		})
	}
	r.driver = newReorderDriver(
		func() sim.Time { return sim.Time(NowNanos()) },
		cfg.ReorderTimeout, cfg.DedupWindow, r.deliver, r.onLost, cfg.Queue, cfg.Trace)
	r.driver.start()
	for _, p := range r.paths {
		r.wg.Add(1)
		go r.readLoop(p)
	}
	r.sweepWG.Add(1)
	go r.ackSweep()
	return r, nil
}

// Addrs returns the bound address of every path, in path order.
func (r *Receiver) Addrs() []string {
	out := make([]string, len(r.paths))
	for i, p := range r.paths {
		out[i] = p.conn.LocalAddr().String()
	}
	return out
}

// SetTraceSampling retunes the attached wire recorder's sampling rate
// (no-op returning 0 when untraced) — the receiver half of the sentinel's
// capture ramp. Both ends must ramp together: the merge layer only joins
// packets sampled at both endpoints.
func (r *Receiver) SetTraceSampling(every int) int {
	if r.cfg.Trace == nil {
		return 0
	}
	return r.cfg.Trace.SetSampleEvery(every)
}

func (r *Receiver) closeConns() {
	for _, p := range r.paths {
		if p.conn != nil {
			p.conn.Close() //lint:allow erroreat best-effort teardown of a UDP socket
		}
	}
}

// deliver runs on the reorder driver goroutine for each in-order release.
func (r *Receiver) deliver(p *packet.Packet) {
	now := NowNanos()
	if sp := r.cfg.Spans; sp != nil {
		sp.Reorder.Record(now - int64(p.Done))
		sp.E2E.Record(now - int64(p.Ingress))
	}
	if v := r.cfg.Verifier; v != nil {
		v.NoteDelivered(p.FlowID, p.Seq)
	}
	r.delivered.Add(1)
	// Capture identity before the callback: the packet goes back to the
	// readers once fn returns.
	flowID, seq, pathID, pathSeq, done := p.FlowID, p.Seq, p.PathID, p.PathSeq, p.Done
	if fn := r.cfg.Deliver; fn != nil {
		t0 := NowNanos()
		fn(p)
		if sp := r.cfg.Spans; sp != nil {
			sp.Deliver.Record(NowNanos() - t0)
		}
	}
	r.driver.free.put(p)
	// The deliver event closes the timeline: Path/PathSeq name the
	// admitted copy, A its arrival, B the pre-callback release time.
	if tr := r.cfg.Trace; tr != nil && tr.Sampled(flowID, seq) {
		tr.Emit(obs.WireEvent{Nanos: NowNanos(), Kind: obs.WireDeliver,
			Path: int32(pathID), FlowID: flowID, Seq: seq, PathSeq: pathSeq,
			A: int64(done), B: now})
	}
}

func (r *Receiver) onLost(p *packet.Packet) {
	r.lost.Add(1)
	if tr := r.cfg.Trace; tr != nil && tr.Sampled(p.FlowID, p.Seq) {
		tr.Emit(obs.WireEvent{Nanos: NowNanos(), Kind: obs.WireLost,
			Path: int32(p.PathID), FlowID: p.FlowID, Seq: p.Seq, PathSeq: p.PathSeq})
	}
	if fn := r.cfg.OnLost; fn != nil {
		fn(p)
	}
	r.driver.free.put(p)
}

// readLoop pulls datagrams off one path's socket until it is closed.
// Nothing here allocates per frame: the source address is a value, the
// header is decoded into a local, and the packet handed to the driver is a
// recycled one (see rxPackets).
func (r *Receiver) readLoop(p *recvPath) {
	defer r.wg.Done()
	buf := make([]byte, HeaderLen+MaxPayload)
	for {
		t0 := NowNanos()
		n, src, err := p.conn.ReadFromUDPAddrPort(buf)
		if err != nil {
			return // socket closed
		}
		now := NowNanos()
		if sp := r.cfg.Spans; sp != nil {
			sp.SocketRead.Record(now - t0)
		}
		h, payload, err := DecodeFrame(buf[:n])
		if err != nil {
			p.mu.Lock()
			p.badFrame++
			p.mu.Unlock()
			continue
		}
		if h.IsAck() {
			continue // acks flow sender-ward only
		}

		p.mu.Lock()
		p.src = src
		p.frames++
		fresh := p.wire.Admit(h.PathSeq)
		if fresh {
			if h.PathSeq > p.high {
				p.high = h.PathSeq
			}
			p.recv++
			p.lastSend = h.SendNanos
			p.sinceAck++
		} else {
			p.wireDups++
		}
		ackNow := p.sinceAck >= r.cfg.AckEvery
		var ack Header
		if ackNow {
			ack = p.ackHeaderLocked()
		}
		p.mu.Unlock()

		// Emits stay outside p.mu (the recorder has its own lock). A is the
		// header's SendNanos echo — the sender-clock accept time — so a
		// receiver-only trace can still anchor attribution.
		tr := r.cfg.Trace
		if tr != nil && tr.Sampled(h.FlowID, h.Seq) {
			tr.Emit(obs.WireEvent{Nanos: now, Kind: obs.WireRx,
				Path: int32(h.PathID), FlowID: h.FlowID, Seq: h.Seq,
				PathSeq: h.PathSeq, A: h.SendNanos, B: int64(h.Flags)})
			if !fresh {
				tr.Emit(obs.WireEvent{Nanos: now, Kind: obs.WireDedup,
					Path: int32(h.PathID), FlowID: h.FlowID, Seq: h.Seq,
					PathSeq: h.PathSeq, A: 1})
			}
		}
		if fresh {
			if sp := r.cfg.Spans; sp != nil && sp.Flight != nil {
				sp.Flight.Record(now - h.SendNanos)
			}
		}

		// Socket writes stay outside the lock.
		if ackNow {
			r.writeControl(p, ack, src)
			if tr != nil {
				tr.Emit(obs.WireEvent{Nanos: NowNanos(), Kind: obs.WireAckTx,
					Path: int32(p.id), A: int64(ack.Seq), B: int64(ack.PathSeq)})
			}
		}
		if r.cfg.EchoBack && fresh {
			echo := h
			echo.Flags = FlagEcho
			r.writeControl(p, echo, src)
		}
		if !fresh {
			continue // wire duplicate: already counted, never resubmitted
		}

		// buf is overwritten by the next read, so the payload moves into
		// the packet's own buffer, which a recycled packet already has.
		pk := r.driver.free.get()
		data := append(pk.Data[:0], payload...)
		*pk = packet.Packet{
			FlowID:  h.FlowID,
			Seq:     h.Seq,
			Data:    data,
			PathID:  int(h.PathID),
			PathSeq: h.PathSeq,
			IsDup:   h.IsDup(),
			Ingress: sim.Time(h.SendNanos),
			Done:    sim.Time(now),
		}
		r.driver.in <- pk
	}
}

// ackHeaderLocked builds the cumulative ack for the path's current state.
// Callers hold p.mu.
func (p *recvPath) ackHeaderLocked() Header {
	p.sinceAck = 0
	p.ackedRecv = p.recv
	return Header{
		Flags:     FlagAck,
		PathID:    p.id,
		FlowID:    0,
		Seq:       p.recv,     // total distinct frames received
		PathSeq:   p.high,     // high-water mark: high-recv = missing below it
		SendNanos: p.lastSend, // RTT echo of the newest data frame
	}
}

// writeControl sends a header-only frame (ack or echo) back to src.
func (r *Receiver) writeControl(p *recvPath, h Header, src netip.AddrPort) {
	var arr [HeaderLen]byte
	frame, err := AppendFrame(arr[:0], &h, nil)
	if err != nil {
		return // cannot happen: header-only frames always encode
	}
	if _, err := p.conn.WriteToUDPAddrPort(frame, src); err != nil {
		return // receiver-side ack loss looks like wire loss; sender copes
	}
}

// ackSweep acks any path with unreported progress every AckInterval, so a
// path that went quiet still reports (and the sender can conclude losses).
func (r *Receiver) ackSweep() {
	defer r.sweepWG.Done()
	ticker := time.NewTicker(r.cfg.AckInterval) //lint:allow determinism wall-clock ack pacing for a real wire
	defer ticker.Stop()
	for {
		select {
		case <-r.stop:
			return
		case <-ticker.C:
			for _, p := range r.paths {
				p.mu.Lock()
				pending := p.src.IsValid() && (p.recv != p.ackedRecv || p.high > p.recv)
				var ack Header
				var src netip.AddrPort
				if pending {
					ack = p.ackHeaderLocked()
					src = p.src
				}
				p.mu.Unlock()
				if pending {
					r.writeControl(p, ack, src)
					if tr := r.cfg.Trace; tr != nil {
						tr.Emit(obs.WireEvent{Nanos: NowNanos(), Kind: obs.WireAckTx,
							Path: int32(p.id), A: int64(ack.Seq), B: int64(ack.PathSeq)})
					}
				}
			}
		}
	}
}

// RecvPathStats is one path's receiver-side accounting.
type RecvPathStats struct {
	Path      int    `json:"path"`
	Addr      string `json:"addr"`
	Frames    uint64 `json:"frames"`
	Received  uint64 `json:"received"`
	HighSeq   uint64 `json:"high_seq"`
	WireDups  uint64 `json:"wire_dups"`
	BadFrames uint64 `json:"bad_frames"`
}

// ReceiverStats aggregates the receiver's counters.
type ReceiverStats struct {
	Delivered uint64            `json:"delivered"` // in-order releases to the application
	Lost      uint64            `json:"lost"`      // stragglers past a timeout skip
	DupDrops  uint64            `json:"dup_drops"` // hedged siblings dropped pre-reorder
	Reorder   core.ReorderStats `json:"reorder"`
	Paths     []RecvPathStats   `json:"paths"`
}

// Stats snapshots the receiver. Safe to call while running: driver-owned
// counters are answered by the driver goroutine itself.
func (r *Receiver) Stats() ReceiverStats {
	ds := r.driver.snapshotStats()
	st := ReceiverStats{
		Delivered: r.delivered.Load(),
		Lost:      r.lost.Load(),
		DupDrops:  ds.DupDrops,
		Reorder:   ds.Reorder,
	}
	for _, p := range r.paths {
		// Resolve the socket address before taking p.mu: LocalAddr goes
		// through the net package (kernel-bound) and must not extend the
		// reader goroutines' lock hold time. p.conn is set once at bind.
		addr := p.conn.LocalAddr().String()
		p.mu.Lock()
		st.Paths = append(st.Paths, RecvPathStats{
			Path:      int(p.id),
			Addr:      addr,
			Frames:    p.frames,
			Received:  p.recv,
			HighSeq:   p.high,
			WireDups:  p.wireDups,
			BadFrames: p.badFrame,
		})
		p.mu.Unlock()
	}
	return st
}

// Close stops the readers and the ack sweeper, then drains the reorder
// driver (flushing still-buffered packets in order).
func (r *Receiver) Close() error {
	close(r.stop)
	r.sweepWG.Wait()
	r.closeConns()
	r.wg.Wait()
	r.driver.close()
	return nil
}
