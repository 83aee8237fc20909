package mesh

import (
	"fmt"
	"net"
	"sort"
	"sync"
	"time"

	"mpdp/internal/core"
	"mpdp/internal/invariant"
	"mpdp/internal/transport"
)

// ClientConfig parameterizes a mesh client: the steering end of the data
// plane, holding one multipath transport sender per gateway node and
// following membership as a gossip observer.
type ClientConfig struct {
	// ID is the client's mesh identity (observer role; it owns no flows).
	ID NodeID
	// ControlAddr is the gossip listen address (default 127.0.0.1:0).
	ControlAddr string
	// Scheduler, HedgeK, Deadline, DeadlineMargin, DupBudgetBytesPerSec
	// and DupBudgetBurst pass through to every per-node transport sender.
	Scheduler            transport.SchedulerName
	HedgeK               int
	Deadline             time.Duration
	DeadlineMargin       float64
	DupBudgetBytesPerSec float64
	DupBudgetBurst       float64
	// Health tunes the sender-side per-path health machines.
	Health core.HealthConfig
	// Impairer, when non-nil, is shared by every sender (fault injection).
	Impairer transport.Impairer
	// Checker, when non-nil, is the shared mesh-wide stream invariant
	// checker; every send is noted before its first wire copy.
	Checker *invariant.Stream
}

// flowState is the client's per-flow steering memory.
type flowState struct {
	next      uint64 // next mesh seq to assign
	owner     NodeID
	prevOwner NodeID // set on the first re-steer, then sticky
}

// Client steers application packets to their HRW owner, stamping every
// frame with the mesh envelope (epoch, mesh seq, previous owner). Send is
// not goroutine-safe with itself — callers serialize submission, matching
// the transport sender's single-goroutine discipline — but it is safe
// against the concurrent gossip loop.
type Client struct {
	cfg  ClientConfig
	ctrl *net.UDPConn

	mu       sync.Mutex
	view     *View
	steer    *Steering
	flows    map[uint64]*flowState
	senders  map[NodeID]*transport.Sender
	scratch  []byte
	resteers uint64

	stop chan struct{}
	wg   sync.WaitGroup
}

// NewClient binds the client's control socket; Start connects the data
// plane once the seed membership (which includes this client's own
// observer row, built from Member()) is assembled.
func NewClient(cfg ClientConfig) (*Client, error) {
	if cfg.ControlAddr == "" {
		cfg.ControlAddr = "127.0.0.1:0"
	}
	laddr, err := net.ResolveUDPAddr("udp", cfg.ControlAddr)
	if err != nil {
		return nil, fmt.Errorf("mesh: client control addr: %w", err)
	}
	ctrl, err := net.ListenUDP("udp", laddr)
	if err != nil {
		return nil, fmt.Errorf("mesh: client control socket: %w", err)
	}
	return &Client{
		cfg:     cfg,
		ctrl:    ctrl,
		view:    NewView(cfg.ID),
		flows:   make(map[uint64]*flowState),
		senders: make(map[NodeID]*transport.Sender),
		scratch: make([]byte, 0, EnvelopeLen+transport.MaxPayload),
		stop:    make(chan struct{}),
	}, nil
}

// Member returns the client's observer row for the seed membership.
func (c *Client) Member() Member {
	return Member{
		ID:          c.cfg.ID,
		State:       MemberAlive,
		Role:        RoleObserver,
		ControlAddr: c.ctrl.LocalAddr().String(),
	}
}

// Start seeds the view, dials one multipath sender per data member, and
// launches the gossip listener.
func (c *Client) Start(seed []Member) error {
	c.mu.Lock()
	c.view.Seed(seed, transport.NowNanos())
	c.steer = c.view.Steering()
	c.mu.Unlock()
	for i := range seed {
		m := &seed[i]
		if m.Role != RoleData || len(m.DataAddrs) == 0 {
			continue
		}
		paths := make([]transport.PathConfig, len(m.DataAddrs))
		for j, addr := range m.DataAddrs {
			paths[j] = transport.PathConfig{RemoteAddr: addr}
		}
		s, err := transport.Dial(transport.SenderConfig{
			Paths:                paths,
			Scheduler:            c.cfg.Scheduler,
			HedgeK:               c.cfg.HedgeK,
			Deadline:             c.cfg.Deadline,
			DeadlineMargin:       c.cfg.DeadlineMargin,
			DupBudgetBytesPerSec: c.cfg.DupBudgetBytesPerSec,
			DupBudgetBurst:       c.cfg.DupBudgetBurst,
			Health:               c.cfg.Health,
			Impairer:             c.cfg.Impairer,
		})
		if err != nil {
			c.Close() //lint:allow erroreat teardown on the error path
			return fmt.Errorf("mesh: client dial node %d: %w", m.ID, err)
		}
		c.mu.Lock()
		c.senders[m.ID] = s
		c.mu.Unlock()
	}
	c.wg.Add(1)
	go c.ctrlLoop()
	return nil
}

// Send steers one application payload to the flow's current HRW owner,
// assigning the next mesh seq and stamping the envelope. It returns the
// mesh seq used and the owner it was steered to.
func (c *Client) Send(flow uint64, payload []byte) (uint64, NodeID, error) {
	c.mu.Lock()
	steer := c.steer
	owner := steer.Owner(flow)
	if owner == NodeNone {
		c.mu.Unlock()
		return 0, NodeNone, fmt.Errorf("mesh: no eligible owner for flow %x", flow)
	}
	fs, ok := c.flows[flow]
	if !ok {
		fs = &flowState{owner: owner, prevOwner: NodeNone}
		c.flows[flow] = fs
	} else if fs.owner != owner {
		fs.prevOwner = fs.owner
		fs.owner = owner
		c.resteers++
	}
	seq := fs.next
	fs.next++
	env := Envelope{Epoch: steer.Epoch(), Seq: seq, PrevOwner: fs.prevOwner}
	c.scratch = AppendEnvelope(c.scratch[:0], &env, payload)
	s := c.senders[owner]
	if c.cfg.Checker != nil {
		c.cfg.Checker.NoteSent(flow, seq)
	}
	c.mu.Unlock()
	if s == nil {
		// The owner is eligible but we hold no sender for it (it was not
		// in the seed): the frame is lost here, which the stream checker
		// treats like any wire loss.
		return seq, owner, fmt.Errorf("mesh: no sender for node %d", owner)
	}
	// The wire write happens outside c.mu; c.scratch is safe to read here
	// because only Send touches it and Send is caller-serialized.
	_, err := s.Send(flow, c.scratch)
	return seq, owner, err
}

// Epoch returns the client's current steering epoch.
func (c *Client) Epoch() uint64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.steer.Epoch()
}

// Owner returns the flow's owner under the client's current steering.
func (c *Client) Owner(flow uint64) NodeID {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.steer.Owner(flow)
}

// Resteers returns how many per-flow ownership changes the client has
// applied (each is one flow migrating after a membership change).
func (c *Client) Resteers() uint64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.resteers
}

// SenderStats snapshots every per-node transport sender.
func (c *Client) SenderStats() map[NodeID]transport.SenderStats {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := make(map[NodeID]transport.SenderStats, len(c.senders))
	for id, s := range c.senders {
		out[id] = s.Stats()
	}
	return out
}

// ctrlLoop merges inbound gossip until Close, rebuilding steering when
// the eligible set changes.
func (c *Client) ctrlLoop() {
	defer c.wg.Done()
	buf := make([]byte, 64<<10)
	for {
		select {
		case <-c.stop:
			return
		default:
		}
		c.ctrl.SetReadDeadline(transport.Deadline(100 * time.Millisecond)) //lint:allow erroreat deadline set on a live socket cannot fail meaningfully
		sz, _, err := c.ctrl.ReadFromUDPAddrPort(buf)
		if err != nil {
			if ne, ok := err.(net.Error); ok && ne.Timeout() {
				continue
			}
			select {
			case <-c.stop:
				return
			default:
				continue
			}
		}
		msg, err := DecodeGossip(buf[:sz])
		if err != nil {
			continue
		}
		c.mu.Lock()
		if c.view.Merge(msg, transport.NowNanos()) {
			c.steer = c.view.Steering()
		}
		c.mu.Unlock()
	}
}

// Close stops the gossip loop and closes every sender and the control
// socket. Idempotent enough for the error path in Start.
func (c *Client) Close() error {
	select {
	case <-c.stop:
	default:
		close(c.stop)
	}
	c.ctrl.Close() //lint:allow erroreat teardown of a UDP socket
	c.wg.Wait()
	c.mu.Lock()
	ids := make([]NodeID, 0, len(c.senders))
	for id := range c.senders {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	senders := make([]*transport.Sender, 0, len(ids))
	for _, id := range ids {
		senders = append(senders, c.senders[id])
	}
	c.senders = make(map[NodeID]*transport.Sender)
	c.mu.Unlock()
	var firstErr error
	for _, s := range senders {
		if err := s.Close(); err != nil && firstErr == nil {
			firstErr = err
		}
	}
	return firstErr
}
