// Package packet defines the packet model of the MPDP data plane: raw frame
// bytes with real Ethernet/IPv4/UDP/TCP/VXLAN codecs, five-tuple flow keys,
// and RSS hashing.
//
// Unlike a pure queueing simulator, MPDP's network functions operate on
// genuine wire-format bytes — the NAT rewrites real IPv4 headers and fixes
// real checksums, the DPI scans real payloads — so the per-packet costs and
// correctness properties of the data plane are exercised end to end.
package packet

import (
	"fmt"

	"mpdp/internal/sim"
)

// Verdict is the outcome a processing stage assigns to a packet.
type Verdict uint8

const (
	// Pass lets the packet continue to the next stage.
	Pass Verdict = iota
	// Drop discards the packet (policy drop, not congestion).
	Drop
	// Consume means a stage took ownership (e.g. terminated a tunnel).
	Consume
)

func (v Verdict) String() string {
	switch v {
	case Pass:
		return "pass"
	case Drop:
		return "drop"
	case Consume:
		return "consume"
	default:
		return fmt.Sprintf("verdict(%d)", uint8(v))
	}
}

// DropReason says why a packet left the data plane without being delivered.
type DropReason uint8

const (
	NotDropped     DropReason = iota
	DropPolicy                // an NF verdict (ACL deny, invalid header, …)
	DropQueueFull             // congestion loss at a bounded queue
	DropReorder               // evicted from the reorder buffer by timeout
	DropCancelled             // duplicate cancelled after its twin won
	DropPathFailed            // lost to a failed lane (fail-stop refusal or drain)
)

func (d DropReason) String() string {
	switch d {
	case NotDropped:
		return "none"
	case DropPolicy:
		return "policy"
	case DropQueueFull:
		return "queue-full"
	case DropReorder:
		return "reorder-timeout"
	case DropCancelled:
		return "dup-cancelled"
	case DropPathFailed:
		return "path-failed"
	default:
		return fmt.Sprintf("drop(%d)", uint8(d))
	}
}

// Packet is one frame traversing the virtual data plane, together with the
// simulation metadata used to measure its last-mile latency.
type Packet struct {
	// ID is unique per packet; duplicates minted by the redundancy policy
	// share OrigID but have distinct IDs.
	ID     uint64
	OrigID uint64

	// Data holds the wire-format frame starting at the Ethernet header.
	Data []byte

	// Flow is the parsed five-tuple, cached at ingress. Stateful elements
	// that rewrite headers (NAT, LB) keep it consistent as they go.
	Flow FlowKey

	// FlowID is the immutable identity assigned at ingress (hash of the
	// original five-tuple). It survives NAT/LB rewrites, so the reorder
	// buffer and per-flow accounting key on it.
	FlowID uint64

	// Seq is the per-FlowID ingress sequence number; the reorder buffer
	// restores delivery in Seq order.
	Seq uint64

	// Virtual-time trace of the packet's last mile.
	Ingress   sim.Time // entered the vNIC
	Enqueued  sim.Time // enqueued on its assigned path
	ServiceAt sim.Time // began NF-chain service on a core
	Done      sim.Time // finished NF-chain service
	Delivered sim.Time // released in order to the guest

	// Deadline is the absolute virtual time by which the packet must be
	// delivered to count as on time (0 = no deadline). Stamped at ingress;
	// deadline-aware scheduling reads it, delivery accounting scores it.
	Deadline sim.Time

	// PathID is the multipath lane the scheduler chose (-1 = unset).
	PathID int

	// PathSeq is the per-path wire sequence of the copy that carried the
	// packet — set by the wire transport's receiver so traces can name the
	// exact admitted copy; always 0 in the simulator.
	PathSeq uint64

	// IsDup marks redundancy copies; Cancelled marks a copy whose twin won.
	IsDup     bool
	Cancelled bool

	Dropped DropReason

	// pooled is zero for a packet built by hand and tracks a Pool-minted
	// one (out with a holder, or back in the free list). One byte in the
	// struct's tail padding: the packet must not grow, the wire and live
	// engines allocate one per frame.
	pooled uint8
}

// Size returns the frame length in bytes.
func (p *Packet) Size() int { return len(p.Data) }

// QueueWait is the time spent waiting for a core, once known.
func (p *Packet) QueueWait() sim.Duration { return p.ServiceAt - p.Enqueued }

// ServiceTime is the NF-chain processing time, once known.
func (p *Packet) ServiceTime() sim.Duration { return p.Done - p.ServiceAt }

// ReorderWait is the in-order release delay after service, once known.
func (p *Packet) ReorderWait() sim.Duration { return p.Delivered - p.Done }

// Latency is the full last-mile latency: ingress to in-order delivery.
func (p *Packet) Latency() sim.Duration { return p.Delivered - p.Ingress }

// MissedDeadline reports whether a delivered packet blew its deadline.
// Always false for packets without one.
func (p *Packet) MissedDeadline() bool {
	return p.Deadline > 0 && p.Delivered > p.Deadline
}

func (p *Packet) String() string {
	return fmt.Sprintf("pkt(id=%d flow=%s seq=%d len=%d path=%d)",
		p.ID, p.Flow, p.Seq, len(p.Data), p.PathID)
}

// FlowKey is the canonical five-tuple identifying a transport flow.
type FlowKey struct {
	SrcIP   uint32
	DstIP   uint32
	SrcPort uint16
	DstPort uint16
	Proto   uint8
}

func (k FlowKey) String() string {
	return fmt.Sprintf("%s:%d>%s:%d/%d",
		ipString(k.SrcIP), k.SrcPort, ipString(k.DstIP), k.DstPort, k.Proto)
}

// Reverse returns the key of the opposite direction, used by NAT to match
// return traffic.
func (k FlowKey) Reverse() FlowKey {
	return FlowKey{
		SrcIP: k.DstIP, DstIP: k.SrcIP,
		SrcPort: k.DstPort, DstPort: k.SrcPort,
		Proto: k.Proto,
	}
}

func ipString(ip uint32) string {
	return fmt.Sprintf("%d.%d.%d.%d", byte(ip>>24), byte(ip>>16), byte(ip>>8), byte(ip))
}

// IP4 packs four octets into the uint32 form used by FlowKey.
func IP4(a, b, c, d byte) uint32 {
	return uint32(a)<<24 | uint32(b)<<16 | uint32(c)<<8 | uint32(d)
}
