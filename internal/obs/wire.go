package obs

import (
	"sync"
	"sync/atomic"
)

// Wire tracing: the flight recorder taken onto the real UDP data plane.
//
// Where the simulator's Recorder lives in virtual time and is fed by the
// engine's deterministic hooks, the wire recorder captures per-frame
// lifecycle events from internal/transport's Sender and Receiver — two
// endpoints with two clocks, possibly in two processes on two hosts. Each
// endpoint records into its own fixed-capacity ring; the merge layer
// (MergeWire) later joins the two streams by (FlowID, Seq), estimates the
// clock offset from the ack stream's RTT echo, and decomposes every
// sampled packet's end-to-end latency into exact per-stage attribution.
//
// Sampling policy (the three layers that make the recorder tail-usable at
// line rate with bounded memory):
//
//  1. Deterministic flow-seq hash sampling. Both endpoints apply the same
//     predicate WireSampled(flow, seq) — a function of the packet's
//     identity alone — so the sender and receiver always capture the SAME
//     packets and every sampled packet can be merged end to end. No
//     coordination, no trace-context header bytes on the wire.
//  2. A recency ring. The recorder keeps the most recent capacity events
//     and overwrites the oldest, crash-recorder style: the tail of a run
//     is always available at bounded memory.
//  3. Slowest-K selection at merge time. The merge layer ranks timelines
//     by end-to-end latency, so reports and Chrome exports lead with the
//     tail — the packets the paper says the last mile is about.
//
// Ack events are never flow-sampled: they are the clock-offset signal and
// cost one event per cumulative ack, not per packet.
type WireRecorder struct {
	mu      sync.Mutex
	end     WireEnd
	buf     []WireEvent
	next    int    // ring write cursor
	n       int    // live entries (≤ cap)
	emitted uint64 // total events ever emitted

	// mask is the sample-rate mask (rate rounded up to a power of two,
	// minus one). Atomic so the tail sentinel can ramp capture to full the
	// instant an episode starts without pausing the emitters — Sampled
	// stays a single load on the hot path.
	mask atomic.Uint64
}

// WireEnd identifies which endpoint of the wire recorded an event.
type WireEnd uint8

const (
	// WireSender events carry sender-clock timestamps.
	WireSender WireEnd = iota
	// WireReceiver events carry receiver-clock timestamps.
	WireReceiver

	numWireEnds // sentinel: keep last
)

// NumWireEnds is the number of defined endpoints (decoder bound).
const NumWireEnds = int(numWireEnds)

func (e WireEnd) String() string {
	switch e {
	case WireSender:
		return "sender"
	case WireReceiver:
		return "receiver"
	default:
		return "end(?)"
	}
}

// WireKind identifies a wire-path lifecycle event.
type WireKind uint8

const (
	// WireEnqueue: the sender accepted an application packet. Nanos is the
	// accept time — also the SendNanos stamped into every wire copy's
	// header, so the receiver can reconstruct it without sender events.
	// A is the payload length in bytes.
	WireEnqueue WireKind = iota
	// WireSched: the path scheduler's verdict for the packet. Path is the
	// primary pick, A the number of wire copies (canary included), B the
	// WireSched* verdict bits (deadline/dup decisions, canary, fallback).
	WireSched
	// WireTx: one wire copy left the socket. Path and PathSeq name the
	// copy; Nanos is post-write, A holds the frame flags. Emitted even for
	// frames an impairer will drop or delay — the sender cannot know.
	WireTx
	// WireAckTx: the receiver sent a cumulative ack on a path. A is the
	// total distinct frames received, B the high-water path seq.
	WireAckTx
	// WireAckRx: the sender folded a cumulative ack into path accounting.
	// A is the RTT sample in nanoseconds (0 = the ack carried no fresh
	// echo), B the newly conclusive loss count.
	WireAckRx
	// WireRx: a data frame arrived (fresh or duplicate). Path and PathSeq
	// name the copy, A echoes the header's SendNanos (sender clock), B
	// holds the frame flags.
	WireRx
	// WireDedup: a copy was discarded before the reorder stage. A is 1 for
	// a wire-level duplicate (same PathSeq twice on one path), 0 for a
	// hedged sibling (first copy of (flow, seq) already admitted).
	WireDedup
	// WireDeliver: the packet was released in order to the application.
	// Emitted after the deliver callback returns: Path and PathSeq name
	// the admitted copy, A is its arrival time, B the release time before
	// the callback ran. ReorderWait = B−A, Deliver = Nanos−B.
	WireDeliver
	// WireLost: the packet's sequence was abandoned by a reorder gap
	// timeout and a straggler copy arrived too late to matter.
	WireLost

	numWireKinds // sentinel: keep last
)

// NumWireKinds is the number of defined wire event kinds (decoder bound).
const NumWireKinds = int(numWireKinds)

func (k WireKind) String() string {
	switch k {
	case WireEnqueue:
		return "enqueue"
	case WireSched:
		return "sched"
	case WireTx:
		return "tx"
	case WireAckTx:
		return "ack-tx"
	case WireAckRx:
		return "ack-rx"
	case WireRx:
		return "rx"
	case WireDedup:
		return "dedup-drop"
	case WireDeliver:
		return "deliver"
	case WireLost:
		return "lost"
	default:
		return "kind(?)"
	}
}

// WireSched verdict bits (the B argument of a WireSched event).
const (
	// WireSchedCanary: a canary copy onto a probing path rode along.
	WireSchedCanary int64 = 1 << 0
	// WireSchedAtRisk: the deadline scheduler judged the packet's budget
	// at risk on even the best path.
	WireSchedAtRisk int64 = 1 << 1
	// WireSchedDup: the deadline scheduler granted a protective duplicate.
	WireSchedDup int64 = 1 << 2
	// WireSchedDenied: duplication was wanted but withheld (no second
	// path, or the duplication-bytes budget refused the spend).
	WireSchedDenied int64 = 1 << 3
	// WireSchedFallback: no path was health-eligible; the scheduler
	// ignored health to keep traffic (and the watchdogs) flowing.
	WireSchedFallback int64 = 1 << 4
)

// WireEvent is one wire flight-recorder entry. The fixed shape (no
// pointers, no strings) keeps recording allocation-free and the binary
// codec trivial — the same discipline as the simulator's Event.
type WireEvent struct {
	// Nanos is the recording endpoint's monotone unix-nanosecond clock.
	// Sender and receiver clocks are NOT the same clock: the merge layer
	// estimates their offset before comparing across endpoints.
	Nanos int64
	Kind  WireKind
	End   WireEnd

	// Path is the wire path involved, -1 when not applicable.
	Path int32

	// Packet identity: the per-flow sequence is the cross-endpoint join
	// key, the per-path sequence names one wire copy. Zero for path-scoped
	// events (acks).
	FlowID  uint64
	Seq     uint64
	PathSeq uint64

	// A and B are kind-specific arguments (see the WireKind doc comments).
	A, B int64
}

// DefaultWireRecorderCap is the default ring capacity (events).
const DefaultWireRecorderCap = 1 << 16

// NewWireRecorder builds a recorder for one endpoint holding the last
// capacity events (DefaultWireRecorderCap when ≤ 0) and sampling roughly
// one in sampleEvery packets (rounded up to a power of two; ≤ 1 samples
// every packet). Safe for concurrent emitters: the sender's ack readers
// and the receiver's per-path read loops all share one ring.
func NewWireRecorder(end WireEnd, capacity, sampleEvery int) *WireRecorder {
	if capacity <= 0 {
		capacity = DefaultWireRecorderCap
	}
	r := &WireRecorder{end: end, buf: make([]WireEvent, capacity)}
	r.mask.Store(sampleMask(sampleEvery))
	return r
}

// sampleMask converts a sample-every rate into the hash mask Sampled
// tests against: the rate rounds up to a power of two, ≤ 1 means every
// packet.
func sampleMask(sampleEvery int) uint64 {
	rate := uint64(1)
	for int(rate) < sampleEvery {
		rate <<= 1
	}
	return rate - 1
}

// End returns the endpoint this recorder records for.
func (r *WireRecorder) End() WireEnd { return r.end }

// SampleEvery returns the effective sampling rate (a power of two).
func (r *WireRecorder) SampleEvery() int { return int(r.mask.Load() + 1) }

// SetSampleEvery atomically retunes the sampling rate (rounded up to a
// power of two; ≤ 1 samples every packet) and returns the previous
// effective rate. This is the sampling-ramp hook: the tail sentinel calls
// it on both endpoints' recorders when an episode starts (ramp to full)
// and ends (restore). Emitters racing the store see either rate — both
// are valid samples, and the deterministic (flow, seq) predicate means
// the two endpoints still agree on every packet captured under the
// common rate.
func (r *WireRecorder) SetSampleEvery(sampleEvery int) int {
	return int(r.mask.Swap(sampleMask(sampleEvery)) + 1)
}

// wireSampleMix is a splitmix64-style finalizer over the packet identity:
// cheap, stateless, and identical on both endpoints, so the sender and
// receiver always sample the same packets.
func wireSampleMix(flow, seq uint64) uint64 {
	x := flow*0x9e3779b97f4a7c15 + seq
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return x
}

// Sampled reports whether the packet (flow, seq) is in the sample. Pure
// arithmetic on the identity: no state, no lock, no allocation.
//
//mpdp:hotpath bench=BenchmarkWireSampled
func (r *WireRecorder) Sampled(flow, seq uint64) bool {
	return wireSampleMix(flow, seq)&r.mask.Load() == 0
}

// Emit records one event, stamping the recorder's endpoint. The ring
// write is allocation-free: one struct copy into the preallocated buffer
// under a short mutex hold (emitters are concurrent goroutines — path
// readers, the reorder driver, ack readers).
//
//mpdp:hotpath bench=BenchmarkWireRecorderEmit
func (r *WireRecorder) Emit(ev WireEvent) {
	ev.End = r.end
	r.mu.Lock()
	r.buf[r.next] = ev
	r.next++
	if r.next == len(r.buf) {
		r.next = 0
	}
	if r.n < len(r.buf) {
		r.n++
	}
	r.emitted++
	r.mu.Unlock()
}

// Len returns the number of events currently held.
func (r *WireRecorder) Len() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.n
}

// Emitted returns the total number of events ever emitted at the ring.
func (r *WireRecorder) Emitted() uint64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.emitted
}

// Overwritten returns how many events the ring has already discarded.
func (r *WireRecorder) Overwritten() uint64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.emitted - uint64(r.n)
}

// Events returns the held events, oldest first (a copy; the ring keeps
// recording).
func (r *WireRecorder) Events() []WireEvent {
	evs, _ := r.SnapshotSince(0)
	return evs
}

// SnapshotSince returns the still-held events whose emit index (0-based,
// monotone over the recorder's life) is ≥ since, oldest first, along with
// the current emit count — the mark to pass next time. The pair makes the
// ring a crash-recorder with an incremental read API: the tail sentinel
// snapshots the pre-trigger history with SnapshotSince(0) at episode
// start, then fetches exactly the episode's own events at the end with
// SnapshotSince(mark), and the two slices never overlap.
func (r *WireRecorder) SnapshotSince(since uint64) ([]WireEvent, uint64) {
	r.mu.Lock()
	defer r.mu.Unlock()
	count := r.n
	if oldest := r.emitted - uint64(r.n); since > oldest { // oldest held event's emit index
		count -= int(min(since-oldest, uint64(r.n)))
	}
	older, newer := ringSpans(r.buf, r.next, count)
	return append(append(make([]WireEvent, 0, count), older...), newer...), r.emitted
}
