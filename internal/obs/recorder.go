package obs

import "io"

// Recorder is the flight recorder: a fixed-capacity ring buffer of the
// most recent events. When full it overwrites the oldest entry, like a
// crash recorder — the tail of a run is always available at bounded
// memory, no matter how long the run was.
//
// Recording is allocation-free after construction and purely
// deterministic: the ring's contents are a function of the emitted event
// sequence alone.
type Recorder struct {
	buf     []Event
	next    int    // ring write cursor
	n       int    // live entries (≤ cap)
	emitted uint64 // total events ever emitted
}

// DefaultRecorderCap is the default ring capacity (events).
const DefaultRecorderCap = 1 << 16

// NewRecorder builds a recorder holding the last capacity events
// (DefaultRecorderCap when ≤ 0).
func NewRecorder(capacity int) *Recorder {
	if capacity <= 0 {
		capacity = DefaultRecorderCap
	}
	return &Recorder{buf: make([]Event, capacity)}
}

// Emit implements Sink. The ring write is allocation-free: one struct
// copy into the preallocated buffer.
//
//mpdp:hotpath bench=BenchmarkRecorderEmit
func (r *Recorder) Emit(ev Event) {
	r.buf[r.next] = ev
	r.next = (r.next + 1) % len(r.buf)
	if r.n < len(r.buf) {
		r.n++
	}
	r.emitted++
}

// Len returns the number of events currently held.
func (r *Recorder) Len() int { return r.n }

// Emitted returns the total number of events ever emitted at the ring.
func (r *Recorder) Emitted() uint64 { return r.emitted }

// Overwritten returns how many events the ring has already discarded.
func (r *Recorder) Overwritten() uint64 { return r.emitted - uint64(r.n) }

// Events returns the held events, oldest first (a copy; the ring keeps
// recording).
func (r *Recorder) Events() []Event {
	older, newer := ringSpans(r.buf, r.next, r.n)
	return append(append(make([]Event, 0, r.n), older...), newer...)
}

// WriteTo encodes the held events, oldest first, in the MPDPOBS1 binary
// format. It returns the number of bytes written.
func (r *Recorder) WriteTo(w io.Writer) (int64, error) {
	ew, err := NewWriter(w)
	if err != nil {
		return 0, err
	}
	older, newer := ringSpans(r.buf, r.next, r.n)
	for _, span := range [][]Event{older, newer} {
		for _, ev := range span {
			if err := ew.Write(ev); err != nil {
				return ew.BytesWritten(), err
			}
		}
	}
	err = ew.Flush()
	return ew.BytesWritten(), err
}

// ringSpans returns the last count entries of a ring whose write cursor is
// next, oldest first, as the (up to) two contiguous runs of buf holding
// them. The slices alias buf: copy them out to keep them past the next
// write.
func ringSpans[E any](buf []E, next, count int) (older, newer []E) {
	start := next - count
	if start >= 0 {
		return buf[start:next], nil
	}
	return buf[start+len(buf):], buf[:next]
}
