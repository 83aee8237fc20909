package obs

import (
	"bufio"
	"io"
)

// Both trace formats (MPDPOBS1 in codec.go, MPDPWIR1 in wirecodec.go) are
// the same stream: an 8-byte magic, then fixed-size little-endian records
// to end of file. A schema holds what differs between them; the stream
// writer and reader below own what does not — header, buffering, truncation
// detection, counting — so the two codecs cannot drift apart.

// maxRecordSize bounds schema.size (the scratch record buffer's size).
const maxRecordSize = 64

// schema describes one record format.
type schema[E any] struct {
	magic             [8]byte
	size              int // encoded record size in bytes
	badMagic, corrupt error
	put               func(rec []byte, ev E)
	get               func(rec []byte) E
	// valid reports whether ev is inside the format's per-record bounds.
	// Writer and reader enforce the same predicate, so a stream the
	// writer produced always reads back.
	valid func(ev E) bool
	// time is non-nil when the format requires non-decreasing timestamps
	// along the stream (ErrNonMonotonic otherwise).
	time func(ev E) int64
}

// admit applies the schema's rules to the next record of a stream whose
// latest timestamp is *last. Events travel by value through the schema's
// funcs so that a Write or Next allocates nothing.
func (s *schema[E]) admit(ev E, last *int64) error {
	if !s.valid(ev) {
		return s.corrupt
	}
	if s.time != nil {
		t := s.time(ev)
		if t < *last {
			return ErrNonMonotonic
		}
		*last = t
	}
	return nil
}

// streamWriter streams one schema's events to an io.Writer.
type streamWriter[E any] struct {
	s    *schema[E]
	w    *bufio.Writer
	last int64
	n    uint64
	rec  [maxRecordSize]byte
}

// newStreamWriter writes the header and returns a writer.
func newStreamWriter[E any](s *schema[E], w io.Writer) (*streamWriter[E], error) {
	bw := bufio.NewWriter(w)
	if _, err := bw.Write(s.magic[:]); err != nil {
		return nil, err
	}
	return &streamWriter[E]{s: s, w: bw}, nil
}

// Write appends one event, rejecting any the reader would reject.
func (sw *streamWriter[E]) Write(ev E) error {
	if err := sw.s.admit(ev, &sw.last); err != nil {
		return err
	}
	rec := sw.rec[:sw.s.size]
	sw.s.put(rec, ev)
	if _, err := sw.w.Write(rec); err != nil {
		return err
	}
	sw.n++
	return nil
}

// Count returns the number of events written.
func (sw *streamWriter[E]) Count() uint64 { return sw.n }

// BytesWritten returns the encoded size so far (header included).
func (sw *streamWriter[E]) BytesWritten() int64 {
	return int64(len(sw.s.magic)) + int64(sw.n)*int64(sw.s.size)
}

// Flush flushes buffered records to the underlying writer.
func (sw *streamWriter[E]) Flush() error { return sw.w.Flush() }

// streamReader streams one schema's events from an io.Reader.
type streamReader[E any] struct {
	s    *schema[E]
	r    *bufio.Reader
	last int64
	n    uint64
	rec  [maxRecordSize]byte
}

// newStreamReader validates the header and returns a reader.
func newStreamReader[E any](s *schema[E], r io.Reader) (*streamReader[E], error) {
	br := bufio.NewReader(r)
	var magic [8]byte
	if _, err := io.ReadFull(br, magic[:]); err != nil || magic != s.magic {
		return nil, s.badMagic
	}
	return &streamReader[E]{s: s, r: br}, nil
}

// Next returns the next event, or io.EOF at a clean end of stream. A
// partial trailing record is reported as the schema's corrupt error, never
// as success.
func (sr *streamReader[E]) Next() (E, error) {
	var none E
	rec := sr.rec[:sr.s.size]
	if _, err := io.ReadFull(sr.r, rec); err != nil {
		if err == io.EOF {
			return none, io.EOF
		}
		return none, sr.s.corrupt
	}
	ev := sr.s.get(rec)
	if err := sr.s.admit(ev, &sr.last); err != nil {
		return none, err
	}
	sr.n++
	return ev, nil
}

// Count returns the number of events read so far.
func (sr *streamReader[E]) Count() uint64 { return sr.n }

// readAll drains a stream into memory.
func readAll[E any](s *schema[E], r io.Reader) ([]E, error) {
	sr, err := newStreamReader(s, r)
	if err != nil {
		return nil, err
	}
	var out []E
	for {
		ev, err := sr.Next()
		if err == io.EOF {
			return out, nil
		}
		if err != nil {
			return nil, err
		}
		out = append(out, ev)
	}
}

// writeAll encodes events to w in one call (header + records + flush).
func writeAll[E any](s *schema[E], w io.Writer, events []E) error {
	sw, err := newStreamWriter(s, w)
	if err != nil {
		return err
	}
	for _, ev := range events {
		if err := sw.Write(ev); err != nil {
			return err
		}
	}
	return sw.Flush()
}
