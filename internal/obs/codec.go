package obs

import (
	"encoding/binary"
	"errors"
	"io"

	"mpdp/internal/sim"
)

// Binary event-stream format (little endian):
//
//	header:  8-byte magic "MPDPOBS1"
//	record:  int64 time_ns | uint8 kind | uint64 pkt_id | uint64 orig_id |
//	         uint64 flow_id | uint64 seq | int32 path | int64 a | int64 b
//
// Records are fixed-size (61 bytes) and emission-ordered; times are
// non-decreasing because hooks emit at the simulator's current time.
// Writer and Reader both enforce the invariants (defined kind, time ≥ 0 and
// non-decreasing, path ≥ -1), so a truncated or corrupted stream is
// detected rather than silently misparsed. The stream machinery is shared
// with the wire codec (stream.go); this file is the OBS1 schema.

// MagicOBS identifies an event stream.
var MagicOBS = [8]byte{'M', 'P', 'D', 'P', 'O', 'B', 'S', '1'}

// recordSize is the encoded size of one event.
const recordSize = 8 + 1 + 8 + 8 + 8 + 8 + 4 + 8 + 8

// Errors returned by the codec.
var (
	ErrBadMagic     = errors.New("obs: bad magic (not an MPDP event stream)")
	ErrCorrupt      = errors.New("obs: corrupt record")
	ErrNonMonotonic = errors.New("obs: event times must be non-decreasing")
)

var obsSchema = schema[Event]{
	magic: MagicOBS, size: recordSize,
	badMagic: ErrBadMagic, corrupt: ErrCorrupt,
	put: func(rec []byte, ev Event) {
		binary.LittleEndian.PutUint64(rec[0:8], uint64(ev.Time))
		rec[8] = byte(ev.Kind)
		binary.LittleEndian.PutUint64(rec[9:17], ev.PktID)
		binary.LittleEndian.PutUint64(rec[17:25], ev.OrigID)
		binary.LittleEndian.PutUint64(rec[25:33], ev.FlowID)
		binary.LittleEndian.PutUint64(rec[33:41], ev.Seq)
		binary.LittleEndian.PutUint32(rec[41:45], uint32(ev.Path))
		binary.LittleEndian.PutUint64(rec[45:53], uint64(ev.A))
		binary.LittleEndian.PutUint64(rec[53:61], uint64(ev.B))
	},
	get: func(rec []byte) Event {
		return Event{
			Time:   sim.Time(binary.LittleEndian.Uint64(rec[0:8])),
			Kind:   Kind(rec[8]),
			PktID:  binary.LittleEndian.Uint64(rec[9:17]),
			OrigID: binary.LittleEndian.Uint64(rec[17:25]),
			FlowID: binary.LittleEndian.Uint64(rec[25:33]),
			Seq:    binary.LittleEndian.Uint64(rec[33:41]),
			Path:   int32(binary.LittleEndian.Uint32(rec[41:45])),
			A:      int64(binary.LittleEndian.Uint64(rec[45:53])),
			B:      int64(binary.LittleEndian.Uint64(rec[53:61])),
		}
	},
	valid: func(ev Event) bool {
		return int(ev.Kind) < NumKinds && ev.Time >= 0 && ev.Path >= -1
	},
	time: func(ev Event) int64 { return int64(ev.Time) },
}

// Writer streams events to an io.Writer: Write appends one event (times
// must be non-decreasing and the kind defined), Count and BytesWritten
// report progress, Flush must be called when done.
type Writer = streamWriter[Event]

// NewWriter writes the header and returns a Writer. Call Flush when done.
func NewWriter(w io.Writer) (*Writer, error) { return newStreamWriter(&obsSchema, w) }

// Reader streams events from an io.Reader: Next returns the next event, or
// io.EOF at a clean end of stream (a partial trailing record is
// ErrCorrupt); Count reports how many were read.
type Reader = streamReader[Event]

// NewReader validates the header and returns a Reader.
func NewReader(r io.Reader) (*Reader, error) { return newStreamReader(&obsSchema, r) }

// ReadAll drains the stream into memory.
func ReadAll(r io.Reader) ([]Event, error) { return readAll(&obsSchema, r) }

// WriteAll encodes events to w in one call (header + records + flush).
func WriteAll(w io.Writer, events []Event) error { return writeAll(&obsSchema, w, events) }
