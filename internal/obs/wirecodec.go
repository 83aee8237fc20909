package obs

import (
	"encoding/binary"
	"errors"
	"io"
)

// Binary wire-event-stream format (little endian), the MPDPOBS1 sibling
// for wire traces:
//
//	header:  8-byte magic "MPDPWIR1"
//	record:  int64 nanos | uint8 kind | uint8 end | uint32 path |
//	         uint64 flow_id | uint64 seq | uint64 path_seq |
//	         int64 a | int64 b
//
// Records are fixed-size (54 bytes) and ring-ordered. Unlike MPDPOBS1,
// timestamps are NOT required to be monotone: one file may interleave two
// endpoints' clocks (the gateway writes the sender stream then the
// receiver stream), and within one endpoint concurrent emitters may
// serialize slightly out of timestamp order. Everything else the OBS
// codec enforces — magic, kind and endpoint bounds, path ≥ -1, no
// negative timestamps, truncation detected — holds here too (it is the
// same stream machinery, stream.go, under this file's schema), and the
// decoder is fuzzed to never panic on arbitrary input.

// MagicWIR identifies a wire event stream.
var MagicWIR = [8]byte{'M', 'P', 'D', 'P', 'W', 'I', 'R', '1'}

// wireRecordSize is the encoded size of one wire event.
const wireRecordSize = 8 + 1 + 1 + 4 + 8 + 8 + 8 + 8 + 8

// Errors returned by the wire codec.
var (
	ErrWireBadMagic = errors.New("obs: bad magic (not an MPDP wire event stream)")
	ErrWireCorrupt  = errors.New("obs: corrupt wire record")
)

var wireSchema = schema[WireEvent]{
	magic: MagicWIR, size: wireRecordSize,
	badMagic: ErrWireBadMagic, corrupt: ErrWireCorrupt,
	put: func(rec []byte, ev WireEvent) {
		binary.LittleEndian.PutUint64(rec[0:8], uint64(ev.Nanos))
		rec[8] = byte(ev.Kind)
		rec[9] = byte(ev.End)
		binary.LittleEndian.PutUint32(rec[10:14], uint32(ev.Path))
		binary.LittleEndian.PutUint64(rec[14:22], ev.FlowID)
		binary.LittleEndian.PutUint64(rec[22:30], ev.Seq)
		binary.LittleEndian.PutUint64(rec[30:38], ev.PathSeq)
		binary.LittleEndian.PutUint64(rec[38:46], uint64(ev.A))
		binary.LittleEndian.PutUint64(rec[46:54], uint64(ev.B))
	},
	get: func(rec []byte) WireEvent {
		return WireEvent{
			Nanos:   int64(binary.LittleEndian.Uint64(rec[0:8])),
			Kind:    WireKind(rec[8]),
			End:     WireEnd(rec[9]),
			Path:    int32(binary.LittleEndian.Uint32(rec[10:14])),
			FlowID:  binary.LittleEndian.Uint64(rec[14:22]),
			Seq:     binary.LittleEndian.Uint64(rec[22:30]),
			PathSeq: binary.LittleEndian.Uint64(rec[30:38]),
			A:       int64(binary.LittleEndian.Uint64(rec[38:46])),
			B:       int64(binary.LittleEndian.Uint64(rec[46:54])),
		}
	},
	valid: func(ev WireEvent) bool {
		return int(ev.Kind) < NumWireKinds && int(ev.End) < NumWireEnds && ev.Nanos >= 0 && ev.Path >= -1
	},
}

// WireWriter streams wire events to an io.Writer: Write appends one event
// (kind and endpoint defined, path ≥ -1, timestamp non-negative — the
// invariants the reader enforces), Count and BytesWritten report progress,
// Flush must be called when done.
type WireWriter = streamWriter[WireEvent]

// NewWireWriter writes the header and returns a WireWriter. Call Flush
// when done.
func NewWireWriter(w io.Writer) (*WireWriter, error) { return newStreamWriter(&wireSchema, w) }

// WireReader streams wire events from an io.Reader: Next returns the next
// event, or io.EOF at a clean end of stream (a partial trailing record is
// ErrWireCorrupt); Count reports how many were read.
type WireReader = streamReader[WireEvent]

// NewWireReader validates the header and returns a WireReader.
func NewWireReader(r io.Reader) (*WireReader, error) { return newStreamReader(&wireSchema, r) }

// ReadAllWire drains a wire stream into memory.
func ReadAllWire(r io.Reader) ([]WireEvent, error) { return readAll(&wireSchema, r) }

// WriteAllWire encodes events to w in one call (header + records +
// flush). The gateway uses it to concatenate the sender and receiver
// rings into one merged trace file.
func WriteAllWire(w io.Writer, events []WireEvent) error { return writeAll(&wireSchema, w, events) }
