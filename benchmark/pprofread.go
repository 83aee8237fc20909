package main

import (
	"bytes"
	"compress/gzip"
	"errors"
	"fmt"
	"io"
)

// A minimal reader for the pprof profile format (gzip-compressed protobuf,
// github.com/google/pprof/proto/profile.proto), enough to fold a CPU
// profile by function name without leaving the standard library. Field
// numbers used:
//
//	Profile:  2 sample, 4 location, 5 function, 6 string_table
//	Sample:   1 location_id (leaf first), 2 value
//	Location: 1 id, 4 line (innermost inlined function first)
//	Line:     1 function_id
//	Function: 1 id, 2 name (string_table index)

// profSample is one stack of a profile: function names, leaf first, and the
// value of the profile's first sample type (for a CPU profile, the number
// of samples that hit the stack).
type profSample struct {
	stack []string
	count int64
}

var errTruncated = errors.New("pprof: truncated message")

// pbField is one decoded protobuf field: a varint (wire type 0) or a
// length-delimited payload (wire type 2). Fixed-width fields are skipped.
type pbField struct {
	num  int
	wire int
	val  uint64
	data []byte
}

func pbVarint(b []byte) (uint64, []byte, error) {
	var v uint64
	for i := 0; i < len(b) && i < 10; i++ {
		v |= uint64(b[i]&0x7f) << (7 * uint(i))
		if b[i] < 0x80 {
			return v, b[i+1:], nil
		}
	}
	return 0, nil, errTruncated
}

// pbNext decodes the field at the head of b and returns the rest.
func pbNext(b []byte) (pbField, []byte, error) {
	key, b, err := pbVarint(b)
	if err != nil {
		return pbField{}, nil, err
	}
	f := pbField{num: int(key >> 3), wire: int(key & 7)}
	switch f.wire {
	case 0:
		f.val, b, err = pbVarint(b)
	case 1:
		if len(b) < 8 {
			return f, nil, errTruncated
		}
		b = b[8:]
	case 2:
		var n uint64
		if n, b, err = pbVarint(b); err == nil {
			if n > uint64(len(b)) {
				return f, nil, errTruncated
			}
			f.data, b = b[:n], b[n:]
		}
	case 5:
		if len(b) < 4 {
			return f, nil, errTruncated
		}
		b = b[4:]
	default:
		return f, nil, fmt.Errorf("pprof: unsupported wire type %d", f.wire)
	}
	return f, b, err
}

// pbEach calls fn for every field of message b.
func pbEach(b []byte, fn func(pbField) error) error {
	for len(b) > 0 {
		f, rest, err := pbNext(b)
		if err != nil {
			return err
		}
		if err := fn(f); err != nil {
			return err
		}
		b = rest
	}
	return nil
}

// pbUints appends the values of a repeated integer field, packed or not.
func pbUints(dst []uint64, f pbField) ([]uint64, error) {
	if f.wire == 0 {
		return append(dst, f.val), nil
	}
	b := f.data
	for len(b) > 0 {
		v, rest, err := pbVarint(b)
		if err != nil {
			return dst, err
		}
		dst, b = append(dst, v), rest
	}
	return dst, nil
}

// readProfile decodes a gzip-compressed pprof profile into its samples.
func readProfile(gz []byte) ([]profSample, error) {
	zr, err := gzip.NewReader(bytes.NewReader(gz))
	if err != nil {
		return nil, fmt.Errorf("pprof: %w", err)
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, fmt.Errorf("pprof: %w", err)
	}

	type rawSample struct {
		locs  []uint64
		value int64
	}
	var (
		samples   []rawSample
		locFuncs  = map[uint64][]uint64{} // location id -> function ids, innermost first
		funcNames = map[uint64]uint64{}   // function id -> string_table index
		strs      []string
	)
	err = pbEach(raw, func(f pbField) error {
		if f.wire != 2 {
			return nil
		}
		switch f.num {
		case 2: // sample
			var s rawSample
			var vals []uint64
			if err := pbEach(f.data, func(sf pbField) (err error) {
				switch sf.num {
				case 1:
					s.locs, err = pbUints(s.locs, sf)
				case 2:
					vals, err = pbUints(vals, sf)
				}
				return err
			}); err != nil {
				return err
			}
			if len(vals) > 0 {
				s.value = int64(vals[0])
			}
			samples = append(samples, s)
		case 4: // location
			var id uint64
			var fns []uint64
			if err := pbEach(f.data, func(lf pbField) error {
				switch {
				case lf.num == 1 && lf.wire == 0:
					id = lf.val
				case lf.num == 4 && lf.wire == 2:
					return pbEach(lf.data, func(ln pbField) error {
						if ln.num == 1 && ln.wire == 0 {
							fns = append(fns, ln.val)
						}
						return nil
					})
				}
				return nil
			}); err != nil {
				return err
			}
			locFuncs[id] = fns
		case 5: // function
			var id, name uint64
			if err := pbEach(f.data, func(ff pbField) error {
				if ff.wire == 0 {
					switch ff.num {
					case 1:
						id = ff.val
					case 2:
						name = ff.val
					}
				}
				return nil
			}); err != nil {
				return err
			}
			funcNames[id] = name
		case 6: // string_table
			strs = append(strs, string(f.data))
		}
		return nil
	})
	if err != nil {
		return nil, err
	}

	out := make([]profSample, 0, len(samples))
	for _, s := range samples {
		ps := profSample{count: s.value}
		for _, loc := range s.locs {
			for _, fn := range locFuncs[loc] {
				if idx := funcNames[fn]; idx < uint64(len(strs)) {
					ps.stack = append(ps.stack, strs[idx])
				}
			}
		}
		out = append(out, ps)
	}
	return out, nil
}
