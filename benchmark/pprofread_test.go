package main

import (
	"bytes"
	"compress/gzip"
	"os"
	"reflect"
	"strings"
	"testing"
)

// Tiny protobuf encoder for building profiles by hand.
func pbPutVarint(b []byte, v uint64) []byte {
	for v >= 0x80 {
		b = append(b, byte(v)|0x80)
		v >>= 7
	}
	return append(b, byte(v))
}

func pbPutUint(b []byte, field int, v uint64) []byte {
	return pbPutVarint(pbPutVarint(b, uint64(field)<<3), v)
}

func pbPutBytes(b []byte, field int, data []byte) []byte {
	b = pbPutVarint(b, uint64(field)<<3|2)
	return append(pbPutVarint(b, uint64(len(data))), data...)
}

func pbPacked(vals ...uint64) []byte {
	var b []byte
	for _, v := range vals {
		b = pbPutVarint(b, v)
	}
	return b
}

func gz(t *testing.T, raw []byte) []byte {
	t.Helper()
	var buf bytes.Buffer
	zw := gzip.NewWriter(&buf)
	if _, err := zw.Write(raw); err != nil {
		t.Fatal(err)
	}
	if err := zw.Close(); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

func TestReadProfileHandBuilt(t *testing.T) {
	strs := []string{"", "samples", "count", "runtime.memmove", "mpdp/internal/transport.AppendFrame", "main.send", "inlined.leaf"}
	var p []byte
	p = pbPutBytes(p, 1, pbPutUint(pbPutUint(nil, 1, 1), 2, 2)) // sample_type, ignored
	// Sample 1: packed location ids, two values (the first one counts).
	p = pbPutBytes(p, 2, pbPutBytes(pbPutBytes(nil, 1, pbPacked(1, 2, 3)), 2, pbPacked(7, 70000)))
	// Sample 2: unpacked repeated fields.
	s2 := pbPutUint(pbPutUint(nil, 1, 3), 2, 5)
	p = pbPutBytes(p, 2, s2)
	// Location 1 has an inlined function: two lines, innermost first.
	line := func(fn uint64) []byte { return pbPutUint(pbPutUint(nil, 1, fn), 2, 42) }
	p = pbPutBytes(p, 4, pbPutBytes(pbPutBytes(pbPutUint(pbPutUint(nil, 1, 1), 3, 0xdeadbeef), 4, line(4)), 4, line(1)))
	p = pbPutBytes(p, 4, pbPutBytes(pbPutUint(nil, 1, 2), 4, line(2)))
	p = pbPutBytes(p, 4, pbPutBytes(pbPutUint(nil, 1, 3), 4, line(3)))
	for id, name := range map[uint64]uint64{1: 3, 2: 4, 3: 5, 4: 6} {
		p = pbPutBytes(p, 5, pbPutUint(pbPutUint(pbPutUint(nil, 1, id), 2, name), 4, 0))
	}
	for _, s := range strs {
		p = pbPutBytes(p, 6, []byte(s))
	}
	p = pbPutUint(p, 9, 12345)                              // time_nanos: a varint field to skip
	p = append(pbPutVarint(p, 15<<3|1), make([]byte, 8)...) // a fixed64 field to skip

	got, err := readProfile(gz(t, p))
	if err != nil {
		t.Fatal(err)
	}
	want := []profSample{
		{stack: []string{"inlined.leaf", "runtime.memmove", "mpdp/internal/transport.AppendFrame", "main.send"}, count: 7},
		{stack: []string{"main.send"}, count: 5},
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("got %+v\nwant %+v", got, want)
	}
	if l := layerOfCPU(got[0].stack); l != "transport" {
		t.Errorf("sample 1 folds to %q, want transport", l)
	}
	if l := layerOfCPU(got[1].stack); l != "harness" {
		t.Errorf("sample 2 folds to %q, want harness", l)
	}
}

func TestReadProfileRejectsGarbage(t *testing.T) {
	if _, err := readProfile([]byte("not gzip")); err == nil {
		t.Error("plain bytes accepted")
	}
	// A length-delimited field that claims more bytes than there are.
	if _, err := readProfile(gz(t, []byte{2<<3 | 2, 200, 1})); err == nil {
		t.Error("truncated message accepted")
	}
	if _, err := readProfile(gz(t, []byte{0x80})); err == nil {
		t.Error("unterminated varint accepted")
	}
}

// testdata/wire_rr.cpu.pprof is a real runtime/pprof CPU profile of a 0.4 s
// traced wire_rr_w1 repetition (go1.24, 500 Hz). `go tool pprof -top` reports
// "Total samples = 182ms" for it: 91 samples of 2 ms.
var wantCheckedInFold = map[string]int64{
	"total":   91,
	"syscall": 47, "transport": 17, "harness": 10, "runtime_sched": 10, "runtime_malloc": 4, "core": 2, "live": 1,
}

func TestReadProfileCheckedIn(t *testing.T) {
	raw, err := os.ReadFile("testdata/wire_rr.cpu.pprof")
	if err != nil {
		t.Fatal(err)
	}
	samples, err := readProfile(raw)
	if err != nil {
		t.Fatal(err)
	}
	byLayer := map[string]int64{}
	var total int64
	sawSend := false
	for _, s := range samples {
		if len(s.stack) == 0 {
			t.Fatalf("sample with an empty stack: %+v", s)
		}
		byLayer[layerOfCPU(s.stack)] += s.count
		total += s.count
		for _, fn := range s.stack {
			sawSend = sawSend || strings.HasSuffix(fn, "transport.(*Sender).Send")
		}
	}
	if !sawSend {
		t.Error("no stack goes through transport.(*Sender).Send")
	}
	want := wantCheckedInFold
	if total != want["total"] {
		t.Errorf("total samples %d, want %d", total, want["total"])
	}
	for l, n := range byLayer {
		if !isLayer[l] {
			t.Errorf("fold produced %q, which is not a layer", l)
		}
		if n != want[l] {
			t.Errorf("layer %s: %d samples, want %d", l, n, want[l])
		}
	}
}
