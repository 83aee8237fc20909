package packet

import (
	"bytes"
	"testing"
	"testing/quick"

	"mpdp/internal/sim"
)

func TestIP4Pack(t *testing.T) {
	ip := IP4(10, 0, 1, 200)
	if ip != 0x0a0001c8 {
		t.Fatalf("IP4 = %#x", ip)
	}
	if got := ipString(ip); got != "10.0.1.200" {
		t.Fatalf("ipString = %q", got)
	}
}

func TestFlowKeyReverse(t *testing.T) {
	k := FlowKey{SrcIP: 1, DstIP: 2, SrcPort: 3, DstPort: 4, Proto: ProtoTCP}
	r := k.Reverse()
	if r.SrcIP != 2 || r.DstIP != 1 || r.SrcPort != 4 || r.DstPort != 3 || r.Proto != ProtoTCP {
		t.Fatalf("Reverse = %+v", r)
	}
	if r.Reverse() != k {
		t.Fatal("double reverse is not identity")
	}
}

func TestEthernetRoundTrip(t *testing.T) {
	e := Ethernet{
		Dst:       MAC{0xff, 0xee, 0xdd, 0xcc, 0xbb, 0xaa},
		Src:       MAC{1, 2, 3, 4, 5, 6},
		EtherType: EtherTypeIPv4,
	}
	buf := make([]byte, e.HeaderLen())
	n := e.Encode(buf)
	if n != EthHeaderLen {
		t.Fatalf("Encode wrote %d bytes", n)
	}
	got, err := DecodeEthernet(buf)
	if err != nil {
		t.Fatal(err)
	}
	if got != e {
		t.Fatalf("round trip: got %+v want %+v", got, e)
	}
}

func TestEthernetVLANRoundTrip(t *testing.T) {
	e := Ethernet{
		Dst: MAC{1}, Src: MAC{2}, EtherType: EtherTypeIPv4,
		Tagged: true, VLANID: 412, PCP: 5,
	}
	buf := make([]byte, e.HeaderLen())
	if n := e.Encode(buf); n != EthHeaderLen+VLANTagLen {
		t.Fatalf("tagged encode wrote %d bytes", n)
	}
	got, err := DecodeEthernet(buf)
	if err != nil {
		t.Fatal(err)
	}
	if got != e {
		t.Fatalf("VLAN round trip: got %+v want %+v", got, e)
	}
}

func TestDecodeEthernetTruncated(t *testing.T) {
	if _, err := DecodeEthernet(make([]byte, 5)); err != ErrTruncated {
		t.Fatalf("err = %v, want ErrTruncated", err)
	}
	// Tagged frame cut off mid-tag.
	buf := make([]byte, 15)
	buf[12], buf[13] = 0x81, 0x00
	if _, err := DecodeEthernet(buf); err != ErrTruncated {
		t.Fatalf("err = %v, want ErrTruncated", err)
	}
}

func TestIPv4RoundTrip(t *testing.T) {
	h := IPv4{
		IHL: 5, TOS: 0x10, TotalLen: 100, Ident: 777,
		Flags: 2, FragOff: 0, TTL: 64, Proto: ProtoUDP,
		Src: IP4(192, 168, 0, 1), Dst: IP4(10, 0, 0, 2),
	}
	buf := make([]byte, IPv4HeaderLen)
	h.Encode(buf)
	got, err := DecodeIPv4(buf)
	if err != nil {
		t.Fatal(err)
	}
	if got != h {
		t.Fatalf("round trip:\n got %+v\nwant %+v", got, h)
	}
}

func TestIPv4ChecksumDetectsCorruption(t *testing.T) {
	h := IPv4{IHL: 5, TotalLen: 40, TTL: 64, Proto: ProtoTCP, Src: 1, Dst: 2}
	buf := make([]byte, IPv4HeaderLen)
	h.Encode(buf)
	buf[8] ^= 0xff // corrupt TTL
	if _, err := DecodeIPv4(buf); err != ErrBadChecksum {
		t.Fatalf("err = %v, want ErrBadChecksum", err)
	}
}

func TestDecodeIPv4BadVersion(t *testing.T) {
	buf := make([]byte, IPv4HeaderLen)
	buf[0] = 6 << 4
	if _, err := DecodeIPv4(buf); err != ErrBadVersion {
		t.Fatalf("err = %v, want ErrBadVersion", err)
	}
}

func TestDecodeIPv4BadIHL(t *testing.T) {
	buf := make([]byte, IPv4HeaderLen)
	buf[0] = 4<<4 | 3
	if _, err := DecodeIPv4(buf); err != ErrBadIHL {
		t.Fatalf("err = %v, want ErrBadIHL", err)
	}
}

func TestUDPRoundTrip(t *testing.T) {
	u := UDP{SrcPort: 1234, DstPort: 53, Length: 30, Checksum: 0xabcd}
	buf := make([]byte, UDPHeaderLen)
	u.Encode(buf)
	got, err := DecodeUDP(buf)
	if err != nil {
		t.Fatal(err)
	}
	if got != u {
		t.Fatalf("round trip: got %+v want %+v", got, u)
	}
}

func TestTCPRoundTrip(t *testing.T) {
	c := TCP{
		SrcPort: 443, DstPort: 51000, SeqNum: 1 << 30, AckNum: 99,
		DataOff: 5, Flags: TCPSyn | TCPAck, Window: 29200, Urgent: 1,
	}
	buf := make([]byte, TCPHeaderLen)
	c.Encode(buf)
	got, err := DecodeTCP(buf)
	if err != nil {
		t.Fatal(err)
	}
	// Checksum is left at the caller's value (0 here).
	c.Checksum = 0
	if got != c {
		t.Fatalf("round trip:\n got %+v\nwant %+v", got, c)
	}
}

func TestVXLANRoundTrip(t *testing.T) {
	v := VXLAN{VNI: 0x123456}
	buf := make([]byte, VXLANHdrLen)
	v.Encode(buf)
	got, err := DecodeVXLAN(buf)
	if err != nil {
		t.Fatal(err)
	}
	if got != v {
		t.Fatalf("round trip: got %+v want %+v", got, v)
	}
}

func TestVXLANRequiresIFlag(t *testing.T) {
	buf := make([]byte, VXLANHdrLen)
	if _, err := DecodeVXLAN(buf); err == nil {
		t.Fatal("missing I flag accepted")
	}
}

func TestChecksumRFC1071Example(t *testing.T) {
	// Classic example from RFC 1071 §3.
	b := []byte{0x00, 0x01, 0xf2, 0x03, 0xf4, 0xf5, 0xf6, 0xf7}
	if got := Checksum16(b); got != ^uint16(0xddf2) {
		t.Fatalf("Checksum16 = %#04x, want %#04x", got, ^uint16(0xddf2))
	}
}

func TestChecksumOddLength(t *testing.T) {
	b := []byte{0x01, 0x02, 0x03}
	// Manual: 0x0102 + 0x0300 = 0x0402 -> ^0x0402.
	if got := Checksum16(b); got != ^uint16(0x0402) {
		t.Fatalf("odd-length checksum = %#04x", got)
	}
}

func TestUpdateChecksum16(t *testing.T) {
	h := IPv4{IHL: 5, TotalLen: 40, TTL: 64, Proto: ProtoTCP, Src: IP4(1, 2, 3, 4), Dst: IP4(5, 6, 7, 8)}
	buf := make([]byte, IPv4HeaderLen)
	h.Encode(buf)
	// Change Ident incrementally and verify against full recompute.
	oldIdent := h.Ident
	h.Ident = 4242
	incr := UpdateChecksum16(h.Checksum, oldIdent, h.Ident)
	full := IPv4{IHL: 5, TotalLen: 40, Ident: 4242, TTL: 64, Proto: ProtoTCP, Src: h.Src, Dst: h.Dst}
	buf2 := make([]byte, IPv4HeaderLen)
	full.Encode(buf2)
	if incr != full.Checksum {
		t.Fatalf("incremental %#04x != recomputed %#04x", incr, full.Checksum)
	}
}

func TestUpdateChecksum32(t *testing.T) {
	h := IPv4{IHL: 5, TotalLen: 40, TTL: 64, Proto: ProtoUDP, Src: IP4(10, 0, 0, 1), Dst: IP4(10, 0, 0, 2)}
	buf := make([]byte, IPv4HeaderLen)
	h.Encode(buf)
	newSrc := IP4(172, 16, 5, 9)
	incr := UpdateChecksum32(h.Checksum, h.Src, newSrc)
	full := h
	full.Src = newSrc
	buf2 := make([]byte, IPv4HeaderLen)
	full.Encode(buf2)
	if incr != full.Checksum {
		t.Fatalf("incremental %#04x != recomputed %#04x", incr, full.Checksum)
	}
}

func TestBuildUDPParses(t *testing.T) {
	key := FlowKey{
		SrcIP: IP4(10, 0, 0, 1), DstIP: IP4(10, 0, 0, 2),
		SrcPort: 5555, DstPort: 80, Proto: ProtoUDP,
	}
	payload := []byte("hello, last mile")
	frame := BuildUDP(key, payload, BuildOpts{})
	pr, err := ParseFrame(frame)
	if err != nil {
		t.Fatal(err)
	}
	if !pr.IsIP || !pr.HasUDP {
		t.Fatalf("parse: %+v", pr)
	}
	if pr.FlowKey() != key {
		t.Fatalf("flow key %v, want %v", pr.FlowKey(), key)
	}
	if !bytes.Equal(pr.Payload(frame), payload) {
		t.Fatalf("payload %q", pr.Payload(frame))
	}
	if int(pr.IP.TotalLen) != IPv4HeaderLen+UDPHeaderLen+len(payload) {
		t.Fatalf("TotalLen = %d", pr.IP.TotalLen)
	}
}

func TestBuildTCPParses(t *testing.T) {
	key := FlowKey{
		SrcIP: IP4(192, 168, 1, 5), DstIP: IP4(8, 8, 8, 8),
		SrcPort: 40000, DstPort: 443, Proto: ProtoTCP,
	}
	frame := BuildTCP(key, []byte("GET /"), BuildOpts{SeqNum: 1000, TCPFlags: TCPPsh | TCPAck})
	pr, err := ParseFrame(frame)
	if err != nil {
		t.Fatal(err)
	}
	if !pr.HasTCP {
		t.Fatal("not parsed as TCP")
	}
	if pr.TCP.SeqNum != 1000 || pr.TCP.Flags != TCPPsh|TCPAck {
		t.Fatalf("TCP fields: %+v", pr.TCP)
	}
	if pr.FlowKey() != key {
		t.Fatalf("flow key %v, want %v", pr.FlowKey(), key)
	}
}

func TestBuildVLANTagged(t *testing.T) {
	key := FlowKey{SrcIP: 1, DstIP: 2, SrcPort: 3, DstPort: 4, Proto: ProtoUDP}
	frame := BuildUDP(key, nil, BuildOpts{VLANID: 99})
	pr, err := ParseFrame(frame)
	if err != nil {
		t.Fatal(err)
	}
	if !pr.Eth.Tagged || pr.Eth.VLANID != 99 {
		t.Fatalf("VLAN not preserved: %+v", pr.Eth)
	}
	if pr.FlowKey() != key {
		t.Fatalf("flow key through VLAN = %v", pr.FlowKey())
	}
}

func TestBuildUDPWrongProtoPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("BuildUDP with TCP proto did not panic")
		}
	}()
	BuildUDP(FlowKey{Proto: ProtoTCP}, nil, BuildOpts{})
}

func TestExtractFlowKeyRejectsARP(t *testing.T) {
	e := Ethernet{EtherType: EtherTypeARP}
	buf := make([]byte, EthHeaderLen)
	e.Encode(buf)
	if _, err := ExtractFlowKey(buf); err != ErrNotIPv4 {
		t.Fatalf("err = %v, want ErrNotIPv4", err)
	}
}

func TestPacketClone(t *testing.T) {
	key := FlowKey{SrcIP: 1, DstIP: 2, SrcPort: 3, DstPort: 4, Proto: ProtoUDP}
	p := &Packet{ID: 10, OrigID: 10, Data: BuildUDP(key, []byte("x"), BuildOpts{}), Flow: key, Seq: 7}
	q := new(Pool).Clone(p, 11)
	if q.ID != 11 || q.OrigID != 10 || !q.IsDup {
		t.Fatalf("clone identity: %+v", q)
	}
	if q.Seq != p.Seq || q.Flow != p.Flow {
		t.Fatal("clone lost flow metadata")
	}
	q.Data[0] ^= 0xff
	if p.Data[0] == q.Data[0] {
		t.Fatal("clone shares the data buffer")
	}
}

func TestPacketLatencyComponents(t *testing.T) {
	p := &Packet{
		Ingress: 100, Enqueued: 110, ServiceAt: 150, Done: 180, Delivered: 200,
	}
	if p.QueueWait() != 40 || p.ServiceTime() != 30 || p.ReorderWait() != 20 {
		t.Fatalf("components: wait=%v svc=%v reorder=%v", p.QueueWait(), p.ServiceTime(), p.ReorderWait())
	}
	if p.Latency() != 100 {
		t.Fatalf("latency = %v", p.Latency())
	}
	var _ sim.Time = p.Latency() // type check
}

func TestVerdictAndDropStrings(t *testing.T) {
	if Pass.String() != "pass" || Drop.String() != "drop" || Consume.String() != "consume" {
		t.Fatal("verdict strings")
	}
	for _, d := range []DropReason{NotDropped, DropPolicy, DropQueueFull, DropReorder, DropCancelled} {
		if d.String() == "" {
			t.Fatal("empty drop reason string")
		}
	}
}

// Microsoft RSS verification vectors (IPv4 with TCP ports), as published in
// the Windows RSS documentation for the canonical 40-byte key.
func TestToeplitzVerificationVectors(t *testing.T) {
	cases := []struct {
		src, dst         uint32
		srcPort, dstPort uint16
		want             uint32
	}{
		{IP4(66, 9, 149, 187), IP4(161, 142, 100, 80), 2794, 1766, 0x51ccc178},
		{IP4(199, 92, 111, 2), IP4(65, 69, 140, 83), 14230, 4739, 0xc626b0ea},
		{IP4(24, 19, 198, 95), IP4(12, 22, 207, 184), 12898, 38024, 0x5c2b394a},
		{IP4(38, 27, 205, 30), IP4(209, 142, 163, 6), 48228, 2217, 0xafc7327f},
		{IP4(153, 39, 163, 191), IP4(202, 188, 127, 2), 44251, 1303, 0x10e828a2},
	}
	for i, c := range cases {
		k := FlowKey{SrcIP: c.src, DstIP: c.dst, SrcPort: c.srcPort, DstPort: c.dstPort, Proto: ProtoTCP}
		if got := ToeplitzHash(DefaultRSSKey, k); got != c.want {
			t.Errorf("vector %d: ToeplitzHash = %#08x, want %#08x", i, got, c.want)
		}
	}
}

func TestRSSQueueRange(t *testing.T) {
	for i := 0; i < 1000; i++ {
		k := FlowKey{SrcIP: uint32(i * 7919), DstIP: uint32(i), SrcPort: uint16(i), DstPort: 80, Proto: ProtoTCP}
		q := RSSQueue(DefaultRSSKey, k, 8)
		if q < 0 || q >= 8 {
			t.Fatalf("RSSQueue out of range: %d", q)
		}
	}
}

func TestHash64Deterministic(t *testing.T) {
	k := FlowKey{SrcIP: 1, DstIP: 2, SrcPort: 3, DstPort: 4, Proto: 17}
	if k.Hash64() != k.Hash64() {
		t.Fatal("Hash64 not deterministic")
	}
	k2 := k
	k2.DstPort = 5
	if k.Hash64() == k2.Hash64() {
		t.Fatal("trivially colliding Hash64")
	}
}

func TestSymmetricHash(t *testing.T) {
	k := FlowKey{SrcIP: 9, DstIP: 7, SrcPort: 1000, DstPort: 80, Proto: ProtoTCP}
	if k.SymmetricHash64() != k.Reverse().SymmetricHash64() {
		t.Fatal("symmetric hash differs across directions")
	}
}

// Property: any UDP frame we build parses back to the same flow key and
// payload length.
func TestQuickUDPRoundTrip(t *testing.T) {
	f := func(srcIP, dstIP uint32, srcPort, dstPort uint16, payloadLen uint8) bool {
		key := FlowKey{SrcIP: srcIP, DstIP: dstIP, SrcPort: srcPort, DstPort: dstPort, Proto: ProtoUDP}
		payload := make([]byte, payloadLen)
		frame := BuildUDP(key, payload, BuildOpts{})
		pr, err := ParseFrame(frame)
		if err != nil || !pr.HasUDP {
			return false
		}
		return pr.FlowKey() == key && len(pr.Payload(frame)) == int(payloadLen)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// Property: the IPv4 checksum of any encoded header validates, and
// incremental update matches recompute for TTL decrement.
func TestQuickIPv4ChecksumTTL(t *testing.T) {
	f := func(src, dst uint32, ident uint16, ttl uint8) bool {
		if ttl < 2 {
			ttl = 2
		}
		h := IPv4{IHL: 5, TotalLen: 60, Ident: ident, TTL: ttl, Proto: ProtoTCP, Src: src, Dst: dst}
		buf := make([]byte, IPv4HeaderLen)
		h.Encode(buf)
		if Checksum16(buf) != 0 {
			return false
		}
		// Decrement TTL as a router would, patch checksum incrementally.
		old16 := uint16(h.TTL)<<8 | uint16(h.Proto)
		h.TTL--
		new16 := uint16(h.TTL)<<8 | uint16(h.Proto)
		patched := UpdateChecksum16(h.Checksum, old16, new16)
		h2 := h
		buf2 := make([]byte, IPv4HeaderLen)
		h2.Encode(buf2)
		return patched == h2.Checksum
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkParseFrame(b *testing.B) {
	key := FlowKey{SrcIP: IP4(10, 0, 0, 1), DstIP: IP4(10, 0, 0, 2), SrcPort: 1234, DstPort: 80, Proto: ProtoUDP}
	frame := BuildUDP(key, make([]byte, 512), BuildOpts{})
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := ParseFrame(frame); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkToeplitz(b *testing.B) {
	k := FlowKey{SrcIP: IP4(66, 9, 149, 187), DstIP: IP4(161, 142, 100, 80), SrcPort: 2794, DstPort: 1766}
	for i := 0; i < b.N; i++ {
		_ = ToeplitzHash(DefaultRSSKey, k)
	}
}

func BenchmarkHash64(b *testing.B) {
	k := FlowKey{SrcIP: 1, DstIP: 2, SrcPort: 3, DstPort: 4, Proto: 6}
	for i := 0; i < b.N; i++ {
		_ = k.Hash64()
	}
}

func TestEthernetVLANDEIRoundTrip(t *testing.T) {
	// Regression for a fuzzer finding: the 802.1Q drop-eligible bit was
	// silently discarded by decode/encode.
	e := Ethernet{
		Dst: MAC{1}, Src: MAC{2}, EtherType: EtherTypeIPv4,
		Tagged: true, VLANID: 48, PCP: 1, DEI: true,
	}
	buf := make([]byte, e.HeaderLen())
	e.Encode(buf)
	got, err := DecodeEthernet(buf)
	if err != nil {
		t.Fatal(err)
	}
	if got != e {
		t.Fatalf("DEI round trip: got %+v want %+v", got, e)
	}
	if buf[14]&0x10 == 0 {
		t.Fatal("DEI bit not on the wire")
	}
}
