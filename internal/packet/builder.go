package packet

import "fmt"

// Frame construction and whole-frame parsing. These are the entry points the
// workload generators and NFs use; they compose the individual header codecs.

// BuildOpts configures frame construction.
type BuildOpts struct {
	SrcMAC, DstMAC MAC
	VLANID         uint16 // 0 = untagged
	TTL            uint8  // 0 = default 64
	TOS            uint8
	Ident          uint16
	// TCP-only fields.
	SeqNum, AckNum uint32
	TCPFlags       uint8
	Window         uint16
}

// BuildUDP constructs a complete Ethernet+IPv4+UDP frame carrying payload.
func BuildUDP(key FlowKey, payload []byte, opts BuildOpts) []byte {
	eth := ethFromOpts(opts)
	hdr := eth.HeaderLen() + IPv4HeaderLen + UDPHeaderLen
	buf := make([]byte, hdr+len(payload))
	PutUDP(buf, key, opts)
	copy(buf[hdr:], payload)
	return buf
}

// PutUDP writes the Ethernet+IPv4+UDP headers of a frame that fills buf
// exactly; whatever follows the headers is the payload and is left as it
// is. Generators that recycle frame buffers build in place with it.
func PutUDP(buf []byte, key FlowKey, opts BuildOpts) {
	if key.Proto == 0 {
		key.Proto = ProtoUDP
	}
	if key.Proto != ProtoUDP {
		panic(fmt.Sprintf("packet: BuildUDP with proto %d", key.Proto))
	}
	eth := ethFromOpts(opts)
	ethLen := eth.HeaderLen()
	totalIP := len(buf) - ethLen
	eth.Encode(buf)

	ip := IPv4{
		IHL: 5, TOS: opts.TOS, TotalLen: uint16(totalIP), Ident: opts.Ident,
		TTL: ttlOrDefault(opts.TTL), Proto: ProtoUDP,
		Src: key.SrcIP, Dst: key.DstIP,
	}
	ip.Encode(buf[ethLen:])

	udp := UDP{
		SrcPort: key.SrcPort, DstPort: key.DstPort,
		Length: uint16(totalIP - IPv4HeaderLen),
	}
	udp.Encode(buf[ethLen+IPv4HeaderLen:])
}

// BuildTCP constructs a complete Ethernet+IPv4+TCP frame carrying payload.
func BuildTCP(key FlowKey, payload []byte, opts BuildOpts) []byte {
	if key.Proto == 0 {
		key.Proto = ProtoTCP
	}
	if key.Proto != ProtoTCP {
		panic(fmt.Sprintf("packet: BuildTCP with proto %d", key.Proto))
	}
	eth := ethFromOpts(opts)
	ethLen := eth.HeaderLen()
	totalIP := IPv4HeaderLen + TCPHeaderLen + len(payload)
	buf := make([]byte, ethLen+totalIP)
	eth.Encode(buf)

	ip := IPv4{
		IHL: 5, TOS: opts.TOS, TotalLen: uint16(totalIP), Ident: opts.Ident,
		TTL: ttlOrDefault(opts.TTL), Proto: ProtoTCP,
		Src: key.SrcIP, Dst: key.DstIP,
	}
	ip.Encode(buf[ethLen:])

	tcp := TCP{
		SrcPort: key.SrcPort, DstPort: key.DstPort,
		SeqNum: opts.SeqNum, AckNum: opts.AckNum,
		DataOff: 5, Flags: opts.TCPFlags, Window: windowOrDefault(opts.Window),
	}
	tcp.Encode(buf[ethLen+IPv4HeaderLen:])
	copy(buf[ethLen+IPv4HeaderLen+TCPHeaderLen:], payload)
	return buf
}

func ethFromOpts(opts BuildOpts) Ethernet {
	eth := Ethernet{Dst: opts.DstMAC, Src: opts.SrcMAC, EtherType: EtherTypeIPv4}
	if opts.VLANID != 0 {
		eth.Tagged = true
		eth.VLANID = opts.VLANID
	}
	return eth
}

func ttlOrDefault(ttl uint8) uint8 {
	if ttl == 0 {
		return 64
	}
	return ttl
}

func windowOrDefault(w uint16) uint16 {
	if w == 0 {
		return 65535
	}
	return w
}

// Parsed is the layered view of a frame produced by ParseFrame.
type Parsed struct {
	Eth  Ethernet
	IP   IPv4
	IsIP bool
	// Exactly one of HasUDP/HasTCP is set for transport frames.
	UDP    UDP
	HasUDP bool
	TCP    TCP
	HasTCP bool
	// Offsets into the frame, for in-place rewriting.
	IPOffset      int
	L4Offset      int
	PayloadOffset int
}

// FlowKey extracts the five-tuple from the parsed layers.
func (pr *Parsed) FlowKey() FlowKey {
	k := FlowKey{SrcIP: pr.IP.Src, DstIP: pr.IP.Dst, Proto: pr.IP.Proto}
	switch {
	case pr.HasUDP:
		k.SrcPort, k.DstPort = pr.UDP.SrcPort, pr.UDP.DstPort
	case pr.HasTCP:
		k.SrcPort, k.DstPort = pr.TCP.SrcPort, pr.TCP.DstPort
	}
	return k
}

// Payload returns the transport payload bytes of the frame.
func (pr *Parsed) Payload(frame []byte) []byte {
	if pr.PayloadOffset <= 0 || pr.PayloadOffset > len(frame) {
		return nil
	}
	return frame[pr.PayloadOffset:]
}

// ParseFrame decodes Ethernet/IPv4/L4 and returns the layered view.
// Non-IPv4 frames return with IsIP=false and no error.
//
//mpdp:hotpath bench=BenchmarkParseFrame
func ParseFrame(frame []byte) (Parsed, error) {
	var pr Parsed
	eth, err := DecodeEthernet(frame)
	if err != nil {
		return pr, err
	}
	pr.Eth = eth
	pr.IPOffset = eth.HeaderLen()
	if eth.EtherType != EtherTypeIPv4 {
		return pr, nil
	}
	ip, err := DecodeIPv4(frame[pr.IPOffset:])
	if err != nil {
		return pr, err
	}
	pr.IP = ip
	pr.IsIP = true
	pr.L4Offset = pr.IPOffset + ip.HeaderLen()
	switch ip.Proto {
	case ProtoUDP:
		u, err := DecodeUDP(frame[pr.L4Offset:])
		if err != nil {
			return pr, err
		}
		pr.UDP = u
		pr.HasUDP = true
		pr.PayloadOffset = pr.L4Offset + UDPHeaderLen
	case ProtoTCP:
		t, err := DecodeTCP(frame[pr.L4Offset:])
		if err != nil {
			return pr, err
		}
		pr.TCP = t
		pr.HasTCP = true
		pr.PayloadOffset = pr.L4Offset + t.HeaderLen()
	default:
		pr.PayloadOffset = pr.L4Offset
	}
	return pr, nil
}

// ExtractFlowKey is the fast path used at ingress: parse just enough of the
// frame to build the five-tuple.
func ExtractFlowKey(frame []byte) (FlowKey, error) {
	pr, err := ParseFrame(frame)
	if err != nil {
		return FlowKey{}, err
	}
	if !pr.IsIP {
		return FlowKey{}, ErrNotIPv4
	}
	return pr.FlowKey(), nil
}
