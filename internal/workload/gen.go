package workload

import (
	"mpdp/internal/nf"
	"mpdp/internal/packet"
	"mpdp/internal/sim"
	"mpdp/internal/xrand"
)

// Traffic is the packet-level open-loop generator: an arrival process picks
// when, a Zipf-skewed flow pool picks who, and a size distribution picks
// how big. Every emitted packet is a real UDP frame.
type Traffic struct {
	cfg     TrafficConfig
	pool    []packet.FlowKey
	zipf    *xrand.Zipf
	emitted uint64
	bytes   uint64
}

// TrafficConfig parameterizes the generator.
type TrafficConfig struct {
	// Arrival yields inter-packet gaps. Required.
	Arrival Arrival
	// Size yields frame sizes in bytes. Required.
	Size SizeDist
	// Flows is the number of distinct five-tuples in the pool (default 64).
	Flows int
	// FlowSkew is the Zipf exponent of flow popularity (0 = uniform;
	// default 1.05, a realistic elephant/mice mix).
	FlowSkew float64
	// BulkFraction of pool flows get high destination ports, which the
	// preset classifier marks ClassBulk (default 0.25).
	BulkFraction float64
	// Rng drives flow selection. Required.
	Rng *xrand.Rand
	// Packets is the free list packets are minted from: pass the consuming
	// core.DataPlane's Packets() and structs and frame buffers are reused.
	// Nil mints plain heap packets, for consumers that keep or discard them.
	Packets *packet.Pool
}

// NewTraffic builds a generator and its flow pool.
func NewTraffic(cfg TrafficConfig) *Traffic {
	if cfg.Arrival == nil || cfg.Size == nil || cfg.Rng == nil {
		panic("workload: NewTraffic requires Arrival, Size and Rng")
	}
	if cfg.Flows <= 0 {
		cfg.Flows = 64
	}
	if cfg.FlowSkew == 0 {
		cfg.FlowSkew = 1.05
	}
	if cfg.BulkFraction == 0 {
		cfg.BulkFraction = 0.25
	}
	t := &Traffic{cfg: cfg}
	bulkEvery := 0
	if cfg.BulkFraction > 0 {
		bulkEvery = int(1 / cfg.BulkFraction)
	}
	for i := 0; i < cfg.Flows; i++ {
		dstPort := uint16(80)
		// Bulk class goes to every bulkEvery-th rank *starting at rank 0*:
		// the Zipf elephant is bulk traffic (backups, analytics), while
		// latency-sensitive queries are the mice — the realistic mix.
		if bulkEvery > 0 && i%bulkEvery == 0 {
			dstPort = uint16(55000 + i%1000)
		}
		t.pool = append(t.pool, packet.FlowKey{
			SrcIP:   packet.IP4(10, 0, byte(i>>8), byte(i)),
			DstIP:   packet.IP4(10, 1, 0, 5),
			SrcPort: uint16(10000 + i%50000),
			DstPort: dstPort,
			Proto:   packet.ProtoUDP,
		})
	}
	t.zipf = xrand.NewZipf(cfg.Rng, cfg.Flows, cfg.FlowSkew)
	return t
}

// minFramePayload keeps frames at least Ethernet-minimum sized.
const frameHeaderBytes = packet.EthHeaderLen + packet.IPv4HeaderLen + packet.UDPHeaderLen

// NextPacket builds the next packet (without scheduling it), writing the
// frame straight into the buffer the pool hands out.
func (t *Traffic) NextPacket() *packet.Packet {
	key := t.pool[t.zipf.Next()]
	size := t.cfg.Size.Next()
	payload := size - frameHeaderBytes
	if payload < 18 {
		payload = 18 // 60-byte minimum frame
	}
	if payload > 9000 {
		payload = 9000
	}
	p := t.cfg.Packets.Get(frameHeaderBytes + payload) // zeroed: the payload is all zeros
	packet.PutUDP(p.Data, key, packet.BuildOpts{})
	p.Flow, p.FlowID = key, key.Hash64()
	t.emitted++
	t.bytes += uint64(len(p.Data))
	return p
}

// Run schedules arrivals on s, calling emit for each packet, until horizon.
// The two funcs below are built once per Run; no arrival allocates its own.
func (t *Traffic) Run(s *sim.Simulator, emit func(*packet.Packet), horizon sim.Time) {
	var arrive func()
	scheduleNext := func() {
		gap := t.cfg.Arrival.Next()
		if s.Now()+gap > horizon {
			return
		}
		s.Schedule(gap, arrive)
	}
	arrive = func() {
		emit(t.NextPacket())
		scheduleNext()
	}
	scheduleNext()
}

// Emitted returns packets and bytes generated so far.
func (t *Traffic) Emitted() (pkts, bytes uint64) { return t.emitted, t.bytes }

// Pool returns the flow pool (shared; read-only).
func (t *Traffic) Pool() []packet.FlowKey { return t.pool }

// MeanServiceCost estimates the mean per-packet chain cost for a given
// chain and this generator's size distribution, by probing the chain with
// representative packets. Experiments use it to convert a target
// utilization into an arrival rate.
func MeanServiceCost(chain *nf.Chain, size SizeDist, rng *xrand.Rand, samples int) sim.Duration {
	if samples <= 0 {
		samples = 200
	}
	pkts := new(packet.Pool)
	probe := NewTraffic(TrafficConfig{
		Arrival: CBR{Gap: 1},
		Size:    size,
		Flows:   32,
		Rng:     rng,
		Packets: pkts,
	})
	var total sim.Duration
	for i := 0; i < samples; i++ {
		p := probe.NextPacket()
		total += chain.Process(0, p).Cost
		pkts.Put(p)
	}
	return total / sim.Duration(samples)
}
