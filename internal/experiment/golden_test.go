package experiment

import (
	"bytes"
	"flag"
	"fmt"
	"hash/fnv"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"mpdp/internal/fault"
	"mpdp/internal/obs"
	"mpdp/internal/packet"
	"mpdp/internal/sim"
)

var updateGolden = flag.Bool("update", false, "rewrite testdata/outcomes.golden from the current engine")

// obsHash streams every flight-recorder event through the OBS1 codec into
// a hash, so the whole event order — not just the end-of-run counters — is
// part of the pinned outcome.
type obsHash struct {
	w   *obs.Writer
	err error
}

func (h *obsHash) Emit(ev obs.Event) {
	if err := h.w.Write(ev); err != nil && h.err == nil {
		h.err = err
	}
}

// goldenConfigs are the pinned runs: the benchmark's two sim workloads at a
// short horizon, plus one configuration for each engine path those two do
// not reach (deadline scheduling, fault handling, class-aware queueing, gap
// timeouts with late drops, and k-copy redundancy without the reorder stage).
func goldenConfigs() []struct {
	name string
	cfg  RunConfig
} {
	return []struct {
		name string
		cfg  RunConfig
	}{
		{"sim_mpdp_interfered", RunConfig{
			Policy: "mpdp", Interference: "moderate", Util: 0.7, NumPaths: 4, ChainLen: 3,
			Arrival: "poisson", SizeDist: "imix", Duration: 10 * sim.Millisecond,
		}},
		{"sim_single_burst", RunConfig{
			Policy: "single", NumPaths: 1, Interference: "none", Util: 0.7, ChainLen: 3,
			Arrival: "onoff", SizeDist: "imix", QueueCap: 128, Duration: 20 * sim.Millisecond,
		}},
		{"deadline", RunConfig{
			Policy: "deadline", Interference: "moderate", Util: 0.7,
			Deadline: 40 * sim.Microsecond, Duration: 10 * sim.Millisecond,
		}},
		{"fault_plan", RunConfig{
			Policy: "mpdp", Interference: "light", Util: 0.6, Duration: 12 * sim.Millisecond,
			Fault: &fault.Plan{
				Seed:     7,
				Lanes:    []fault.LaneFailure{{Path: 0, At: 3 * sim.Millisecond, Mode: fault.ModeBlackhole, RepairAfter: 4 * sim.Millisecond}},
				Flaps:    []fault.Flap{{Path: 2, Start: 2 * sim.Millisecond, Down: 500 * sim.Microsecond, Up: 1500 * sim.Microsecond, Count: 3, Mode: fault.ModeFailStop}},
				NFErrors: []fault.NFError{{Path: 1, Start: 5 * sim.Millisecond, Stop: 8 * sim.Millisecond, DropFrac: 0.3, CorruptFrac: 0.1}},
			},
		}},
		{"prio_qdisc", RunConfig{
			Policy: "mpdp", Interference: "moderate", Util: 0.8, Qdisc: "prio", QueueCap: 64,
			ClassAware: true, Duration: 10 * sim.Millisecond,
		}},
		{"rr_short_gap_timeout", RunConfig{
			Policy: "rr", Interference: "moderate", Util: 0.5, ReorderTimeout: 60 * sim.Microsecond,
			Flows: 512, FlowSkew: 0.5, Duration: 4 * sim.Millisecond,
		}},
		{"dupall_noreorder_drr", RunConfig{
			Policy: "dup-all", Interference: "heavy", Util: 0.5, Qdisc: "drr", QueueCap: 32,
			DisableReorder: true, Duration: 8 * sim.Millisecond,
		}},
	}
}

// outcomeLine runs cfg on pkts with the invariant checker armed and renders
// everything about the outcome that a behaviour change would move.
func outcomeLine(t *testing.T, name string, cfg RunConfig, pkts *packet.Pool) string {
	t.Helper()
	cfg.Verify = true
	sum := fnv.New64a()
	w, err := obs.NewWriter(sum)
	if err != nil {
		t.Fatal(err)
	}
	sink := &obsHash{w: w}
	cfg.EventSink = sink
	r, err := run(cfg, pkts)
	if err != nil {
		t.Fatalf("%s seed %d: %v", name, cfg.Seed, err)
	}
	if err := w.Flush(); err != nil || sink.err != nil {
		t.Fatalf("%s seed %d: event stream: %v / %v", name, cfg.Seed, sink.err, err)
	}
	return fmt.Sprintf("%s seed=%d offered=%d delivered=%d lost=%d p50=%d p99=%d p999=%d dupbytes=%d reorder=%+v served=%v events=%d obs=%016x\n",
		name, cfg.Seed, r.Offered, r.Delivered, r.Lost,
		r.Latency.P50, r.Latency.P99, r.Latency.P999, r.DupBytes,
		r.Reorder, r.PerPathServed, w.Count(), sum.Sum64())
}

const goldenFile = "testdata/outcomes.golden"

// TestOutcomeGolden pins the virtual-time outcome of every seed across
// commits: counters, latency percentiles, reorder statistics, per-path
// service counts and a hash of the OBS1 event stream must equal the values
// recorded in testdata/outcomes.golden. A kernel, pool or engine change
// that alters the order of a single event moves the hash.
func TestOutcomeGolden(t *testing.T) {
	var got bytes.Buffer
	for _, gc := range goldenConfigs() {
		for seed := uint64(1); seed <= 3; seed++ {
			cfg := gc.cfg
			cfg.Seed = seed
			got.WriteString(outcomeLine(t, gc.name, cfg, new(packet.Pool)))
		}
	}

	if *updateGolden {
		if err := os.MkdirAll(filepath.Dir(goldenFile), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(goldenFile, got.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(goldenFile)
	if err != nil {
		t.Fatalf("reading golden (run `go test -run OutcomeGolden ./internal/experiment -update` at a known-good commit): %v", err)
	}
	gl, wl := strings.SplitAfter(got.String(), "\n"), strings.SplitAfter(string(want), "\n")
	if len(gl) != len(wl) {
		t.Fatalf("outcome moved: golden has %d lines, run produced %d", len(wl), len(gl))
	}
	for i := range gl {
		if gl[i] != wl[i] {
			t.Fatalf("outcome moved (first differing line %d)\n got: %swant: %s", i+1, gl[i], wl[i])
		}
	}
}

// TestPoisonedPoolSameOutcome makes use-after-release loud. Every pinned
// configuration runs again on a poisoned pool — a released packet turns
// into ID all-ones, nil Data, drop reason 0xff — with the invariant checker
// and the exemplar collector attached. Anything that read a packet after
// the engine recycled it would see those values: the checker would report a
// packet it never saw injected, byte and drop counters would move, the event
// hash would change. The outcome must equal the golden line, and every
// packet the pool handed out must have come back exactly once (Put panics
// on a second return; minted == released means none is still held after
// Flush and the final drain).
func TestPoisonedPoolSameOutcome(t *testing.T) {
	want, err := os.ReadFile(goldenFile)
	if err != nil {
		t.Fatal(err)
	}
	for _, gc := range goldenConfigs() {
		cfg := gc.cfg
		cfg.Seed = 1
		cfg.Exemplars = 8
		pkts := new(packet.Pool)
		pkts.Poison()
		line := outcomeLine(t, gc.name, cfg, pkts)
		if !bytes.Contains(want, []byte(line)) {
			t.Errorf("%s: outcome on a poisoned pool differs from the golden:\n%s", gc.name, line)
		}
		if minted, released := pkts.Counts(); minted == 0 || minted != released {
			t.Errorf("%s: pool minted %d packets, %d came back", gc.name, minted, released)
		}
	}
}
