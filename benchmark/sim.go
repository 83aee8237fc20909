package main

import (
	"fmt"
	"hash/fnv"
	"slices"

	"mpdp/internal/experiment"
)

// simWarmShare sizes the warm-up of a sim_* repetition: one call at this
// share of the workload's horizon — fixed work, so set-up time moves when the
// simulator's speed does.
const simWarmShare = 5

// runSim is the closed loop of the sim_* workloads: one client calling
// experiment.Run with the same configuration and seed back to back — the
// shape of a parameter sweep. Throughput is simulated packets per host
// second; lat_* is the host time of one call; the virtual-time outcome is
// identical on every call (checked) and reported per layer.
func runSim(m *meter, cfg experiment.RunConfig) error {
	cfg.Seed = m.rc.Seed
	warm := cfg
	warm.Duration /= simWarmShare
	if _, err := experiment.Run(warm); err != nil {
		return err
	}
	heap := m.rc.Trace == traceHeap
	if heap {
		// Recording a stack on each of a call's ~6 M mallocs takes tens of
		// seconds; the short horizon allocates in the same proportions. Its
		// outcome is a different one, so this repetition reports no digest.
		cfg = warm
	}
	res := m.res

	m.setupDone()
	m.begin()
	var first experiment.RunResult
	var calls []int32
	var offered, delivered uint64
	for start := now(); now()-start < int64(m.rc.Measure); {
		c0 := now()
		r, err := experiment.Run(cfg)
		if err != nil {
			return err
		}
		calls = append(calls, int32((now()-c0)/1e3)) // microseconds: a call outlasts int32 nanoseconds
		offered += r.Offered
		delivered += r.Delivered
		if len(calls) == 1 {
			first, res.Digest = r, simDigest(&r)
		} else if d := simDigest(&r); d != res.Digest {
			res.fail("determinism: call %d digest %s differs from %s", len(calls), d, res.Digest)
		}
	}
	m.end()
	if heap {
		res.Digest = ""
	}

	res.Offered, res.Delivered, res.Samples = offered, delivered, len(calls)
	slices.Sort(calls)
	res.setLatency(float64(percentile(calls, 0.50)), float64(percentile(calls, 0.99)))
	res.E2E["tx_bytes_ratio"] = 1 + float64(first.DupBytes)/float64(first.OfferedBytes)
	m.finish(offered)

	if first.Delivered+first.Lost != first.Offered {
		res.fail("conservation: delivered %d + lost %d != offered %d", first.Delivered, first.Lost, first.Offered)
	}
	ro := first.Reorder
	dupCopies := first.DupOverhead * float64(first.Offered)
	l := res.Layer
	l["sim.virt_lat_p50_us"] = float64(first.Latency.P50) / 1e3
	l["sim.virt_lat_p99_us"] = float64(first.Latency.P99) / 1e3
	l["sim.virt_lat_p999_us"] = float64(first.Latency.P999) / 1e3
	l["vnet.queue_wait_p99_us"] = first.QueueWaitP99 / 1e3
	l["nf.service_p99_us"] = first.ServiceP99 / 1e3
	l["core.reorder_wait_p99_us"] = first.ReorderWaitP99 / 1e3
	l["core.ooo_fraction"] = ratio(float64(ro.OutOfOrder), float64(ro.InOrder+ro.OutOfOrder))
	l["core.dup_copies_per_pkt"] = first.DupOverhead
	l["core.dup_cancelled_ratio"] = ratio(float64(first.DupCancelled), dupCopies)
	l["vnet.drops_per_pkt"] = ratio(float64(first.Lost), float64(first.Offered))
	l["core.reorder_timeouts_per_mpkt"] = ratio(float64(ro.TimeoutFires), float64(first.Offered)) * 1e6
	return nil
}

// simDigest hashes everything about a run's virtual-time outcome that a
// behaviour change would move.
func simDigest(r *experiment.RunResult) string {
	h := fnv.New64a()
	fmt.Fprintf(h, "%d %d %d %d %d %d %d %+v %v",
		r.Offered, r.Delivered, r.Lost, r.Latency.P50, r.Latency.P99, r.Latency.P999,
		r.DupBytes, r.Reorder, r.PerPathServed)
	return fmt.Sprintf("%016x", h.Sum64())
}

func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}
