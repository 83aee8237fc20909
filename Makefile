# MPDP developer entry points. Everything is plain `go` underneath; the
# Makefile just names the common invocations.

GO ?= go

.PHONY: all build test test-short race verify cover bench bench-snapshots bench-diff suite suite-quick check lint loc hotpath-gates examples clean loopback fuzz-frame fuzz-wire fuzz-manifest fuzz-mesh wire-trace incident-smoke mesh-smoke

all: build test

build:
	$(GO) build ./...

test:
	$(GO) test ./...

test-short:
	$(GO) test -short ./...

race:
	$(GO) test -race ./...

# Whole suite in quick mode with the end-to-end invariant checker armed.
verify:
	$(GO) run ./cmd/mpdp-bench -exp all -quick -verify

cover:
	$(GO) test -cover ./internal/...

bench:
	$(GO) test -bench=. -benchmem ./...

# Refresh the checked-in performance baselines (bench/BENCH_*.json) after
# an intentional performance change; CI diffs fresh runs against them.
bench-snapshots:
	$(GO) run ./cmd/mpdp-bench -bench-json bench/ -quick

# The CI regression gate, locally: re-measure every checked-in snapshot
# and fail on p99 regression >10% or any allocs/packet increase.
bench-diff:
	$(GO) run ./cmd/mpdp-bench -bench-diff bench/

# Regenerate every table and figure of the evaluation (EXPERIMENTS.md data).
suite:
	$(GO) run ./cmd/mpdp-bench -exp all -seeds 3 -csv results.csv

suite-quick:
	$(GO) run ./cmd/mpdp-bench -exp all -quick

# Fast qualitative regression: do the headline shapes still hold?
check:
	$(GO) run ./cmd/mpdp-bench -check

# Hermetic wire-path self-benchmark: sender + receiver over loopback UDP,
# hedged across 2 paths, invariant-checked (see cmd/mpdp-gateway).
loopback:
	$(GO) run ./cmd/mpdp-gateway -loopback -duration 10s -sched hedge -paths 2

# Fuzz the MPDP1 frame decoder (corpus seeded from testdata golden frames).
fuzz-frame:
	$(GO) test -run '^$$' -fuzz FuzzFrameDecode -fuzztime 30s ./internal/transport/

# Fuzz both schemas of the obs record-stream codec: MPDPWIR1 (decoder
# never panics; accepted streams round-trip byte-identically and merge
# cleanly) and MPDPOBS1 (decoder never panics; accepted events satisfy
# the format invariants).
fuzz-wire:
	$(GO) test -run '^$$' -fuzz FuzzWireReader -fuzztime 30s ./internal/obs/
	$(GO) test -run '^$$' -fuzz '^FuzzReader$$' -fuzztime 30s ./internal/obs/

# Fuzz the incident-bundle manifest decoder (strict, versioned; anything
# it accepts must survive an encode/decode round trip unchanged).
fuzz-manifest:
	$(GO) test -run '^$$' -fuzz FuzzManifestDecode -fuzztime 30s ./internal/sentinel/

# Hermetic tail-sentinel smoke: loopback gateway under episodic burst
# impairment with the sentinel armed. The run must detect the episode,
# write an incident bundle under incidents/, and mpdp-inspect -incident
# must parse and integrity-check it.
incident-smoke:
	rm -rf incidents
	$(GO) run ./cmd/mpdp-gateway -loopback -packets 4000 -rate 5000 -paths 2 \
		-payload 64 -sched rr -wire-sample 4 \
		-burst-period 2000 -burst-len 250 -burst-delay 3ms -impair-path 0 \
		-sentinel incidents -sentinel-p99 1500us -sentinel-tick 30ms \
		-sentinel-suspect 1 -sentinel-clear 4 -sentinel-cooldown 3
	$(GO) run ./cmd/mpdp-inspect -incident incidents/incident-0001

# Fuzz the mesh control-plane codecs: gossip (MPDPGSP1), handoff record/
# ack/forward (MPDPHND1/MPDPHAK1/MPDPFWD1), and the per-frame mesh
# envelope. Decoders never panic; accepted inputs re-encode byte-identically.
fuzz-mesh:
	$(GO) test -run '^$$' -fuzz FuzzGossipDecode -fuzztime 30s ./internal/mesh/
	$(GO) test -run '^$$' -fuzz FuzzHandoffDecode -fuzztime 30s ./internal/mesh/
	$(GO) test -run '^$$' -fuzz FuzzEnvelopeDecode -fuzztime 30s ./internal/mesh/

# Hermetic multi-gateway mesh smoke (experiment E25): 4 nodes behind one
# steering client, burst impairment on one path, graceful drain of node
# index 1 mid-run with live flow-state handoff. Exits non-zero on any
# at-most-once/in-order violation across the ownership change.
mesh-smoke:
	$(GO) run ./cmd/mpdp-gateway -mesh -mesh-nodes 4 -mesh-drain 1 -duration 4s -flows 32 \
		-burst-period 512 -burst-len 96 -burst-delay 3ms -impair-path 1 \
		-slo "p99<20ms,avail>99" -mesh-handoff-timeout 10s \
		-mesh-sentinel -sentinel-p99 8ms -sentinel-tick 50ms -sentinel-suspect 1

# Hermetic loopback run with wire flight recorders on both endpoints:
# writes run.wir (mpdp-inspect -wire) and wire-trace.json (Chrome tracing)
# and prints the cross-endpoint tail attribution.
wire-trace:
	$(GO) run ./cmd/mpdp-gateway -loopback -packets 20000 -sched hedge -paths 2 \
		-wire-trace run.wir -wire-chrome wire-trace.json -wire-sample 8

# One local command matching the CI gate: vet (all standard analyzers),
# gofmt, and the project's own contract linter (see internal/lint and
# DESIGN.md "Static contracts"). -werror fails on any non-allowed finding.
lint:
	$(GO) vet ./...
	@out="$$(gofmt -l .)"; if [ -n "$$out" ]; then \
		echo "gofmt needed on:"; echo "$$out"; exit 1; fi
	$(GO) run ./cmd/mpdp-lint -werror ./...

# Non-test Go lines outside benchmark/ — ROADMAP item 4's "least code"
# measure. Informational: CI prints it, nothing gates on it.
loc:
	@find . -name '*.go' ! -name '*_test.go' ! -path './benchmark/*' ! -path '*/testdata/*' | xargs cat | wc -l

# Regenerate the hot-path runtime alloc-gate list from //mpdp:hotpath
# annotations and fail if it differs from the checked-in file. CI runs
# every listed benchmark with -benchmem and holds it at 0 allocs/op.
hotpath-gates:
	$(GO) run ./cmd/mpdp-lint -hotpath-gates bench/hotpath_gates.txt ./...
	@git diff --exit-code -- bench/hotpath_gates.txt || \
		{ echo "bench/hotpath_gates.txt was stale; commit the regenerated file"; exit 1; }

examples:
	$(GO) run ./examples/quickstart
	$(GO) run ./examples/noisyneighbor
	$(GO) run ./examples/incast
	$(GO) run ./examples/tenantgateway

clean:
	rm -f results.csv suite_output.txt run.wir wire-trace.json
	rm -rf incidents
