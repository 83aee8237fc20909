package transport_test

import (
	"mpdp/internal/invariant"
	"mpdp/internal/live"
	"mpdp/internal/packet"
	"mpdp/internal/stats"
	"mpdp/internal/transport"
)

// Compile-time pin of the shapes benchmark/ is built against. That
// directory is frozen between PRs (BENCHMARK.json lists it), so a changed
// signature here would break the benchmark build without any test in this
// tree noticing; this file turns that into a compile error in tier 1.
var (
	_ func() *transport.Verifier                                    = transport.NewVerifier
	_ func(*live.Registry) *transport.Spans                         = transport.NewSpans
	_ func(*transport.Spans) []live.StageSpan                       = (*transport.Spans).StageSnapshot
	_ func() *invariant.Stream                                      = invariant.NewStream
	_ func(*invariant.Stream, uint64, uint64)                       = (*transport.Verifier).NoteSent
	_ func(*transport.Verifier) error                               = (*invariant.Stream).Finish
	_ func(*live.Engine) live.Stats                                 = (*live.Engine).Snapshot
	_ func(*live.Engine) []live.StageSpan                           = (*live.Engine).StageSnapshot
	_ live.PolicyName                                               = live.PolicyFlowlet
	_ stats.Summary                                                 = live.StageSpan{Stage: "e2e"}.Latency
	_ func(live.Config, func(*packet.Packet)) (*live.Engine, error) = live.Start

	_ = transport.ReceiverConfig{Verifier: (*transport.Verifier)(nil), Spans: (*transport.Spans)(nil)}
	_ = transport.SenderConfig{Verifier: (*invariant.Stream)(nil), Spans: (*transport.Spans)(nil)}
)
