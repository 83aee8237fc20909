package transport

import "time"

// The transport is, by design, the only simulation-scoped package that
// reads the wall clock: real sockets run in real time. Every read — the
// transport's own and the mesh's on top of it — funnels through this file
// so the determinism linter sees exactly three deliberate exceptions (plus
// the reorder driver's pump ticker) instead of stray time.Now calls
// scattered through the data path, and an injected clock has one seam.
//
// The clock is unix-nanosecond valued but monotone-advanced: anchored once
// at package init, then advanced by Go's monotonic clock, so an NTP step
// can never run the reorder simulator backwards or reorder gossip freshness
// and handoff timeouts.

var clockAnchor = time.Now() //lint:allow determinism single wall-clock anchor for the wire transport

var clockBaseNanos = clockAnchor.UnixNano()

// NowNanos returns monotone unix nanoseconds.
func NowNanos() int64 {
	return clockBaseNanos + time.Since(clockAnchor).Nanoseconds() //lint:allow determinism monotonic advance of the wire clock
}

// Deadline converts a timeout into an absolute time for Set{Read,Write}Deadline.
func Deadline(d time.Duration) time.Time {
	return time.Now().Add(d) //lint:allow determinism socket deadlines are inherently wall-clock
}
